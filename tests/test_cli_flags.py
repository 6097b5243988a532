"""The CLI's flag surface, pinned option by option.

For every subcommand of :func:`repro.cli.build_parser` the test compares each
option's strings, ``dest``, default, ``type``, ``choices``, ``required`` and
action class with the table below.  The subcommands share their flag groups
through helpers in ``cli.py``, so a helper edit reaches several commands at
once; this table makes any change to what a command accepts deliberate.
Help texts and the order of options in ``--help`` are not pinned.

Each row: ``(option strings, dest, default, type name, choices, required,
action class name)``.
"""

import argparse

import pytest

from repro.cli import build_parser

SURFACE = {
    "schedule": [
        (("--generator",), "generator", "spmv", None, None, False, "_StoreAction"),
        (("--size",), "size", 5, "int", None, False, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, False, "_StoreAction"),
        (("--dag-file",), "dag_file", None, None, None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 2, "int", None, False, "_StoreAction"),
        (("--cache-factor",), "cache_factor", 3.0, "float", None, False, "_StoreAction"),
        (("--g",), "g", 1.0, "float", None, False, "_StoreAction"),
        (("--latency", "-L"), "latency", 10.0, "float", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 10.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--asynchronous",), "asynchronous", False, None, None, False, "_StoreTrueAction"),
        (("--render",), "render", False, None, None, False, "_StoreTrueAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
        (("--method",), "method", "baseline", None, ["baseline", "practical", "ilp", "divide-and-conquer"], False, "_StoreAction"),
        (("--refine",), "refine", False, None, None, False, "_StoreTrueAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
    ],
    "refine": [
        (("--generator",), "generator", "spmv", None, None, False, "_StoreAction"),
        (("--size",), "size", 5, "int", None, False, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, False, "_StoreAction"),
        (("--dag-file",), "dag_file", None, None, None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 2, "int", None, False, "_StoreAction"),
        (("--cache-factor",), "cache_factor", 3.0, "float", None, False, "_StoreAction"),
        (("--g",), "g", 1.0, "float", None, False, "_StoreAction"),
        (("--latency", "-L"), "latency", 10.0, "float", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 10.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--asynchronous",), "asynchronous", False, None, None, False, "_StoreTrueAction"),
        (("--render",), "render", False, None, None, False, "_StoreTrueAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
        (("--method",), "method", "baseline", None, ["baseline", "practical", "ilp", "divide-and-conquer"], False, "_StoreAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
        (("--trace",), "trace", False, None, None, False, "_StoreTrueAction"),
    ],
    "pipeline": [
    ],
    "pipeline list": [
    ],
    "pipeline run": [
        (("--spec",), "spec", None, None, None, True, "_StoreAction"),
        (("--generator",), "generator", "spmv", None, None, False, "_StoreAction"),
        (("--size",), "size", 5, "int", None, False, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, False, "_StoreAction"),
        (("--dag-file",), "dag_file", None, None, None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 2, "int", None, False, "_StoreAction"),
        (("--cache-factor",), "cache_factor", 3.0, "float", None, False, "_StoreAction"),
        (("--g",), "g", 1.0, "float", None, False, "_StoreAction"),
        (("--latency", "-L"), "latency", 10.0, "float", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 10.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--asynchronous",), "asynchronous", False, None, None, False, "_StoreTrueAction"),
        (("--render",), "render", False, None, None, False, "_StoreTrueAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
        (("--prune-gap",), "prune_gap", None, "float", None, False, "_StoreAction"),
        (("--no-prune",), "no_prune", False, None, None, False, "_StoreTrueAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--node-limit",), "node_limit", None, "_node_limit", None, False, "_StoreAction"),
        (("--budget",), "budget", None, "float", None, False, "_StoreAction"),
        (("--trace",), "trace", None, None, None, False, "_StoreAction"),
    ],
    "dataset": [
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
    ],
    "serve": [
    ],
    "serve bench": [
        (("--seed",), "seed", 0, "int", None, False, "_StoreAction"),
        (("--requests",), "requests", 100000, "int", None, False, "_StoreAction"),
        (("--rate",), "rate", 4.0, "float", None, False, "_StoreAction"),
        (("--servers",), "servers", 2, "int", None, False, "_StoreAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", 6, "int", None, False, "_StoreAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, False, "_StoreAction"),
        (("--results",), "results", None, None, None, False, "_StoreAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
        (("--json",), "json", False, None, None, False, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, False, "_StoreAction"),
        (("--progress",), "progress", False, None, None, False, "_StoreTrueAction"),
    ],
    "experiment": [
        (("--table",), "table", 1, "int", [1, 2, 4], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 5.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, False, "_StoreAction"),
        (("--results",), "results", None, None, None, False, "_StoreAction"),
        (("--resume",), "resume", False, None, None, False, "_StoreTrueAction"),
        (("--node-limit",), "node_limit", None, "_node_limit", None, False, "_StoreAction"),
        (("--refine",), "refine", False, None, None, False, "_StoreTrueAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
        (("--progress",), "progress", False, None, None, False, "_StoreTrueAction"),
    ],
    "exec": [
    ],
    "exec run": [
        (("--pipeline",), "pipeline", None, None, None, False, "_AppendAction"),
        (("--members",), "members", None, None, None, False, "_StoreAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 5.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--budget",), "budget", None, "float", None, False, "_StoreAction"),
        (("--prune-gap",), "prune_gap", 0.0, "float", None, False, "_StoreAction"),
        (("--no-prune",), "no_prune", False, None, None, False, "_StoreTrueAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, False, "_StoreAction"),
        (("--results",), "results", None, None, None, False, "_StoreAction"),
        (("--resume",), "resume", False, None, None, False, "_StoreTrueAction"),
        (("--node-limit",), "node_limit", None, "_node_limit", None, False, "_StoreAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
        (("--shards",), "shards", None, "int", None, False, "_StoreAction"),
        (("--shard-id",), "shard_id", None, "int", None, False, "_StoreAction"),
        (("--spawn-shards",), "spawn_shards", None, "int", None, False, "_StoreAction"),
        (("--trace",), "trace", None, None, None, False, "_StoreAction"),
        (("--progress",), "progress", False, None, None, False, "_StoreTrueAction"),
    ],
    "exec merge": [
        (("--pipeline",), "pipeline", None, None, None, False, "_AppendAction"),
        (("--members",), "members", None, None, None, False, "_StoreAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 5.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--budget",), "budget", None, "float", None, False, "_StoreAction"),
        (("--prune-gap",), "prune_gap", 0.0, "float", None, False, "_StoreAction"),
        (("--no-prune",), "no_prune", False, None, None, False, "_StoreTrueAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, False, "_StoreAction"),
        (("--results",), "results", None, None, None, False, "_StoreAction"),
        (("--resume",), "resume", False, None, None, False, "_StoreTrueAction"),
        (("--node-limit",), "node_limit", None, "_node_limit", None, False, "_StoreAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
        (("--shards",), "shards", None, "int", None, True, "_StoreAction"),
    ],
    "obs": [
    ],
    "obs export": [
        (("--spill",), "spill", None, None, None, False, "_StoreAction"),
        (("--format",), "format", "chrome-trace", None, ["chrome-trace", "metrics", "metrics-json"], False, "_StoreAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
    ],
    "lint": [
        ((), "paths", None, None, None, False, "_StoreAction"),
        (("--rules",), "rules", None, None, None, False, "_StoreAction"),
        (("--list-rules",), "list_rules", False, None, None, False, "_StoreTrueAction"),
        (("--baseline",), "baseline", None, None, None, False, "_StoreAction"),
        (("--no-baseline",), "no_baseline", False, None, None, False, "_StoreTrueAction"),
        (("--write-baseline",), "write_baseline", False, None, None, False, "_StoreTrueAction"),
        (("--format",), "format", "text", None, ["text", "json"], False, "_StoreAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
    ],
    "check": [
        (("--pipeline",), "pipeline", None, None, None, False, "_AppendAction"),
        (("--members",), "members", None, None, None, False, "_StoreAction"),
        (("--policy",), "policy", False, None, None, False, "_StoreTrueAction"),
        (("--policy-cheap",), "policy_cheap", None, None, None, False, "_StoreAction"),
        (("--policy-steady",), "policy_steady", None, None, None, False, "_StoreAction"),
        (("--policy-rich",), "policy_rich", None, None, None, False, "_StoreAction"),
        (("--shards",), "shards", None, "int", None, False, "_StoreAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--max-sweep",), "max_sweep", 16, "int", None, False, "_StoreAction"),
        (("--format",), "format", "text", None, ["text", "json"], False, "_StoreAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
    ],
    "learn": [
    ],
    "learn mine": [
        (("--results",), "results", None, None, None, True, "_AppendAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--output",), "output", "history.json", None, None, False, "_StoreAction"),
    ],
    "learn select": [
        (("--history",), "history", None, None, None, True, "_StoreAction"),
        (("--members",), "members", None, None, None, False, "_StoreAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--top-k",), "top_k", 3, "int", None, False, "_StoreAction"),
        (("--selector",), "selector", "greedy", None, ["greedy", "knn"], False, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, False, "_StoreAction"),
    ],
    "learn report": [
        (("--history",), "history", None, None, None, True, "_StoreAction"),
        (("--format",), "format", "text", None, ["text", "json"], False, "_StoreAction"),
        (("--output",), "output", None, None, None, False, "_StoreAction"),
    ],
    "portfolio": [
        (("--members",), "members", None, None, None, False, "_StoreAction"),
        (("--pipeline",), "pipeline", None, None, None, False, "_AppendAction"),
        (("--list-members",), "list_members", False, None, None, False, "_StoreTrueAction"),
        (("--which",), "which", "tiny", None, ["tiny", "small"], False, "_StoreAction"),
        (("--scale",), "scale", "default", None, ["default", "paper"], False, "_StoreAction"),
        (("--limit",), "limit", None, "int", None, False, "_StoreAction"),
        (("--processors", "-p"), "processors", 4, "int", None, False, "_StoreAction"),
        (("--time-limit",), "time_limit", 5.0, "float", None, False, "_StoreAction"),
        (("--backend",), "backend", None, None, ["auto", "bnb", "scipy"], False, "_StoreAction"),
        (("--prune-gap",), "prune_gap", 0.0, "float", None, False, "_StoreAction"),
        (("--no-prune",), "no_prune", False, None, None, False, "_StoreTrueAction"),
        (("--select",), "select", "exhaustive", None, ["exhaustive", "adaptive"], False, "_StoreAction"),
        (("--top-k",), "top_k", 3, "int", None, False, "_StoreAction"),
        (("--history",), "history", None, None, None, False, "_StoreAction"),
        (("--selector",), "selector", "greedy", None, ["greedy", "knn"], False, "_StoreAction"),
        (("--workers",), "workers", 1, "int", None, False, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, False, "_StoreAction"),
        (("--results",), "results", None, None, None, False, "_StoreAction"),
        (("--resume",), "resume", False, None, None, False, "_StoreTrueAction"),
        (("--node-limit",), "node_limit", None, "_node_limit", None, False, "_StoreAction"),
        (("--refine",), "refine", False, None, None, False, "_StoreTrueAction"),
        (("--refine-budget",), "refine_budget", 3000, "int", None, False, "_StoreAction"),
        (("--refine-strategy",), "refine_strategy", "hill", None, ["hill", "anneal"], False, "_StoreAction"),
    ],
}


def _surface(parser, prefix=()):
    """``{"exec run": {dest: row}}`` for ``parser`` and its subcommands."""
    options = {}
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_surface(sub, prefix + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            kind = action.type
            options[action.dest] = (
                tuple(action.option_strings),
                action.dest,
                action.default,
                None if kind is None else kind.__name__,
                None if action.choices is None else list(action.choices),
                action.required,
                type(action).__name__,
            )
    if prefix:
        table[" ".join(prefix)] = options
    return table


ACTUAL = _surface(build_parser())


def test_the_subcommands_are_the_pinned_ones():
    assert sorted(ACTUAL) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_every_option_of_a_subcommand_is_the_pinned_one(command):
    expected = {row[1]: row for row in SURFACE[command]}
    assert ACTUAL[command] == expected
