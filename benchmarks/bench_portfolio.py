"""Benchmark of the scheduler portfolio with bound-aware ILP pruning.

Runs the default portfolio (two cheap two-stage pipelines plus the
warm-started holistic ILP) over the tiny dataset twice — once with
bound-aware pruning disabled and once with the default provable-only gap —
and reports, per run, the per-instance winners, the number of ILP solver
calls actually dispatched (counted by a :class:`repro.obs.Meter` around
the run) and the skip log.  Both runs must report identical best costs: at gap 0 a skip requires
the baseline to match the theory lower bound, in which case the warm-started
ILP member would have returned the baseline anyway.

Environment knobs: ``REPRO_ILP_BACKEND`` selects the solver backend
(``scipy``/``bnb``/``auto``), ``REPRO_PORTFOLIO_PRUNE_GAP`` widens the
pruning gap beyond the cost-neutral default of 0.
"""

from __future__ import annotations

import os

from repro import obs
from repro.experiments.datasets import tiny_dataset
from repro.pipeline.config import ExperimentConfig, _env_float
from repro.portfolio import DEFAULT_MEMBERS, Portfolio, format_portfolio_table

from helpers import env_backend, env_limit, env_time_limit, record_text


def _run(dags, config, prune_gap):
    with obs.Meter() as meter:
        rows = Portfolio(config=config, prune_gap=prune_gap).run(
            list(DEFAULT_MEMBERS), dags
        )
    return rows, meter.solver_calls


def test_portfolio_bound_pruning(benchmark):
    config = ExperimentConfig(
        name="portfolio-bench",
        ilp_time_limit=env_time_limit(3.0),
        ilp_node_limit=500,
    )
    prune_gap = _env_float("REPRO_PORTFOLIO_PRUNE_GAP", 0.0)
    dags = tiny_dataset(limit=env_limit(None))

    def both_runs():
        unpruned = _run(dags, config, prune_gap=None)
        pruned = _run(dags, config, prune_gap=prune_gap)
        return unpruned, pruned

    (plain_rows, plain_calls), (pruned_rows, pruned_calls) = benchmark.pedantic(
        both_runs, rounds=1, iterations=1
    )

    lines = [
        f"Scheduler portfolio with bound-aware pruning "
        f"(backend={env_backend()}, gap={prune_gap:g})",
        "",
        "--- pruning disabled",
        format_portfolio_table(plain_rows),
        f"ILP solver calls: {plain_calls}",
        "",
        f"--- pruning enabled (gap {prune_gap:g})",
        format_portfolio_table(pruned_rows),
        f"ILP solver calls: {pruned_calls}",
    ]
    skips = sum(row.num_pruned for row in pruned_rows)
    lines.append(f"skipped ILP solves: {skips}")
    record_text(
        "portfolio_pruning",
        "\n".join(lines),
        benchmark,
        ilp_calls_unpruned=plain_calls,
        ilp_calls_pruned=pruned_calls,
        skipped=skips,
        prune_gap=prune_gap,
    )

    # pruning never costs solver calls, and at gap 0 never costs quality
    assert pruned_calls <= plain_calls
    if prune_gap == 0.0:
        for left, right in zip(plain_rows, pruned_rows):
            assert abs(left.best_cost - right.best_cost) < 1e-9
