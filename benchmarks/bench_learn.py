"""Benchmark of the adaptive portfolio (`repro.learn`).

Runs the pinned 6-member portfolio exhaustively over the tiny dataset,
mines the results into a learned history, replays the same portfolio with
``select="adaptive"`` (greedy selector, top-3), and checks the JSON
summary against the checked-in trajectory ``benchmarks/BENCH_learn.json``
**byte for byte**.

The summary pins what the adaptive portfolio is *for*: the solver-call
reduction (adaptive must dispatch strictly fewer ILP solves than
exhaustive — the CI smoke gate additionally requires >= 40%) and the
aggregate regret versus the per-instance true best (0 on this dataset:
the history ranks the actual winners first).  The pinned configuration
uses the pure-Python branch-and-bound backend with a node limit, so every
number in the summary — costs, solver calls, selections, history digest —
is deterministic across machines; no wall-clock value enters the file.
A mismatch means features, mining, ranking or selection changed
behaviour, and the trajectory must be regenerated on purpose:

    PYTHONPATH=src python benchmarks/bench_learn.py --regenerate
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import obs
from repro.experiments.runner import ExperimentConfig
from repro.learn import mine_history
from repro.portfolio import Portfolio

from helpers import record_text

TRAJECTORY = Path(__file__).parent / "BENCH_learn.json"

#: The pinned bench configuration (changing it invalidates the trajectory).
#: Two refine variants ride along so the greedy ranking has real choices to
#: make: on most instances they displace the node-limited ILP member from
#: the top-3, which is where the solver-call reduction comes from.
MEMBERS = (
    "bspg+clairvoyant",
    "cilk+lru",
    "etf+clairvoyant",
    "bspg+clairvoyant|refine",
    "etf+clairvoyant|refine",
    "ilp",
)
TOP_K = 3


def _config() -> ExperimentConfig:
    # bnb + node limit: fully deterministic solver-call counts and costs
    # across machines (no HiGHS version or timing dependence)
    return ExperimentConfig(
        name="portfolio",
        ilp_time_limit=60.0,
        ilp_node_limit=3,
        ilp_backend="bnb",
    )


def _dataset():
    from repro.experiments.datasets import tiny_dataset

    return tiny_dataset()


def run_bench() -> str:
    """The byte-stable JSON rendering of the pinned learn bench."""
    from repro.exec import Session

    config = _config()
    dags = _dataset()
    members = list(MEMBERS)

    with tempfile.TemporaryDirectory(prefix="bench-learn-") as scratch:
        results_path = Path(scratch) / "results.jsonl"

        # phase 1: exhaustive ground truth (streams member-tagged records)
        exhaustive = Portfolio(config=config)
        session = Session(workers=1, results_path=results_path)
        with obs.Meter() as meter:
            rows_exhaustive = exhaustive.run(members, dags, session=session)
        session.log.close()
        exhaustive_calls = float(meter.solver_calls)

        # phase 2: mine the history the adaptive run will consult
        history, mining = mine_history([results_path], dags, config)

    # phase 3: adaptive replay (fresh session, no shared cache: the meter
    # counts what adaptive actually dispatches)
    adaptive = Portfolio(
        config=config, select="adaptive", top_k=TOP_K, history=history
    )
    with obs.Meter() as meter:
        rows_adaptive = adaptive.run(members, dags)
    adaptive_calls = float(meter.solver_calls)

    selection = adaptive.last_selection
    regret = selection.aggregate_regret()
    summary = {
        "config": {
            "members": members,
            "top_k": TOP_K,
            "selector": "greedy",
            "dataset": "tiny",
            "ilp_backend": config.ilp_backend,
            "ilp_node_limit": config.ilp_node_limit,
        },
        "exhaustive": {
            "solver_calls": exhaustive_calls,
            "jobs": len(rows_exhaustive) * len(members),
            "mined_observations": mining.observations,
        },
        "adaptive": {
            "solver_calls": adaptive_calls,
            "jobs_run": selection.jobs_run,
            "jobs_total": selection.jobs_total,
            "predicted_calls_saved": selection.predicted_calls_saved,
        },
        "solver_call_reduction": round(
            1.0 - adaptive_calls / exhaustive_calls, 9
        ) if exhaustive_calls else 0.0,
        "regret": regret,
        "history_digest": history.digest(),
        "selections": {
            s.instance: list(s.chosen) for s in selection.selections
        },
        "best_costs": {
            row.instance_name: row.best_cost for row in rows_adaptive
        },
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_learn_bench_matches_trajectory(benchmark):
    text = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    summary = json.loads(text)
    record_text(
        "learn_bench",
        text,
        benchmark=benchmark,
        solver_call_reduction=summary["solver_call_reduction"],
        regret=summary["regret"]["relative"],
        history_digest=summary["history_digest"],
    )
    # the two headline guarantees, asserted independently of the byte
    # comparison so a regression reads as what it is
    assert summary["adaptive"]["solver_calls"] < summary["exhaustive"]["solver_calls"]
    assert summary["solver_call_reduction"] >= 0.4
    assert summary["regret"]["relative"] <= 0.0
    expected = TRAJECTORY.read_text()
    assert text == expected, (
        "learn bench summary diverged from benchmarks/BENCH_learn.json; "
        "if the change is intentional, regenerate with "
        "'PYTHONPATH=src python benchmarks/bench_learn.py --regenerate'"
    )


if __name__ == "__main__":
    import sys

    text = run_bench()
    if "--regenerate" in sys.argv:
        TRAJECTORY.write_text(text)
        print(f"wrote {TRAJECTORY}")
    else:
        print(text, end="")
        sys.exit(0 if text == TRAJECTORY.read_text() else 1)
