"""Benchmark of the online scheduling service (`repro.serve`).

Replays two pinned 10^5-request serve bench traces — a seeded Poisson
arrival process over the first 6 tiny-dataset templates, answered by the
load-adaptive policy with repeats served from the content-hash cache — and
checks each JSON SLO summary against its checked-in trajectory **byte for
byte**:

* ``benchmarks/BENCH_serve.json`` at rate 4 on 2 servers, where about 2 %
  of the requests wait for a server;
* ``benchmarks/BENCH_serve_load.json`` at rate 30, where about 64 % wait,
  queues reach about 50 and all three policy tiers answer: the event
  loop's block kernel walks long runs of waiting requests there, and the
  loop body's requests fall between its blocks.

The summaries contain no wall-clock values (the service timeline is
virtual), so the comparison is exact on any machine: a mismatch means the
arrival process, the policy, the virtual cost model or the SLO computation
changed behaviour, and the trajectory files must be regenerated on
purpose:

    PYTHONPATH=src python benchmarks/bench_serve.py --regenerate

Environment knobs: ``REPRO_BENCH_WORKERS`` fans the distinct-job execution
out over worker processes (cannot change the summary by design),
``REPRO_CACHE_DIR`` lets repeat invocations skip the solver calls.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serve import run_serve_bench

from helpers import record_text, env_workers, env_backend

TRAJECTORY = Path(__file__).parent / "BENCH_serve.json"
LOAD_TRAJECTORY = Path(__file__).parent / "BENCH_serve_load.json"

#: The pinned bench configuration (changing it invalidates the trajectory).
BENCH_KWARGS = dict(
    seed=0,
    requests=100_000,
    rate=4.0,
    servers=2,
    dataset="tiny",
    scale="default",
    limit=6,
)

#: The same trace under heavy load (pinned in ``LOAD_TRAJECTORY``).
LOAD_KWARGS = dict(BENCH_KWARGS, rate=30.0)

#: each trajectory file and the bench configuration it pins
PINS = {TRAJECTORY: BENCH_KWARGS, LOAD_TRAJECTORY: LOAD_KWARGS}


def run_bench(kwargs=BENCH_KWARGS) -> str:
    """The byte-stable JSON rendering of one pinned serve bench."""
    from repro.experiments.runner import env_cache_dir

    summary = run_serve_bench(
        workers=env_workers(), cache_dir=env_cache_dir(), **kwargs
    )
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("trajectory", list(PINS), ids=lambda path: path.stem)
def test_serve_bench_matches_trajectory(benchmark, trajectory):
    text = benchmark.pedantic(run_bench, args=(PINS[trajectory],), rounds=1, iterations=1)
    summary = json.loads(text)
    record_text(
        "serve_bench" + trajectory.stem.removeprefix("BENCH_serve"),
        text,
        benchmark=benchmark,
        requests=summary["slo"]["requests"],
        distinct_jobs=summary["slo"]["distinct_jobs"],
        cache_hit_rate=summary["slo"]["cache_hit_rate"],
        trace_digest=summary["trace_digest"],
        ilp_backend=env_backend(),
    )
    expected = trajectory.read_text()
    assert text == expected, (
        f"serve bench summary diverged from benchmarks/{trajectory.name}; "
        "if the change is intentional, regenerate with "
        "'PYTHONPATH=src python benchmarks/bench_serve.py --regenerate'"
    )


if __name__ == "__main__":
    import sys

    matches = True
    for trajectory, kwargs in PINS.items():
        text = run_bench(kwargs)
        if "--regenerate" in sys.argv:
            trajectory.write_text(text)
            print(f"wrote {trajectory}")
        else:
            print(text, end="")
            matches = matches and text == trajectory.read_text()
    sys.exit(0 if matches else 1)
