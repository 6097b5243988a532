"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The solver
runs are executed exactly once per benchmark (``benchmark.pedantic`` with a
single round); the interesting output is not the wall-clock time but the
schedule costs, which are printed, written to ``benchmarks/results/`` and
attached to the benchmark's ``extra_info``.

Environment knobs:

* ``REPRO_ILP_TIME_LIMIT``  — seconds per ILP solve (default set per bench),
* ``REPRO_ILP_BACKEND``     — ILP solver backend for every solve
  (``scipy``/``bnb``/``auto``; picked up by every ``ExperimentConfig`` the
  benchmarks construct and recorded in the benchmark ``extra_info``),
* ``REPRO_BENCH_SCALE``     — ``default`` (reduced sizes) or ``paper``,
* ``REPRO_BENCH_LIMIT``     — only run the first N instances of a dataset,
* ``REPRO_BENCH_WORKERS``   — worker processes of the execution session,
* ``REPRO_CACHE_DIR``       — on-disk result cache of the session (repeat
  benchmark invocations then skip all solver calls).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.experiments.reporting import format_results_table, write_csv
from repro.experiments.runner import env_bench_workers, env_cache_dir, geometric_mean
from repro.pipeline.config import InstanceResult, _env_float, _env_int

RESULTS_DIR = Path(__file__).parent / "results"


def env_time_limit(default: float) -> float:
    """Per-solve time limit, overridable through REPRO_ILP_TIME_LIMIT."""
    return _env_float("REPRO_ILP_TIME_LIMIT", default)


def env_limit(default: Optional[int]) -> Optional[int]:
    """Instance-count limit, overridable through REPRO_BENCH_LIMIT."""
    return _env_int("REPRO_BENCH_LIMIT", default)


def env_workers(default: int = 1) -> int:
    """Engine worker-process count, overridable through REPRO_BENCH_WORKERS.

    Malformed or non-positive values warn and fall back to ``default``
    (the shared warn-and-fall-back convention of the ``REPRO_*`` knobs).
    """
    return env_bench_workers(default)


def env_backend() -> str:
    """The ILP solver backend selected through REPRO_ILP_BACKEND.

    Every :class:`~repro.pipeline.config.ExperimentConfig` a benchmark
    constructs resolves this knob itself; the helper exists so harness code
    can *report* which backend a run used.
    """
    from repro.ilp import default_backend

    return default_backend()


def make_session(workers: Optional[int] = None):
    """A :class:`~repro.exec.Session` configured from the environment
    (REPRO_BENCH_WORKERS, REPRO_CACHE_DIR, both warn-and-fall-back on
    invalid values)."""
    from repro.exec import Session

    return Session(
        workers=env_workers() if workers is None else workers,
        cache_dir=env_cache_dir(),
    )


def record_results(
    name: str,
    results: Sequence[InstanceResult],
    benchmark=None,
    title: str = "",
    paper_reference: Optional[Dict[str, tuple]] = None,
) -> None:
    """Print, persist, and attach one experiment's results."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    table = format_results_table(results, title=title or name, paper_reference=paper_reference)
    print("\n" + table + "\n")
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    write_csv(results, RESULTS_DIR / f"{name}.csv")
    if benchmark is not None:
        benchmark.extra_info["geomean_ratio"] = geometric_mean([r.ratio for r in results])
        benchmark.extra_info["instances"] = len(results)
        benchmark.extra_info["ilp_backend"] = env_backend()


def record_text(name: str, text: str, benchmark=None, **extra) -> None:
    """Persist free-form benchmark output (figures, summaries)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print("\n" + text + "\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if benchmark is not None:
        for key, value in extra.items():
            benchmark.extra_info[key] = value
