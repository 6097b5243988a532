"""Benchmark of the observability layer (`repro.obs`): disabled overhead.

The tracing layer's hard constraint is **zero cost when disabled**: every
instrumented hot path calls ``obs.trace_span`` / ``obs.count`` /
``obs.observe``, which must reduce to a guard check and nothing else.
This bench enforces the constraint quantitatively:

1. micro-benchmark the disabled call sites (ns per ``trace_span`` /
   ``count`` / ``observe`` call while tracing is off);
2. run the pinned workload traced once and count every span and metric
   event it records — that is exactly how many disabled-path calls an
   untraced run of the same workload performs;
3. time the untraced workload and assert that the *predicted* overhead —
   events x disabled-call cost over the untraced wall time — stays under
   ``OVERHEAD_BUDGET_PCT`` (2%).

The prediction is deliberately used instead of diffing two noisy
wall-clock runs: on a loaded CI host the run-to-run jitter of the
workload dwarfs the nanosecond-scale cost being measured.

``benchmarks/BENCH_obs.json`` pins the *deterministic structure* of the
traced workload — span counts by name and the recorded metric names — so
an instrumentation regression (a span silently dropped, a hot path that
stopped counting) fails the bench even though timings are machine-local.
Regenerate deliberately after changing the instrumentation:

    PYTHONPATH=src python benchmarks/bench_obs.py --regenerate
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exec import Session, plan_pipelines
from repro.pipeline import ExperimentConfig

TRAJECTORY = Path(__file__).parent / "BENCH_obs.json"

OVERHEAD_BUDGET_PCT = 2.0

#: The pinned workload (changing it invalidates the trajectory): seeded
#: two-stage, refine and race pipelines — solver-free, so span counts and
#: wall time are deterministic and fast.
SPECS = (
    "bspg+clairvoyant",
    "bspg+clairvoyant|refine(seed=1)",
    "baseline|race(refine(seed=1),refine(seed=2,strategy=anneal))",
)
DAG_SEEDS = (1, 2)


def _plan():
    dags = []
    for seed in DAG_SEEDS:
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    config = ExperimentConfig(
        name="bench-obs", num_processors=2, ilp_time_limit=1.0
    )
    return plan_pipelines(SPECS, dags, config)


def _microbench(fn, calls: int = 200_000) -> float:
    """Nanoseconds per call of ``fn`` (one warm timed loop)."""
    fn()  # warm up
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls * 1e9


def run_bench() -> dict:
    assert not obs.tracing_enabled(), "bench must start untraced"

    # 1. disabled-path micro-bench
    ns_span = _microbench(lambda: obs.trace_span("x", category="b", a=1))
    ns_count = _microbench(lambda: obs.count("x"))
    ns_observe = _microbench(lambda: obs.observe("x", 1.0))

    # 2. traced run: the event census of the workload
    obs.get_tracer().reset()
    obs.metrics().reset()
    with obs.trace_scope():
        Session(workers=1).run(_plan())
        spans = obs.get_tracer().drain()
        snapshot = obs.metrics().snapshot()
    obs.metrics().reset()
    span_counts: dict = {}
    for span in spans:
        span_counts[span.name] = span_counts.get(span.name, 0) + 1
    counter_events = sum(snapshot["counters"].values())
    observe_events = sum(len(v) for v in snapshot["histograms"].values())
    metric_names = sorted(
        list(snapshot["counters"]) + list(snapshot["histograms"])
    )

    # 3. untraced wall time and the predicted disabled overhead
    t0 = time.perf_counter()
    Session(workers=1).run(_plan())
    untraced_wall = time.perf_counter() - t0
    overhead_ns = (
        len(spans) * ns_span
        + counter_events * ns_count
        + observe_events * ns_observe
    )
    overhead_pct = overhead_ns / (untraced_wall * 1e9) * 100.0

    return {
        "structure": {
            "specs": list(SPECS),
            "dag_seeds": list(DAG_SEEDS),
            "span_counts": dict(sorted(span_counts.items())),
            "metric_names": metric_names,
            "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        },
        "timing": {
            "ns_per_disabled_trace_span": ns_span,
            "ns_per_disabled_count": ns_count,
            "ns_per_disabled_observe": ns_observe,
            "untraced_wall_s": untraced_wall,
            "predicted_overhead_pct": overhead_pct,
        },
    }


def structure_text(report: dict) -> str:
    """The byte-stable part checked against BENCH_obs.json (timings are
    machine-local and deliberately excluded)."""
    return json.dumps(report["structure"], sort_keys=True, indent=2) + "\n"


def main(argv) -> int:
    report = run_bench()
    timing = report["timing"]
    print(f"disabled trace_span: {timing['ns_per_disabled_trace_span']:.0f} ns/call")
    print(f"disabled count:      {timing['ns_per_disabled_count']:.0f} ns/call")
    print(f"disabled observe:    {timing['ns_per_disabled_observe']:.0f} ns/call")
    print(f"untraced workload:   {timing['untraced_wall_s']:.3f} s")
    print(f"predicted disabled-tracing overhead: "
          f"{timing['predicted_overhead_pct']:.4f}% "
          f"(budget {OVERHEAD_BUDGET_PCT:g}%)")
    if timing["predicted_overhead_pct"] >= OVERHEAD_BUDGET_PCT:
        print("FAIL: disabled-tracing overhead exceeds the budget")
        return 1
    text = structure_text(report)
    if "--regenerate" in argv:
        TRAJECTORY.write_text(text)
        print(f"wrote {TRAJECTORY}")
        return 0
    expected = TRAJECTORY.read_text()
    if text != expected:
        print("FAIL: traced-run structure diverged from benchmarks/"
              "BENCH_obs.json; if the instrumentation change is "
              "intentional, regenerate with "
              "'PYTHONPATH=src python benchmarks/bench_obs.py --regenerate'")
        print(text, end="")
        return 1
    print("structure matches BENCH_obs.json")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
