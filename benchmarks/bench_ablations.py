"""Benchmarks for the ablation experiments of Section 7.2.

* **Single processor (P = 1)** — the red-blue pebble game with compute costs:
  the DFS + clairvoyant baseline is strong and the ILP rarely improves on it.
* **No recomputation** — forbidding recomputation in the ILP can increase the
  schedule cost (the paper observes up to 1.4x on individual instances).
"""

from __future__ import annotations

from repro.experiments.runner import geometric_mean
from repro.pipeline import ExperimentConfig
from repro.experiments.tables import p1_experiment, recomputation_ablation

from helpers import env_limit, env_time_limit, make_session, record_results, record_text


def test_single_processor_pebbling(benchmark):
    config = ExperimentConfig(name="p1", ilp_time_limit=env_time_limit(5.0))
    limit = env_limit(8)

    results = benchmark.pedantic(
        lambda: p1_experiment(config=config, limit=limit, session=make_session()), rounds=1, iterations=1
    )
    record_results(
        "ablation_p1_pebbling",
        results,
        benchmark,
        title="Single-processor red-blue pebbling (P=1): DFS+clairvoyant / ILP",
    )
    improved = sum(1 for r in results if r.ratio < 1.0 - 1e-9)
    # the paper improves on only 2 of 15 instances (the DFS + clairvoyant
    # baseline is strong); the measured count is recorded for EXPERIMENTS.md
    benchmark.extra_info["instances_improved"] = improved
    assert all(r.ilp_cost <= r.baseline_cost + 1e-9 for r in results)


def test_recomputation_ablation(benchmark):
    config = ExperimentConfig(name="recompute", ilp_time_limit=env_time_limit(6.0))
    limit = env_limit(4)

    results = benchmark.pedantic(
        lambda: recomputation_ablation(config=config, limit=limit, session=make_session()), rounds=1, iterations=1
    )
    with_rec = results["with_recompute"]
    without = results["no_recompute"]
    lines = ["Recomputation ablation — ILP cost with / without recomputation", ""]
    header = f"{'instance':<18s} {'recompute':>10s} {'forbidden':>10s} {'factor':>7s}"
    lines.append(header)
    lines.append("-" * len(header))
    factors = []
    for a, b in zip(with_rec, without):
        factor = b.ilp_cost / max(a.ilp_cost, 1e-9)
        factors.append(factor)
        lines.append(f"{a.instance_name:<18s} {a.ilp_cost:>10.1f} {b.ilp_cost:>10.1f} {factor:>7.2f}")
    lines.append("")
    lines.append(f"geomean factor: {geometric_mean(factors):.3f}  "
                 f"(paper: up to 1.40x on individual instances)")
    record_text("ablation_recomputation", "\n".join(lines), benchmark,
                geomean_factor=geometric_mean(factors))
    assert len(with_rec) == len(without)
