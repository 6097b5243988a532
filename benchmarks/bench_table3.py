"""Benchmark regenerating Table 3: every baseline and the ILPs on top of them.

Columns: main baseline (BSPg + clairvoyant), our ILP, weak baseline
(Cilk + LRU), BSP-ILP baseline (+ clairvoyant), and our ILP initialised with
that stronger baseline.  The paper reports geomean reductions of 0.77x vs the
main baseline, 0.66x vs Cilk+LRU and 0.88x vs the BSP-ILP baseline.
"""

from __future__ import annotations

from repro.experiments import paper_reference
from repro.experiments.runner import geometric_mean
from repro.pipeline import ExperimentConfig
from repro.experiments.tables import table3

from helpers import env_limit, env_time_limit, make_session, record_results, record_text


def test_table3_all_baselines(benchmark):
    config = ExperimentConfig(name="table3", ilp_time_limit=env_time_limit(8.0))
    limit = env_limit(8)
    session = make_session()

    results = benchmark.pedantic(
        lambda: table3(config=config, limit=limit, session=session), rounds=1, iterations=1
    )
    record_results(
        "table3_columns_base_ilp",
        results,
        benchmark,
        title="Table 3 — main baseline vs our ILP",
        paper_reference=paper_reference.TABLE1,
    )

    lines = ["Table 3 — all columns (baseline / ILP / Cilk+LRU / BSP-ILP / BSP-ILP+ILP)", ""]
    header = (f"{'instance':<18s} {'base':>8s} {'ILP':>8s} {'weak':>8s} "
              f"{'bspILP':>8s} {'bspILP+ILP':>11s}")
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        lines.append(
            f"{res.instance_name:<18s} {res.baseline_cost:>8.1f} {res.ilp_cost:>8.1f} "
            f"{res.extra_costs['weak']:>8.1f} {res.extra_costs['bsp_ilp']:>8.1f} "
            f"{res.extra_costs['bsp_ilp_plus_ilp']:>11.1f}"
        )
    ratio_vs_weak = geometric_mean(
        [r.ilp_cost / max(r.extra_costs["weak"], 1e-9) for r in results]
    )
    ratio_vs_bsp_ilp = geometric_mean(
        [r.extra_costs["bsp_ilp_plus_ilp"] / max(r.extra_costs["bsp_ilp"], 1e-9) for r in results]
    )
    lines.append("")
    lines.append(f"geomean ILP / (Cilk+LRU)      : {ratio_vs_weak:.3f}  (paper: 0.66)")
    lines.append(f"geomean (BSP-ILP + ILP) / BSP-ILP: {ratio_vs_bsp_ilp:.3f}  (paper: 0.88)")
    record_text("table3_full", "\n".join(lines), benchmark,
                ratio_vs_weak=ratio_vs_weak, ratio_vs_bsp_ilp=ratio_vs_bsp_ilp)

    assert all(r.ilp_cost <= r.baseline_cost + 1e-9 for r in results)
    # the practical Cilk+LRU baseline should not beat our ILP on average
    assert ratio_vs_weak <= 1.0 + 1e-9
