"""Benchmark regenerating Table 2: divide-and-conquer ILP on the larger dataset.

Paper setting: the "small" dataset (264-464 nodes), P = 4, r = 5 * r0.  The
divide-and-conquer ILP wins clearly on the partitioning-friendly instances
(coarse-grained PageRank / graph-challenge, SpMV) and loses on the tightly
coupled ones (iterated SpMV, k-NN) — unlike the warm-started full ILP it is
*not* guaranteed to beat the baseline.
"""

from __future__ import annotations

from repro.experiments import paper_reference
from repro.pipeline import ExperimentConfig
from repro.experiments.tables import table2

from helpers import env_limit, env_time_limit, make_session, record_results


def test_table2_divide_and_conquer(benchmark):
    config = ExperimentConfig(
        name="table2", cache_factor=5.0, ilp_time_limit=env_time_limit(5.0)
    )
    limit = env_limit(6)
    session = make_session()

    results = benchmark.pedantic(
        lambda: table2(config=config, limit=limit, max_part_size=20, session=session),
        rounds=1,
        iterations=1,
    )
    record_results(
        "table2_divide_and_conquer",
        results,
        benchmark,
        title="Table 2 — baseline / divide-and-conquer ILP (P=4, r=5*r0)",
        paper_reference=paper_reference.TABLE2,
    )
    # shape check: costs are positive and every instance was partitioned
    assert all(r.baseline_cost > 0 and r.ilp_cost > 0 for r in results)
    assert all(r.extra_costs["parts"] >= 1 for r in results)
