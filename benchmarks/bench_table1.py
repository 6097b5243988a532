"""Benchmark regenerating Table 1: baseline vs. holistic ILP, base configuration.

Paper setting: tiny dataset, P = 4, r = 3 * r0, g = 1, L = 10, synchronous
cost.  The paper reports a 0.77x geometric-mean cost reduction of the ILP
over the two-stage baseline (per-instance values in
``repro.experiments.paper_reference.TABLE1``).
"""

from __future__ import annotations

from repro.experiments import paper_reference
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import table1

from helpers import env_limit, env_time_limit, make_session, record_results


def test_table1_base_case(benchmark):
    config = ExperimentConfig(name="base", ilp_time_limit=env_time_limit(10.0))
    limit = env_limit(None)
    session = make_session()

    results = benchmark.pedantic(
        lambda: table1(config=config, limit=limit, session=session), rounds=1, iterations=1
    )
    record_results(
        "table1_base",
        results,
        benchmark,
        title="Table 1 — synchronous cost, baseline / ILP (P=4, r=3*r0, L=10)",
        paper_reference=paper_reference.TABLE1,
    )
    # reproduction shape: the warm-started ILP never loses to the baseline
    assert all(r.ilp_cost <= r.baseline_cost + 1e-9 for r in results)
