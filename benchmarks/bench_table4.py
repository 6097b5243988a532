"""Benchmark regenerating Table 4: alternative parameter configurations.

Configurations: r = 5*r0, r = r0, P = 8, L = 0, and the asynchronous cost
model.  The paper's geometric-mean cost reductions are 0.76x, 0.97x, 0.82x,
0.85x and 0.91x respectively; the expected *shape* is that the tight memory
bound (r = r0) and the asynchronous model leave the least room for
improvement.
"""

from __future__ import annotations

import pytest

from repro.experiments import paper_reference
from repro.pipeline import ExperimentConfig
from repro.experiments.tables import table4

from helpers import env_limit, env_time_limit, make_session, record_results

CONFIG_NAMES = ["r5", "r1", "p8", "L0", "async"]


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_table4_configuration(benchmark, config_name):
    base = ExperimentConfig(name="base", ilp_time_limit=env_time_limit(6.0))
    limit = env_limit(6)
    session = make_session()

    results_by_config = benchmark.pedantic(
        lambda: table4(base_config=base, limit=limit, configurations=[config_name],
                       session=session),
        rounds=1,
        iterations=1,
    )
    results = results_by_config[config_name]
    record_results(
        f"table4_{config_name}",
        results,
        benchmark,
        title=f"Table 4 [{config_name}] — baseline / ILP",
        paper_reference=paper_reference.TABLE4.get(config_name),
    )
    assert all(r.ilp_cost <= r.baseline_cost + 1e-9 for r in results)
