"""Golden regression tests: frozen ``schedule_cost`` values per scheduler.

These pin the exact two-stage pipeline costs (and the exact schedules, via
their digests) for a handful of seeded instances, so cost-model or
scheduler refactors cannot silently drift.  If a change *intentionally*
alters schedules or the cost model, recompute the constants below and
explain the drift in the commit message.
"""

import pytest

from repro.core.two_stage import run_two_stage
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import fork_join_dag, iterated_spmv, spmv
from repro.model.instance import make_instance
from repro.pipeline import schedule_digest


def _spmv_dag():
    dag = spmv(4, seed=1)
    assign_random_memory_weights(dag, seed=7)
    return dag


def _exp_dag():
    dag = iterated_spmv(3, 2, seed=42)
    assign_random_memory_weights(dag, seed=42)
    return dag


def _fork_join_dag():
    dag = fork_join_dag(width=3, stages=2)
    assign_random_memory_weights(dag, seed=5)
    return dag


# (dag builder, scheduler, policy, processors) -> (cost, schedule digest)
GOLDEN = {
    (_spmv_dag, "bspg", "clairvoyant", 2): (118.0, "a8ef4d4f69fe00ab"),
    (_spmv_dag, "cilk", "lru", 2): (146.0, "78f373251ce71c2c"),
    (_spmv_dag, "dfs", "clairvoyant", 1): (88.0, "ce68dac6f91f1dc5"),
    (_spmv_dag, "bspg", "clairvoyant", 4): (113.0, "9d3c9af5bf6af2e4"),
    (_exp_dag, "bspg", "clairvoyant", 2): (214.0, "9d472bbd9f29c62f"),
    (_exp_dag, "cilk", "lru", 2): (205.0, "e580b3dbf1abaa1b"),
    (_exp_dag, "dfs", "clairvoyant", 1): (82.0, "7a52471321eec90a"),
    (_fork_join_dag, "bspg", "clairvoyant", 2): (50.0, "e9097ca4dab0b161"),
    (_fork_join_dag, "cilk", "lru", 2): (94.0, "f575ea1b24cce9e4"),
    (_fork_join_dag, "dfs", "clairvoyant", 1): (35.0, "28321137ee681b74"),
    # ETF first stage and the FIFO / largest-first policies
    (_spmv_dag, "etf", "clairvoyant", 2): (140.0, "863db43754479a9e"),
    (_spmv_dag, "etf", "lru", 2): (140.0, "ac1f7cee680cd5bc"),
    (_spmv_dag, "bspg", "fifo", 2): (118.0, "a8ef4d4f69fe00ab"),
    (_spmv_dag, "bspg", "largest_first", 2): (118.0, "a8ef4d4f69fe00ab"),
    (_exp_dag, "etf", "clairvoyant", 2): (169.0, "53eeb9b480799f2e"),
    (_exp_dag, "etf", "lru", 2): (187.0, "a0f5bd078587d5ed"),
    (_exp_dag, "bspg", "fifo", 2): (214.0, "f8e9e6f6329966b1"),
    (_exp_dag, "bspg", "largest_first", 2): (224.0, "dd9604ff11477cb8"),
    (_fork_join_dag, "etf", "clairvoyant", 2): (74.0, "20f82d50b9c77fc9"),
    (_fork_join_dag, "etf", "lru", 2): (74.0, "20f82d50b9c77fc9"),
    (_fork_join_dag, "bspg", "fifo", 2): (50.0, "e9097ca4dab0b161"),
    (_fork_join_dag, "bspg", "largest_first", 2): (50.0, "e9097ca4dab0b161"),
}


@pytest.mark.parametrize(
    "builder,scheduler,policy,processors,expected_cost,expected_digest",
    [key + value for key, value in GOLDEN.items()],
    ids=[f"{b.__name__.strip('_')}-{s}+{p}-P{n}" for (b, s, p, n) in GOLDEN],
)
def test_golden_two_stage_cost(builder, scheduler, policy, processors,
                               expected_cost, expected_digest):
    dag = builder()
    instance = make_instance(dag, num_processors=processors, cache_factor=3.0,
                             g=1.0, L=10.0)
    result = run_two_stage(instance, scheduler=scheduler, policy=policy, seed=0)
    assert result.cost == pytest.approx(expected_cost, abs=1e-9)
    assert schedule_digest(result.mbsp_schedule) == expected_digest


def test_golden_values_are_reproducible_across_rebuilds():
    """Two independent builds of the same seeded instance agree exactly."""
    first = run_two_stage(
        make_instance(_spmv_dag(), num_processors=2, cache_factor=3.0, g=1.0, L=10.0),
        scheduler="bspg", policy="clairvoyant", seed=0,
    )
    second = run_two_stage(
        make_instance(_spmv_dag(), num_processors=2, cache_factor=3.0, g=1.0, L=10.0),
        scheduler="bspg", policy="clairvoyant", seed=0,
    )
    assert first.cost == second.cost
    assert schedule_digest(first.mbsp_schedule) == schedule_digest(second.mbsp_schedule)
