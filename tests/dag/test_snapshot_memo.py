"""The memoized DAG snapshot and the ``r0`` kept with it.

``ComputationalDag.snapshot()`` hands one shared :class:`DagSnapshot` to
every consumer until the DAG changes, so a job builds one snapshot instead of
one per kernel.  The consumers only read it: after every first stage and
eviction policy, validation, cost evaluation and a refine run, the shared
snapshot must still equal one built from the DAG's validated accessors.
"""

from __future__ import annotations

import pytest

from repro.core.two_stage import run_two_stage
from repro.dag.analysis import assign_random_memory_weights, minimum_cache_size
from repro.dag.generators import random_layered_dag, spmv
from repro.dag.graph import ComputationalDag, DagSnapshot
from repro.exceptions import InfeasibleInstanceError
from repro.model.cost import schedule_cost
from repro.model.instance import make_instance
from repro.model.validation import validate_schedule
from repro.refine import Refiner, RefineConfig


def reference_r0(dag: ComputationalDag) -> float:
    """``minimum_cache_size`` as it stood before ``r0`` joined the snapshot."""
    best = 0.0
    for v in dag.nodes:
        parents = dag.parents(v)
        if not parents:
            best = max(best, dag.mu(v))
        else:
            best = max(best, dag.mu(v) + sum(dag.mu(u) for u in parents))
    return best


def accessor_snapshot(dag: ComputationalDag) -> DagSnapshot:
    """A snapshot built from the DAG's validated accessors."""
    nodes = dag.nodes
    return DagSnapshot(
        parents={v: tuple(dag.parents(v)) for v in nodes},
        children={v: tuple(dag.children(v)) for v in nodes},
        omega={v: dag.omega(v) for v in nodes},
        mu={v: dag.mu(v) for v in nodes},
        sources=frozenset(dag.sources()),
        r0=reference_r0(dag),
    )


def diamond() -> ComputationalDag:
    dag = ComputationalDag(name="diamond")
    for v, (omega, mu) in {"a": (1, 1), "b": (2, 1), "c": (3, 2), "d": (1, 1)}.items():
        dag.add_node(v, omega=omega, mu=mu)
    for u, v in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        dag.add_edge(u, v)
    return dag


MUTATIONS = {
    "add_node": lambda dag: dag.add_node("e", omega=0.5, mu=4.5),
    "re-add_node": lambda dag: dag.add_node("b", omega=2, mu=7.25),
    "add_edge": lambda dag: dag.add_edge("b", "c"),
    "remove_edge": lambda dag: dag.remove_edge("c", "d"),
    "set_omega": lambda dag: dag.set_omega("d", 0.125),
    "set_mu": lambda dag: dag.set_mu("d", 9.5),
}


class TestSnapshotMemo:
    def test_repeated_calls_share_one_snapshot(self):
        dag = diamond()
        snap = dag.snapshot()
        assert dag.snapshot() is snap
        assert snap == accessor_snapshot(dag)
        assert minimum_cache_size(dag) == snap.r0 == reference_r0(dag) == 4.0

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_mutator_rebuilds_it(self, mutation):
        dag = diamond()
        old = dag.snapshot()
        before = accessor_snapshot(dag)
        MUTATIONS[mutation](dag)
        new = dag.snapshot()
        assert new is not old
        assert new == accessor_snapshot(dag) != before
        assert minimum_cache_size(dag) == reference_r0(dag)
        # an old snapshot keeps the content it was taken with
        assert old == before

    def test_a_no_op_edge_change_keeps_it(self):
        dag = diamond()
        snap = dag.snapshot()
        dag.add_edge("a", "b")  # already there
        dag.remove_edge("d", "a")  # never there
        assert dag.snapshot() is snap

    def test_r0_follows_weight_changes_after_make_instance(self):
        dag = spmv(3, seed=1)
        instance = make_instance(dag, cache_factor=1.0)
        instance.require_feasible()
        target = next(v for v in dag.nodes if dag.parents(v))
        dag.set_mu(target, instance.cache_size + 1.0)
        assert instance.minimum_cache_size() == reference_r0(dag) > instance.cache_size
        with pytest.raises(InfeasibleInstanceError):
            instance.require_feasible()


@pytest.mark.parametrize("scheduler", ["bspg", "cilk", "etf"])
@pytest.mark.parametrize("policy", ["clairvoyant", "lru", "fifo", "largest_first", "random"])
def test_consumers_leave_the_shared_snapshot_untouched(scheduler, policy):
    dag = random_layered_dag(4, 4, edge_probability=0.5, seed=7)
    assign_random_memory_weights(dag, low=1, high=4, seed=7)
    dag.set_omega(dag.nodes[-1], 2.5)
    instance = make_instance(dag, num_processors=2)
    snap = dag.snapshot()
    result = run_two_stage(instance, scheduler=scheduler, policy=policy)
    validate_schedule(result.mbsp_schedule)
    schedule_cost(result.mbsp_schedule)
    schedule_cost(result.mbsp_schedule, synchronous=False)
    Refiner(RefineConfig(seed=1)).refine(result.mbsp_schedule, budget=200)
    assert dag.snapshot() is snap
    assert snap == accessor_snapshot(dag)
