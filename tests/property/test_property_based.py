"""Property-based tests (hypothesis) for the core data structures and invariants.

These tests generate random DAGs and instances and check the library's
fundamental invariants:

* topological orders respect every edge and contain every node,
* the two-stage converter always produces schedules that pass the strict
  validator, for every eviction policy and cache factor >= 1,
* the asynchronous cost never exceeds the synchronous cost when ``L = 0``,
* schedule costs scale monotonically with the communication parameter ``g``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bsp.greedy import greedy_bsp_schedule
from repro.cache.conversion import two_stage_schedule
from repro.cache.policies import ClairvoyantPolicy, FifoPolicy, LruPolicy
from repro.dag.analysis import critical_path_length, minimum_cache_size, node_levels
from repro.dag.generators import random_layered_dag
from repro.dag.graph import ComputationalDag
from repro.model.cost import asynchronous_cost, synchronous_cost, synchronous_cost_breakdown
from repro.model.instance import make_instance
from repro.model.validation import validate_schedule

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def random_dags(draw, max_layers=4, max_width=4):
    """A random layered DAG with random weights (via the library generator)."""
    layers = draw(st.integers(min_value=2, max_value=max_layers))
    width = draw(st.integers(min_value=1, max_value=max_width))
    prob = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_layered_dag(layers, width, edge_probability=prob, seed=seed)


@st.composite
def weighted_instances(draw):
    """A feasible MBSP instance on a random DAG."""
    dag = draw(random_dags())
    procs = draw(st.integers(min_value=1, max_value=4))
    factor = draw(st.floats(min_value=1.0, max_value=4.0))
    g = draw(st.floats(min_value=0.0, max_value=3.0))
    L = draw(st.sampled_from([0.0, 1.0, 10.0]))
    return make_instance(dag, num_processors=procs, cache_factor=factor, g=g, L=L)


# ----------------------------------------------------------------------
# DAG invariants
# ----------------------------------------------------------------------
class TestDagProperties:
    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_is_complete_and_consistent(self, dag):
        order = dag.topological_order()
        assert len(order) == dag.num_nodes
        position = {v: i for i, v in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_levels_increase_along_edges(self, dag):
        levels = node_levels(dag)
        for u, v in dag.edges():
            assert levels[u] < levels[v]

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_minimum_cache_size_dominates_single_nodes(self, dag):
        r0 = minimum_cache_size(dag)
        assert r0 >= max(dag.mu(v) for v in dag.nodes)

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_bounded_by_total_work(self, dag):
        assert critical_path_length(dag) <= dag.total_work() + 1e-9

    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_subgraph_of_all_nodes_is_identity(self, dag):
        clone = dag.induced_subgraph(dag.nodes)
        assert set(clone.edges()) == set(dag.edges())
        assert clone.total_memory() == dag.total_memory()


# ----------------------------------------------------------------------
# two-stage conversion invariants
# ----------------------------------------------------------------------
class TestConversionProperties:
    @given(weighted_instances(), st.sampled_from(["clairvoyant", "lru", "fifo"]))
    @settings(max_examples=25, deadline=None)
    def test_two_stage_schedules_are_always_valid(self, instance, policy_name):
        policy = {"clairvoyant": ClairvoyantPolicy, "lru": LruPolicy, "fifo": FifoPolicy}[policy_name]()
        bsp = greedy_bsp_schedule(instance.dag, instance.num_processors)
        schedule = two_stage_schedule(bsp, instance, policy)
        report = validate_schedule(schedule)
        assert report.max_cache_used <= instance.cache_size + 1e-9

    @given(weighted_instances())
    @settings(max_examples=20, deadline=None)
    def test_async_cost_at_most_sync_cost_without_latency(self, instance):
        instance = instance.with_architecture(instance.architecture.with_bsp_parameters(L=0.0))
        bsp = greedy_bsp_schedule(instance.dag, instance.num_processors)
        schedule = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
        assert asynchronous_cost(schedule) <= synchronous_cost(schedule) + 1e-6

    @given(weighted_instances())
    @settings(max_examples=20, deadline=None)
    def test_cost_breakdown_adds_up(self, instance):
        bsp = greedy_bsp_schedule(instance.dag, instance.num_processors)
        schedule = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
        breakdown = synchronous_cost_breakdown(schedule)
        assert breakdown.total == pytest.approx(synchronous_cost(schedule))
        assert breakdown.compute >= 0 and breakdown.io >= 0

    @given(random_dags(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_io_volume_decreases_with_bigger_cache(self, dag, procs):
        bsp = greedy_bsp_schedule(dag, procs)
        small = make_instance(dag, num_processors=procs, cache_factor=1.0, g=1, L=0)
        large = make_instance(dag, num_processors=procs, cache_factor=20.0, g=1, L=0)
        schedule_small = two_stage_schedule(bsp, small, ClairvoyantPolicy())
        schedule_large = two_stage_schedule(bsp, large, ClairvoyantPolicy())
        assert schedule_large.total_io_volume() <= schedule_small.total_io_volume() + 1e-9

    @given(random_dags(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_every_node_computed_exactly_once_by_baseline(self, dag, procs):
        instance = make_instance(dag, num_processors=procs, cache_factor=2.0, g=1, L=5)
        bsp = greedy_bsp_schedule(dag, procs)
        schedule = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
        computable = {v for v in dag.nodes if not dag.is_source(v)}
        assignment = schedule.compute_assignment()
        assert set(assignment) == computable
        assert all(len(events) == 1 for events in assignment.values())
