"""Differential test: the synchronous cost against the accessor-based original.

``synchronous_cost_breakdown`` used to read every weight through the DAG's
validated accessors, three method calls per processor per superstep.  It now
reads the weights from the DAG's memoized snapshot and must sum them in the
same order, so that every component is bit-equal on fractional weights too.
The original is kept below, verbatim, as the reference.

Hypothesis draws DAGs with fractional weights and arbitrary (not necessarily
valid) schedules over them: empty supersteps and phases, DELETE operations in
compute phases, repeated nodes and, when asked, nodes the DAG does not have.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.two_stage import run_two_stage
from repro.dag.graph import ComputationalDag
from repro.exceptions import GraphError
from repro.model.cost import CostBreakdown, synchronous_cost_breakdown
from repro.model.instance import make_instance
from repro.model.pebbling import compute_op, delete_op
from repro.model.schedule import MbspSchedule, Superstep


def reference_synchronous_cost_breakdown(schedule: MbspSchedule, count_empty: bool = False) -> CostBreakdown:
    """Per-component synchronous cost of ``schedule``.

    Completely empty supersteps are skipped unless ``count_empty`` is set;
    well-formed schedules produced by this library never contain them.
    """
    instance = schedule.instance
    dag = instance.dag
    g, L = instance.g, instance.L
    comp_total = save_total = load_total = sync_total = 0.0
    for step in schedule.supersteps:
        if step.is_empty() and not count_empty:
            continue
        comp_total += max(ps.compute_cost(dag) for ps in step.processor_steps)
        save_total += max(ps.save_cost(dag, g) for ps in step.processor_steps)
        load_total += max(ps.load_cost(dag, g) for ps in step.processor_steps)
        sync_total += L
    return CostBreakdown(
        compute=comp_total, save=save_total, load=load_total, synchronization=sync_total
    )


fractions = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 2.5]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def fractional_dags(draw):
    n = draw(st.integers(1, 7))
    dag = ComputationalDag(name="frac")
    for v in range(n):
        dag.add_node(v, omega=draw(fractions), mu=draw(fractions))
    for v in range(1, n):
        for u in draw(st.lists(st.integers(0, v - 1), max_size=3, unique=True)):
            dag.add_edge(u, v)
    return dag


@st.composite
def schedules(draw, unknown: bool = False):
    """An arbitrary schedule over a fractional DAG (validity is not needed
    for its cost); with ``unknown``, one node id the DAG does not have."""
    dag = draw(fractional_dags())
    num_procs = draw(st.integers(1, 3))
    instance = make_instance(
        dag, num_processors=num_procs, g=draw(fractions), L=draw(fractions)
    )
    ids = st.sampled_from(dag.nodes + (["ghost"] if unknown else []))
    supersteps = []
    for _ in range(draw(st.integers(0, 4))):
        step = Superstep(num_procs)
        for ps in step.processor_steps:
            ps.compute_phase = [
                draw(st.sampled_from([compute_op, compute_op, delete_op]))(v)
                for v in draw(st.lists(ids, max_size=4))
            ]
            ps.save_phase = draw(st.lists(ids, max_size=3))
            ps.delete_phase = draw(st.lists(ids, max_size=2))
            ps.load_phase = draw(st.lists(ids, max_size=3))
        supersteps.append(step)
    return MbspSchedule(instance, supersteps)


def outcome(breakdown, schedule, count_empty):
    try:
        result = breakdown(schedule, count_empty=count_empty)
    except GraphError as exc:
        return ("GraphError", str(exc))
    return tuple(
        value.hex()
        for value in (result.compute, result.save, result.load, result.synchronization)
    )


@settings(max_examples=200, deadline=None)
@given(schedules(), st.booleans())
def test_bit_equal_to_the_reference(schedule, count_empty):
    assert outcome(synchronous_cost_breakdown, schedule, count_empty) == outcome(
        reference_synchronous_cost_breakdown, schedule, count_empty
    )


@settings(max_examples=150, deadline=None)
@given(schedules(unknown=True), st.booleans())
def test_unknown_nodes_raise_the_same_error(schedule, count_empty):
    assert outcome(synchronous_cost_breakdown, schedule, count_empty) == outcome(
        reference_synchronous_cost_breakdown, schedule, count_empty
    )


def test_an_unknown_computed_node_raises_graph_error():
    dag = ComputationalDag()
    dag.add_node("a", omega=0.5, mu=0.25)
    step = Superstep(1)
    step.processor_steps[0].compute_phase = [compute_op("ghost")]
    schedule = MbspSchedule(make_instance(dag, num_processors=1), [step])
    for breakdown in (synchronous_cost_breakdown, reference_synchronous_cost_breakdown):
        try:
            breakdown(schedule)
        except GraphError as exc:
            assert "ghost" in str(exc)
        else:  # pragma: no cover - the assertion message
            raise AssertionError(f"{breakdown.__name__} accepted an unknown node")


@settings(max_examples=60, deadline=None)
@given(fractional_dags(), st.sampled_from(["bspg", "cilk", "etf"]),
       st.sampled_from(["clairvoyant", "lru", "fifo"]))
def test_two_stage_schedules_cost_the_same(dag, scheduler, policy):
    instance = make_instance(dag, num_processors=2, g=0.3, L=1.7)
    schedule = run_two_stage(instance, scheduler=scheduler, policy=policy).mbsp_schedule
    for count_empty in (False, True):
        assert outcome(synchronous_cost_breakdown, schedule, count_empty) == outcome(
            reference_synchronous_cost_breakdown, schedule, count_empty
        )
