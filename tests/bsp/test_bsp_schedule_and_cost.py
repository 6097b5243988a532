"""Unit tests for the BSP schedule representation and BSP cost model."""

import pytest

from repro.bsp.cost import bsp_cost, bsp_cost_breakdown
from repro.bsp.schedule import BspSchedule
from repro.dag.graph import ComputationalDag
from repro.exceptions import ScheduleError


@pytest.fixture
def diamond_bsp(diamond_dag):
    schedule = BspSchedule(diamond_dag, num_processors=2)
    schedule.assign("b", 0, 0)
    schedule.assign("c", 1, 0)
    schedule.assign("d", 0, 1)
    return schedule


class TestBspSchedule:
    def test_basic_queries(self, diamond_bsp):
        assert diamond_bsp.processor_of("b") == 0
        assert diamond_bsp.superstep_of("d") == 1
        assert diamond_bsp.num_supersteps == 2
        assert diamond_bsp.is_assigned("c")
        assert not diamond_bsp.is_assigned("a")

    def test_cells_and_order(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 1)
        schedule.assign("b", 0, 0)
        schedule.assign("c", 0, 0)
        schedule.assign("d", 0, 1)
        assert schedule.cell(0, 0) == ["b", "c"]
        assert schedule.superstep_nodes(0) == ["b", "c"]
        lists = schedule.compute_lists()
        assert lists[1][0] == ["d"]

    def test_source_assignment_rejected(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 2)
        with pytest.raises(ScheduleError):
            schedule.assign("a", 0, 0)

    def test_unknown_node_and_bad_indices(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 2)
        with pytest.raises(ScheduleError):
            schedule.assign("zzz", 0, 0)
        with pytest.raises(ScheduleError):
            schedule.assign("b", 5, 0)
        with pytest.raises(ScheduleError):
            schedule.assign("b", 0, -1)

    def test_validate_detects_missing_nodes(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 2)
        schedule.assign("b", 0, 0)
        with pytest.raises(ScheduleError, match="not assigned"):
            schedule.validate()

    def test_validate_detects_precedence_violation(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 2)
        schedule.assign("b", 0, 1)
        schedule.assign("c", 1, 0)
        schedule.assign("d", 1, 0)   # d before b finishes on another processor
        assert not schedule.is_valid()

    def test_same_cell_order_dependency(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 1)
        schedule.assign("d", 0, 0)   # order 0
        schedule.assign("b", 0, 0)   # order 1 -> b after d violates b -> d
        schedule.assign("c", 0, 0)
        assert not schedule.is_valid()

    def test_valid_schedule_passes(self, diamond_bsp):
        diamond_bsp.validate()
        assert diamond_bsp.is_valid()

    def test_work_per_processor(self, diamond_bsp, diamond_dag):
        work = diamond_bsp.work_per_processor()
        assert work[0] == diamond_dag.omega("b") + diamond_dag.omega("d")
        assert work[1] == diamond_dag.omega("c")

    def test_default_order_after_a_node_leaves_the_cell(self):
        # s -> a, s -> b, s -> c, c -> d: moving b out of cell (0, 0) left
        # orders {a: 0, c: 2}; d must land after c, not share its order
        dag = ComputationalDag("move")
        for v in "sabcd":
            dag.add_node(v)
        for u, v in (("s", "a"), ("s", "b"), ("s", "c"), ("c", "d")):
            dag.add_edge(u, v)
        schedule = BspSchedule(dag, 2)
        for v in "abc":
            schedule.assign(v, 0, 0)
        schedule.assign("b", 1, 0)
        schedule.assign("d", 0, 0)
        assert schedule.assignment["d"].order == 3
        assert schedule.cell(0, 0) == ["a", "c", "d"]
        assert schedule.cell(1, 0) == ["b"]
        schedule.validate()

    def test_cell_order_ties_follow_first_assignment(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 1)
        schedule.assign("c", 0, 0, order=1)
        schedule.assign("b", 0, 0, order=1)
        schedule.assign("d", 0, 0, order=0)
        schedule.assign("c", 0, 0, order=1)   # a move keeps c's first position
        assert schedule.cell(0, 0) == ["d", "c", "b"]

    def test_compact_supersteps(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 1)
        schedule.assign("b", 0, 0)
        schedule.assign("c", 0, 0)
        schedule.assign("d", 0, 5)
        compacted = schedule.compact_supersteps()
        assert compacted.num_supersteps == 2
        assert compacted.superstep_of("d") == 1


class TestBspCost:
    def test_breakdown_components(self, diamond_bsp, diamond_dag):
        breakdown = bsp_cost_breakdown(diamond_bsp, g=1.0, L=10.0)
        # work: superstep 0 max(omega(b), omega(c)) = 3, superstep 1 omega(d) = 1
        assert breakdown.work == 4
        assert breakdown.synchronization == 20
        # c (mu=2) must travel from processor 1 to 0; the source a is needed
        # by both processors
        assert breakdown.communication > 0
        assert breakdown.total == bsp_cost(diamond_bsp, g=1.0, L=10.0)

    def test_zero_g_and_L(self, diamond_bsp):
        breakdown = bsp_cost_breakdown(diamond_bsp, g=0.0, L=0.0)
        assert breakdown.communication == 0
        assert breakdown.synchronization == 0
        assert breakdown.total == breakdown.work

    def test_single_processor_has_no_communication_between_nodes(self, diamond_dag):
        schedule = BspSchedule(diamond_dag, 1)
        for i, v in enumerate(["b", "c", "d"]):
            schedule.assign(v, 0, 0)
        breakdown = bsp_cost_breakdown(schedule, g=1.0, L=0.0)
        # only the source value a needs to be received
        assert breakdown.communication == diamond_dag.mu("a")
