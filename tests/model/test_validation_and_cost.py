"""Unit tests for schedule validation and the cost functions."""

import typing

import pytest

from repro.exceptions import InvalidScheduleError
from repro.model.cost import (
    asynchronous_cost,
    schedule_cost,
    synchronous_cost,
    synchronous_cost_breakdown,
)
from repro.model.instance import make_instance
from repro.model.pebbling import compute_op, delete_op
from repro.model.schedule import MbspSchedule
from repro.model.validation import (
    is_valid_schedule,
    replay_final_state,
    replay_superstep,
    validate_schedule,
)


@pytest.fixture
def diamond_instance(diamond_dag):
    return make_instance(diamond_dag, num_processors=2, cache_factor=2.0, g=1.0, L=10.0)


def sequential_schedule(instance):
    """Valid schedule: everything on processor 0, two supersteps."""
    schedule = MbspSchedule(instance)
    step0 = schedule.new_superstep()
    step0[0].load_phase.append("a")
    step1 = schedule.new_superstep()
    step1[0].compute_phase.extend([compute_op("b"), compute_op("c"), compute_op("d")])
    step1[0].save_phase.append("d")
    return schedule


def parallel_schedule(instance):
    """Valid schedule using both processors with a slow-memory exchange."""
    schedule = MbspSchedule(instance)
    step0 = schedule.new_superstep()
    step0[0].load_phase.append("a")
    step0[1].load_phase.append("a")
    step1 = schedule.new_superstep()
    step1[0].compute_phase.append(compute_op("b"))
    step1[0].save_phase.append("b")
    step1[1].compute_phase.append(compute_op("c"))
    step1[1].delete_phase.append("a")
    step1[1].load_phase.append("b")
    step2 = schedule.new_superstep()
    step2[1].compute_phase.append(compute_op("d"))
    step2[1].save_phase.append("d")
    return schedule


class TestValidation:
    @pytest.mark.parametrize(
        "function", [replay_superstep, validate_schedule, replay_final_state]
    )
    def test_type_hints_resolve(self, function):
        # every annotation names something the module imports
        assert typing.get_type_hints(function)

    def test_sequential_schedule_valid(self, diamond_instance):
        report = validate_schedule(sequential_schedule(diamond_instance))
        assert report.num_computes == 3
        assert report.num_loads == 1
        assert report.num_saves == 1
        assert report.recomputed_nodes == 0
        assert report.max_cache_used <= diamond_instance.cache_size

    def test_parallel_schedule_valid(self, diamond_instance):
        report = validate_schedule(parallel_schedule(diamond_instance))
        assert report.num_computes == 3
        assert report.num_loads == 3

    def test_missing_sink_save_rejected(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        schedule.supersteps[1][0].save_phase.clear()
        with pytest.raises(InvalidScheduleError, match="terminal"):
            validate_schedule(schedule)

    def test_compute_without_parents_rejected(self, diamond_instance):
        schedule = MbspSchedule(diamond_instance)
        step = schedule.new_superstep()
        step[0].compute_phase.append(compute_op("d"))
        with pytest.raises(InvalidScheduleError):
            validate_schedule(schedule)

    def test_load_without_blue_rejected(self, diamond_instance):
        schedule = MbspSchedule(diamond_instance)
        step = schedule.new_superstep()
        step[0].load_phase.append("b")
        with pytest.raises(InvalidScheduleError):
            validate_schedule(schedule)

    def test_same_superstep_save_then_load_is_valid(self, diamond_instance):
        # processor 0 saves b in the same superstep processor 1 loads it
        schedule = parallel_schedule(diamond_instance)
        assert is_valid_schedule(schedule)

    def test_load_before_same_superstep_save_of_other_processor(self, diamond_instance):
        # loading a value that is only saved in a *later* superstep must fail
        schedule = parallel_schedule(diamond_instance)
        # move processor 1's load of "b" one superstep earlier than the save
        schedule.supersteps[0][1].load_phase.append("b")
        assert not is_valid_schedule(schedule)

    def test_memory_bound_violation_rejected(self, diamond_dag):
        tight = make_instance(diamond_dag, num_processors=1, cache_size=2.0, g=1, L=0)
        schedule = MbspSchedule(tight)
        step0 = schedule.new_superstep()
        step0[0].load_phase.append("a")
        step1 = schedule.new_superstep()
        step1[0].compute_phase.extend([compute_op("b"), compute_op("c")])
        with pytest.raises(InvalidScheduleError, match="capacity"):
            validate_schedule(schedule)

    def test_require_all_computed_flag(self, diamond_dag):
        # a schedule that only computes what is needed for the sink c... here we
        # drop node b entirely, which only the strict mode rejects
        dag = diamond_dag.copy()
        dag.remove_edge("b", "d")
        instance = make_instance(dag, num_processors=1, cache_factor=3.0, g=1, L=0)
        schedule = MbspSchedule(instance)
        step0 = schedule.new_superstep()
        step0[0].load_phase.append("a")
        step1 = schedule.new_superstep()
        step1[0].compute_phase.extend([compute_op("c"), compute_op("d")])
        step1[0].save_phase.append("d")
        # node b is now a sink as well, so strict validation fails on terminal
        # configuration; relax by saving... instead check non-strict passes for
        # the modified dag where b is not computed
        with pytest.raises(InvalidScheduleError):
            validate_schedule(schedule, require_all_computed=True)

    def test_replay_final_state(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        state = replay_final_state(schedule)
        assert "d" in state.blue
        assert "d" in state.red[0]
        assert "d" not in state.red[1]

    def test_wrong_processor_count_rejected(self, diamond_dag):
        inst2 = make_instance(diamond_dag, num_processors=2, cache_factor=2.0)
        inst3 = make_instance(diamond_dag, num_processors=3, cache_factor=2.0)
        schedule = sequential_schedule(inst2)
        schedule.instance = inst3
        with pytest.raises(InvalidScheduleError):
            validate_schedule(schedule)


class TestSynchronousCost:
    def test_sequential_cost_breakdown(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        breakdown = synchronous_cost_breakdown(schedule)
        dag = diamond_instance.dag
        assert breakdown.compute == 6           # b + c + d
        assert breakdown.load == dag.mu("a")
        assert breakdown.save == dag.mu("d")
        assert breakdown.synchronization == 2 * diamond_instance.L
        assert breakdown.total == synchronous_cost(schedule)
        assert breakdown.io == breakdown.save + breakdown.load

    def test_parallel_cost_uses_per_phase_maxima(self, diamond_instance):
        schedule = parallel_schedule(diamond_instance)
        breakdown = synchronous_cost_breakdown(schedule)
        dag = diamond_instance.dag
        # superstep 1 compute max = max(omega(b), omega(c)) = 3
        assert breakdown.compute == 3 + dag.omega("d")
        assert breakdown.synchronization == 3 * diamond_instance.L

    def test_empty_supersteps_skipped(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        schedule.new_superstep()
        assert synchronous_cost(schedule) == synchronous_cost(
            schedule.drop_empty_supersteps()
        )

    def test_schedule_cost_dispatch(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        assert schedule_cost(schedule, synchronous=True) == synchronous_cost(schedule)
        assert schedule_cost(schedule, synchronous=False) == asynchronous_cost(schedule)


class TestAsynchronousCost:
    def test_sequential_async_cost(self, diamond_instance):
        schedule = sequential_schedule(diamond_instance)
        # p0: load a (1) + compute 6 + save d (1) = 8
        assert asynchronous_cost(schedule) == 8

    def test_parallel_async_waits_for_save(self, diamond_instance):
        schedule = parallel_schedule(diamond_instance)
        dag = diamond_instance.dag
        # p1: load a (1), compute c (3), load b — but b only becomes available
        # once p0 has finished load a (1) + compute b (2) + save b (1) = 4;
        # p1 is at 4 as well, so the load finishes at 5, then d (1) + save d (1)
        assert asynchronous_cost(schedule) == 7

    def test_async_not_larger_than_sync_when_L_zero(self, diamond_dag):
        instance = make_instance(diamond_dag, num_processors=2, cache_factor=2.0, g=1, L=0)
        schedule = parallel_schedule(instance)
        assert asynchronous_cost(schedule) <= synchronous_cost(schedule)
