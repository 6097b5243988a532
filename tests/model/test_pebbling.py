"""Unit tests for the pebbling transition rules.

The rules are applied by :func:`~repro.model.validation.replay_superstep`;
most cases here replay one operation as a superstep of its own, with the
operation in its natural phase (COMPUTE in the compute phase, SAVE, DELETE
and LOAD in theirs).
"""

import pytest

from repro.exceptions import InvalidScheduleError
from repro.model.pebbling import (
    Operation,
    OpType,
    PebblingState,
    compute_op,
    delete_op,
    load_op,
    save_op,
)
from repro.model.schedule import Superstep
from repro.model.validation import replay_superstep

PHASES = {OpType.SAVE: "save_phase", OpType.DELETE: "delete_phase", OpType.LOAD: "load_phase"}


def replay(state: PebblingState, proc: int, op: Operation) -> None:
    """Replay ``op`` on ``proc`` as a one-operation superstep."""
    step = Superstep(max(state.num_processors, proc + 1))
    if op.op_type is OpType.COMPUTE:
        step[proc].compute_phase.append(op)
    else:
        getattr(step[proc], PHASES[op.op_type]).append(op.node)
    replay_superstep(state, step)


class TestOperations:
    def test_costs(self, diamond_dag):
        g = 2.0
        assert compute_op("c").cost(diamond_dag, g) == 3
        assert load_op("c").cost(diamond_dag, g) == diamond_dag.mu("c") * g
        assert save_op("c").cost(diamond_dag, g) == diamond_dag.mu("c") * g
        assert delete_op("c").cost(diamond_dag, g) == 0

    def test_shorthand_constructors(self):
        assert compute_op("x").op_type is OpType.COMPUTE
        assert delete_op("x").op_type is OpType.DELETE
        assert save_op("x").op_type is OpType.SAVE
        assert load_op("x").op_type is OpType.LOAD


class TestPebblingState:
    def test_initial_configuration(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, cache_size=10)
        assert state.blue == {"a"}          # source in slow memory
        assert state.red == [set(), set()]
        assert state.red_usage == [0, 0]

    def test_load_requires_blue(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        replay(state, 0, load_op("a"))
        assert "a" in state.red[0]
        with pytest.raises(InvalidScheduleError, match="'b'.*no blue pebble"):
            replay(state, 0, load_op("b"))  # b has no blue pebble yet

    def test_compute_requires_parents_in_cache(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError, match=r"parents \['a'\] not in cache"):
            replay(state, 0, compute_op("b"))
        replay(state, 0, load_op("a"))
        replay(state, 0, compute_op("b"))
        assert "b" in state.red[0]

    def test_source_nodes_cannot_be_computed(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError, match="source nodes are never computed"):
            replay(state, 0, compute_op("a"))

    def test_save_requires_red(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError, match="SAVE.*no red pebble"):
            replay(state, 0, save_op("a"))
        replay(state, 0, load_op("a"))
        replay(state, 0, save_op("a"))
        assert "a" in state.blue

    def test_save_into_deferred_target(self, diamond_dag):
        # a SAVE's blue pebble appears only once every save of its
        # superstep succeeded, and is then visible to that step's loads
        state = PebblingState(diamond_dag, 2, 10)
        replay(state, 0, load_op("a"))
        replay(state, 0, compute_op("b"))
        step = Superstep(2)
        step[0].save_phase.extend(["b", "c"])
        with pytest.raises(InvalidScheduleError, match="SAVE.*'c'"):
            replay_superstep(state, step)
        assert "b" not in state.blue
        step = Superstep(2)
        step[0].save_phase.append("b")
        step[1].load_phase.append("b")
        replay_superstep(state, step)
        assert "b" in state.blue
        assert "b" in state.red[1]

    def test_delete_requires_red(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError, match="DELETE.*no red pebble"):
            replay(state, 0, delete_op("a"))
        replay(state, 0, load_op("a"))
        replay(state, 0, delete_op("a"))
        assert "a" not in state.red[0]
        assert state.red_usage[0] == 0

    def test_memory_bound_enforced(self, diamond_dag):
        # cache of size 1 can hold 'a' but computing 'b' exceeds it
        state = PebblingState(diamond_dag, 1, cache_size=1)
        replay(state, 0, load_op("a"))
        with pytest.raises(InvalidScheduleError, match="exceeds capacity"):
            replay(state, 0, compute_op("b"))

    def test_cache_accounting(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        replay(state, 0, load_op("a"))
        replay(state, 0, compute_op("c"))
        assert state.red_usage[0] == diamond_dag.mu("a") + diamond_dag.mu("c")

    def test_processor_isolation(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, 10)
        replay(state, 0, load_op("a"))
        assert "a" not in state.red[1]
        with pytest.raises(InvalidScheduleError, match="cache of processor 1"):
            replay(state, 1, compute_op("b"))

    def test_terminal_detection(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        assert not state.is_terminal()
        assert state.missing_sinks() == ["d"]
        replay(state, 0, load_op("a"))
        replay(state, 0, compute_op("b"))
        replay(state, 0, compute_op("c"))
        replay(state, 0, compute_op("d"))
        replay(state, 0, save_op("d"))
        assert state.is_terminal()
        assert state.missing_sinks() == []

    def test_apply_dispatch(self, diamond_dag):
        # every operation type reaches its rule, a DELETE in either phase
        state = PebblingState(diamond_dag, 1, 10)
        replay(state, 0, load_op("a"))
        step = Superstep(1)
        step[0].compute_phase.extend([compute_op("b"), delete_op("a")])
        step[0].save_phase.append("b")
        step[0].delete_phase.append("b")
        replay_superstep(state, step)
        assert "b" in state.blue
        assert state.red == [set()]
        assert state.red_usage == [0]

    def test_invalid_processor_index(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, 10)
        with pytest.raises(InvalidScheduleError, match="processor index 5 out of range"):
            replay(state, 5, load_op("a"))
