"""Unit tests of the refinement moves' precondition screens (``Move.doomed``).

Each case applies one move to a small hand-made schedule and compares the
screen's verdict with the replay's: a screen may only reject what the
replay rejects, and the cases where it must *not* reject are the
allowances each screen's docstring argues.
"""

from repro.dag.graph import ComputationalDag
from repro.model.instance import make_instance
from repro.model.pebbling import compute_op
from repro.model.schedule import MbspSchedule
from repro.model.validation import validate_schedule
from repro.refine.editing import ScheduleEditor
from repro.refine.moves import MoveLoad, MoveSave, ReassignCompute
from repro.refine.validation import IncrementalValidator


def _dag(nodes, edges):
    dag = ComputationalDag(name="screens")
    for v, mu in nodes:
        dag.add_node(v, omega=1, mu=mu)
    for u, v in edges:
        dag.add_edge(u, v)
    return dag


def _schedule(dag, cache_size, steps, processors=2):
    """A schedule from ``{s: {p: {"compute": [...], "save": [...], ...}}}``."""
    schedule = MbspSchedule(
        make_instance(dag, num_processors=processors, cache_size=cache_size, g=1.0, L=10.0)
    )
    for cells in steps:
        step = schedule.new_superstep()
        for p, phases in cells.items():
            step[p].compute_phase.extend(compute_op(v) for v in phases.get("compute", ()))
            for phase in ("save", "delete", "load"):
                getattr(step[p], f"{phase}_phase").extend(phases.get(phase, ()))
    validate_schedule(schedule)
    return schedule


def _verdicts(schedule, move):
    """``(screen rejects, replay accepts)`` for ``move`` applied to a copy."""
    work = schedule.copy()
    editor = ScheduleEditor(work)
    validator = IncrementalValidator(work)
    editor.begin()
    assert move.apply(editor)
    doomed = move.doomed(work, validator)
    valid = validator.revalidate(editor.first_affected, editor.last_affected, editor.structural)
    return doomed, valid


def _exchange(cache_size, extra_save=False, p0_evicts=False):
    """``a -> b -> c`` and ``a -> x``: p0 makes ``b``, p1 loads it for ``c``."""
    dag = _dag([("a", 1.0), ("b", 1.0), ("c", 1.0), ("x", 1.0)],
               [("a", "b"), ("b", "c"), ("a", "x")])
    step2_p0 = {"save": ["b"]} if extra_save else {}
    if p0_evicts:
        step2_p0["delete"] = ["a", "b"]
    return _schedule(dag, cache_size, [
        {0: {"load": ["a"]}, 1: {"load": ["a"]}},
        {0: {"compute": ["b"], "save": ["b"]}, 1: {"compute": ["x"], "save": ["x"]}},
        {0: step2_p0, 1: {"delete": ["a", "x"], "load": ["b"]}},
        {1: {"compute": ["c"], "save": ["c"]}},
    ])


class TestLoadScreen:
    def test_load_before_the_value_is_saved(self):
        assert _verdicts(_exchange(3.0), MoveLoad(2, 1, 0, 0)) == (True, False)

    def test_load_right_after_the_save(self):
        # snapshots[t + 1], not snapshots[t]: b is saved in t = 1 itself
        assert _verdicts(_exchange(3.0), MoveLoad(2, 1, 0, 1)) == (False, True)


class TestSaveScreen:
    def test_save_moved_before_the_value_exists(self):
        assert _verdicts(_exchange(3.0), MoveSave(1, 1, 0, 0)) == (True, False)

    def test_save_moved_earlier_into_the_computing_superstep(self):
        dag = _dag([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b"), ("b", "c")])
        schedule = _schedule(dag, 3.0, [
            {0: {"load": ["a"]}},
            {0: {"compute": ["b"]}},
            {0: {"save": ["b"]}},
            {1: {"load": ["b"]}},
            {1: {"compute": ["c"], "save": ["c"]}},
        ])
        # b is not red before superstep 1 but is computed in (1, 0)
        assert _verdicts(schedule, MoveSave(2, 0, 0, 1)) == (False, True)

    def test_save_moved_past_a_load_of_the_value(self):
        assert _verdicts(_exchange(3.0), MoveSave(1, 0, 0, 3)) == (True, False)

    def test_save_moved_onto_the_loading_superstep(self):
        # saves come before loads within one superstep
        assert _verdicts(_exchange(3.0), MoveSave(1, 0, 0, 2)) == (False, True)

    def test_another_save_before_the_load(self):
        schedule = _exchange(3.0, extra_save=True)
        assert _verdicts(schedule, MoveSave(1, 0, 0, 3)) == (False, True)


class TestReassignScreen:
    def test_parent_missing_on_the_target(self):
        # p0 evicted a and b in superstep 2: c cannot move there
        schedule = _exchange(3.0, p0_evicts=True)
        assert _verdicts(schedule, ReassignCompute(3, 1, 0, 0)) == (True, False)

    def test_parent_computed_earlier_on_the_target(self):
        dag = _dag([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b"), ("b", "c")])
        schedule = _schedule(dag, 3.0, [
            {0: {"load": ["a"]}, 1: {"load": ["a"]}},
            {0: {"compute": ["b"]}, 1: {"compute": ["b", "c"], "save": ["c"]}},
        ])
        # b is not red on p0 before superstep 1, but p0 computes it there
        assert _verdicts(schedule, ReassignCompute(1, 1, 0, 1)) == (False, True)
