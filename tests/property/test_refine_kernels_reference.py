"""Differential test: the refine editor and neighbourhood against their originals.

``generate_moves`` used to build one frozen dataclass per candidate; it now
lists ``(move class, arguments)`` pairs, and the engine builds a move only
when it proposes it.  ``IncrementalCost`` used to add a delta to all three
phase cells of an edited cell and to test ``any`` over per-cell operation
counts; it now updates only the edited phase's cell and keeps one operation
count per superstep.  Neither may change a proposal or a float.  The
originals are kept below, verbatim apart from a ``Reference``/``reference_``
prefix on their names:

* ``IncrementalCost`` and ``ScheduleEditor``, whose primitives call the old
  ``update_cell`` with a delta per phase;
* ``generate_moves``.

Hypothesis draws the replay suite's layered DAGs with fractional memory
weights, so every running total depends on each addition.  The
neighbourhoods must be equal move for move, random edit sequences must
leave bit-equal totals, and refinement under either strategy and objective
must give the same ``RefineResult`` (trace floats by ``repr``) with the
original editor swapped in.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.dag.graph import NodeId
from repro.model.pebbling import Operation, OpType
from repro.model.schedule import MbspSchedule, Superstep
from repro.refine import RefineConfig, Refiner, engine
from repro.refine.editing import PHASES, ScheduleEditor
from repro.refine.moves import (
    MOVE_FAMILIES,
    MergeSupersteps,
    Move,
    MoveLoad,
    MoveSave,
    ReassignCompute,
    RecomputeInsteadOfLoad,
    RemoveLoad,
    RemoveSave,
    ReorderCompute,
    SplitSuperstep,
    generate_moves,
)

from test_replay_reference import (
    converted,
    fractional_dags,
    machines,
    refine_key,
    two_stages,
    with_redundant_saves,
)


# ----------------------------------------------------------------------
# the originals, frozen verbatim
# ----------------------------------------------------------------------
class ReferenceIncrementalCost:
    """Synchronous-cost state of a schedule, maintained under edits.

    The synchronous cost is ``sum_s [max_p comp(s,p) + max_p save(s,p) +
    max_p load(s,p) + L]`` over non-empty supersteps.  The per-cell sums are
    kept explicitly; editing one cell refreshes only that superstep's
    contribution.  Construction reads the weights through the DAG's
    validated accessors (an unknown node raises
    :class:`~repro.exceptions.GraphError`); edits read them from ``snap``,
    a :class:`~repro.dag.graph.DagSnapshot` taken at construction.
    """

    def __init__(self, schedule: MbspSchedule) -> None:
        instance = schedule.instance
        self.dag = instance.dag
        self.snap = self.dag.snapshot()
        self.g = instance.g
        self.L = instance.L
        self.num_processors = instance.num_processors
        self.comp: List[List[float]] = []
        self.save: List[List[float]] = []
        self.load: List[List[float]] = []
        self.ops: List[List[int]] = []
        self.contrib: List[float] = []
        self.total = 0.0
        for step in schedule.supersteps:
            self.append_step(step)

    # ------------------------------------------------------------------
    def append_step(self, step: Superstep) -> None:
        """Append the cost rows of ``step`` (used during construction)."""
        dag, g = self.dag, self.g
        self.comp.append(
            [sum(dag.omega(v) for v in ps.computed_nodes()) for ps in step]
        )
        self.save.append(
            [g * sum(dag.mu(v) for v in ps.save_phase) for ps in step]
        )
        self.load.append(
            [g * sum(dag.mu(v) for v in ps.load_phase) for ps in step]
        )
        self.ops.append(
            [
                len(ps.compute_phase) + len(ps.save_phase)
                + len(ps.delete_phase) + len(ps.load_phase)
                for ps in step
            ]
        )
        self.contrib.append(0.0)
        self._refresh(len(self.contrib) - 1)

    def _refresh(self, s: int) -> None:
        """Recompute superstep ``s``'s contribution after a cell change."""
        if any(self.ops[s]):
            new = max(self.comp[s]) + max(self.save[s]) + max(self.load[s]) + self.L
        else:
            new = 0.0  # completely empty supersteps do not count
        self.total += new - self.contrib[s]
        self.contrib[s] = new

    # ------------------------------------------------------------------
    def update_cell(
        self,
        s: int,
        p: int,
        d_comp: float = 0.0,
        d_save: float = 0.0,
        d_load: float = 0.0,
        d_ops: int = 0,
    ) -> None:
        """Apply a delta to cell ``(s, p)`` and refresh the step contribution."""
        self.comp[s][p] += d_comp
        self.save[s][p] += d_save
        self.load[s][p] += d_load
        self.ops[s][p] += d_ops
        self._refresh(s)

    def insert_step(self, s: int) -> None:
        """Insert an (empty, zero-contribution) superstep at index ``s``."""
        P = self.num_processors
        self.comp.insert(s, [0.0] * P)
        self.save.insert(s, [0.0] * P)
        self.load.insert(s, [0.0] * P)
        self.ops.insert(s, [0] * P)
        self.contrib.insert(s, 0.0)

    def remove_step(self, s: int) -> None:
        """Remove superstep ``s`` (its contribution leaves the total)."""
        self.total -= self.contrib[s]
        del self.comp[s], self.save[s], self.load[s], self.ops[s], self.contrib[s]

    # ------------------------------------------------------------------
    def recomputed_total(self, schedule: MbspSchedule) -> float:
        """Reference total rebuilt from scratch (tests compare it to ``total``)."""
        return ReferenceIncrementalCost(schedule).total


class ReferenceScheduleEditor:
    """Undoable primitive edits on a schedule, with cost kept in sync.

    All mutation during refinement goes through these primitives; each one
    pushes its inverse onto an undo stack, so a move that turns out to be
    non-improving or invalid is reverted exactly.  The editor also tracks the
    smallest superstep range affected by the pending move (``first_affected``
    / ``last_affected``) and whether the superstep *structure* changed
    (``structural``), which drives the localized revalidation.
    """

    def __init__(self, schedule: MbspSchedule) -> None:
        self.schedule = schedule
        self.cost = ReferenceIncrementalCost(schedule)
        self._undo: List[Callable[[], None]] = []
        self.first_affected: Optional[int] = None
        self.last_affected: Optional[int] = None
        self.structural = False

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start recording a new (tentative) move."""
        self._undo.clear()
        self.first_affected = None
        self.last_affected = None
        self.structural = False

    def commit(self) -> None:
        """Keep the pending move (drop its undo records)."""
        self._undo.clear()

    def rollback(self) -> None:
        """Revert every primitive of the pending move, newest first."""
        while self._undo:
            self._undo.pop()()

    def _touch(self, s: int) -> None:
        if self.first_affected is None or s < self.first_affected:
            self.first_affected = s
        if self.last_affected is None or s > self.last_affected:
            self.last_affected = s

    # ------------------------------------------------------------------
    # compute-phase primitives
    # ------------------------------------------------------------------
    def _compute_delta(self, op: Operation) -> float:
        return self.cost.snap.omega[op.node] if op.op_type is OpType.COMPUTE else 0.0

    def pop_compute_op(self, s: int, p: int, index: int) -> Operation:
        """Remove and return the ``index``-th compute-phase operation of ``(s, p)``."""
        op = self.schedule.supersteps[s][p].compute_phase.pop(index)
        self.cost.update_cell(s, p, d_comp=-self._compute_delta(op), d_ops=-1)
        self._touch(s)
        self._undo.append(lambda: self._raw_insert_compute(s, p, index, op))
        return op

    def insert_compute_op(self, s: int, p: int, index: int, op: Operation) -> None:
        """Insert ``op`` at ``index`` into the compute phase of ``(s, p)``."""
        self._raw_insert_compute(s, p, index, op)
        self._touch(s)
        self._undo.append(lambda: self._raw_pop_compute(s, p, index))

    def _raw_insert_compute(self, s: int, p: int, index: int, op: Operation) -> None:
        self.schedule.supersteps[s][p].compute_phase.insert(index, op)
        self.cost.update_cell(s, p, d_comp=self._compute_delta(op), d_ops=1)

    def _raw_pop_compute(self, s: int, p: int, index: int) -> None:
        op = self.schedule.supersteps[s][p].compute_phase.pop(index)
        self.cost.update_cell(s, p, d_comp=-self._compute_delta(op), d_ops=-1)

    # ------------------------------------------------------------------
    # save / delete / load phase primitives
    # ------------------------------------------------------------------
    def _phase_list(self, s: int, p: int, phase: str) -> List[NodeId]:
        ps = self.schedule.supersteps[s][p]
        if phase == "save":
            return ps.save_phase
        if phase == "delete":
            return ps.delete_phase
        if phase == "load":
            return ps.load_phase
        raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")

    def _phase_delta(self, phase: str, node: NodeId) -> float:
        return 0.0 if phase == "delete" else self.cost.g * self.cost.snap.mu[node]

    def remove_phase_node(self, s: int, p: int, phase: str, index: int) -> NodeId:
        """Remove and return the ``index``-th node of a save/delete/load phase."""
        node = self._phase_list(s, p, phase).pop(index)
        delta = self._phase_delta(phase, node)
        self.cost.update_cell(
            s, p,
            d_save=-delta if phase == "save" else 0.0,
            d_load=-delta if phase == "load" else 0.0,
            d_ops=-1,
        )
        self._touch(s)
        self._undo.append(lambda: self._raw_insert_phase(s, p, phase, index, node))
        return node

    def insert_phase_node(self, s: int, p: int, phase: str, index: int, node: NodeId) -> None:
        """Insert ``node`` at ``index`` into a save/delete/load phase."""
        self._raw_insert_phase(s, p, phase, index, node)
        self._touch(s)
        self._undo.append(lambda: self._raw_pop_phase(s, p, phase, index))

    def _raw_insert_phase(self, s: int, p: int, phase: str, index: int, node: NodeId) -> None:
        self._phase_list(s, p, phase).insert(index, node)
        delta = self._phase_delta(phase, node)
        self.cost.update_cell(
            s, p,
            d_save=delta if phase == "save" else 0.0,
            d_load=delta if phase == "load" else 0.0,
            d_ops=1,
        )

    def _raw_pop_phase(self, s: int, p: int, phase: str, index: int) -> None:
        node = self._phase_list(s, p, phase).pop(index)
        delta = self._phase_delta(phase, node)
        self.cost.update_cell(
            s, p,
            d_save=-delta if phase == "save" else 0.0,
            d_load=-delta if phase == "load" else 0.0,
            d_ops=-1,
        )

    # ------------------------------------------------------------------
    # structural primitives
    # ------------------------------------------------------------------
    def insert_empty_step(self, s: int) -> None:
        """Insert a fresh empty superstep at index ``s``."""
        step = Superstep(self.schedule.instance.num_processors)
        self.schedule.supersteps.insert(s, step)
        self.cost.insert_step(s)
        self.structural = True
        self._touch(s)
        self._undo.append(lambda: self._raw_remove_step(s))

    def remove_empty_step(self, s: int) -> None:
        """Remove superstep ``s``; it must be completely empty."""
        step = self.schedule.supersteps[s]
        if not step.is_empty():
            raise ValueError(f"superstep {s} is not empty")
        self._raw_remove_step(s)
        self.structural = True
        self._touch(max(0, s - 1))
        self._undo.append(lambda: self._raw_insert_step(s, step))

    def _raw_remove_step(self, s: int) -> None:
        del self.schedule.supersteps[s]
        self.cost.remove_step(s)

    def _raw_insert_step(self, s: int, step: Superstep) -> None:
        # only reachable as the undo of remove_empty_step, which guarantees
        # the step is empty — a zero cost row is therefore exact
        self.schedule.supersteps.insert(s, step)
        self.cost.insert_step(s)


def reference_generate_moves(
    schedule: MbspSchedule, families: Sequence[str] = MOVE_FAMILIES
) -> List[Move]:
    """All candidate moves of the enabled families for the current schedule.

    The list is generated in a deterministic structural order; the engine
    shuffles it with its seeded RNG.  Indices refer to the schedule *now* —
    after any accepted move the engine regenerates stale candidates lazily
    (every move re-checks its bounds in ``apply``).
    """
    enabled = set(families)
    unknown = enabled - set(MOVE_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown move families {sorted(unknown)!r}; available: {MOVE_FAMILIES}"
        )
    moves: List[Move] = []
    steps = schedule.supersteps
    P = schedule.instance.num_processors
    for s, step in enumerate(steps):
        if "merge" in enabled and s + 1 < len(steps):
            moves.append(MergeSupersteps(s))
        for p in range(P):
            ps = step[p]
            ncomp = len(ps.compute_phase)
            if "reassign" in enabled:
                for index, op in enumerate(ps.compute_phase):
                    if op.op_type is OpType.COMPUTE:
                        for q in range(P):
                            if q != p:
                                moves.append(ReassignCompute(s, p, q, index))
            if "split" in enabled and ncomp >= 2:
                moves.append(SplitSuperstep(s, p, ncomp // 2))
            if "reorder" in enabled:
                for index in range(ncomp - 1):
                    moves.append(ReorderCompute(s, p, index))
            if "load" in enabled:
                for index in range(len(ps.load_phase)):
                    moves.append(RemoveLoad(s, p, index))
                    for t in range(s):
                        moves.append(MoveLoad(s, p, index, t))
            if "save" in enabled:
                for index in range(len(ps.save_phase)):
                    moves.append(RemoveSave(s, p, index))
                    for t in range(len(steps)):
                        if t != s:
                            moves.append(MoveSave(s, p, index, t))
            if "recompute" in enabled:
                for index in range(len(ps.load_phase)):
                    moves.append(RecomputeInsteadOfLoad(s, p, index, "here"))
                    moves.append(RecomputeInsteadOfLoad(s, p, index, "next"))
    return moves


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
#: the hill climber's neighbourhood (it never proposes splits or reorders)
HILL_FAMILIES = tuple(f for f in MOVE_FAMILIES if f not in ("split", "reorder"))


def cost_state(editor) -> tuple:
    cost = editor.cost
    return repr(cost.total), [repr(c) for c in cost.contrib]


class TestNeighbourhoodMatchesReference:
    @given(fractional_dags(), machines, two_stages, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_same_moves_in_the_same_order(self, dag, machine, two_stage, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        refined = Refiner(RefineConfig(strategy="anneal", budget=200, seed=seed)).refine(
            schedule
        ).schedule
        for candidate in (schedule, refined):
            for families in (MOVE_FAMILIES, HILL_FAMILIES, ("save", "merge")):
                moves = [cls(*args) for cls, args in generate_moves(candidate, families)]
                assert moves == reference_generate_moves(candidate, families)


class TestEditorMatchesReference:
    @given(fractional_dags(), machines, two_stages, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_edit_sequences(self, dag, machine, two_stage, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        rng = random.Random(seed)
        editors = (ScheduleEditor(schedule.copy()), ReferenceScheduleEditor(schedule.copy()))
        assert cost_state(editors[0]) == cost_state(editors[1])
        candidates = generate_moves(schedule)
        for move_class, args in rng.sample(candidates, min(80, len(candidates))):
            keep = rng.random() < 0.5
            states = []
            for editor in editors:
                editor.begin()
                applied = move_class(*args).apply(editor)
                states.append((applied, cost_state(editor)))
                if applied and keep:
                    editor.commit()
                else:
                    editor.rollback()
                states.append(cost_state(editor))
            assert states[: len(states) // 2] == states[len(states) // 2:]

    @given(
        fractional_dags(),
        machines,
        two_stages,
        st.sampled_from(["hill", "anneal"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_refine_result(self, dag, machine, two_stage, strategy, synchronous, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        config = RefineConfig(strategy=strategy, budget=300, seed=seed)
        actual = Refiner(config).refine(schedule, synchronous=synchronous)
        with mock.patch.object(engine, "ScheduleEditor", ReferenceScheduleEditor):
            expected = Refiner(config).refine(schedule, synchronous=synchronous)
        assert refine_key(actual) == refine_key(expected)
