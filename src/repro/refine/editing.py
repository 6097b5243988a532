"""Incremental cost accounting and undoable editing of MBSP schedules.

The refinement engine examines thousands of candidate moves per schedule;
recomputing :func:`~repro.model.cost.schedule_cost` from scratch for every
candidate would dominate the runtime.  This module provides the two layers
that make move evaluation cheap:

* :class:`IncrementalCost` — mirrors the synchronous cost decomposition
  (per-superstep, per-processor compute/save/load sums plus the per-step
  ``L`` term for non-empty steps) and updates the total in ``O(P)`` per
  edited superstep instead of ``O(schedule)``;
* :class:`ScheduleEditor` — the only mutation path the move classes use.
  Every primitive edit updates the schedule *and* the cost state together,
  records an inverse closure for rollback, and tracks the affected superstep
  range so validity can be re-checked by a localized suffix replay
  (:class:`repro.refine.validation.IncrementalValidator`).

A move is therefore: ``editor.begin()`` — apply primitives — read
``editor.cost.total`` — and either ``commit()`` or ``rollback()``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.dag.graph import NodeId
from repro.model.pebbling import Operation, OpType
from repro.model.schedule import MbspSchedule, Superstep

#: Names of the three node-list phases a :class:`ScheduleEditor` can edit.
PHASES = ("save", "delete", "load")


class IncrementalCost:
    """Synchronous-cost state of a schedule, maintained under edits.

    The synchronous cost is ``sum_s [max_p comp(s,p) + max_p save(s,p) +
    max_p load(s,p) + L]`` over non-empty supersteps.  The per-cell sums
    and each superstep's operation count are kept explicitly; editing one
    cell refreshes only that superstep's contribution.  Construction reads
    the weights through the DAG's validated accessors (an unknown node
    raises :class:`~repro.exceptions.GraphError`); edits read them from
    ``snap``, a :class:`~repro.dag.graph.DagSnapshot` taken at construction.
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
        self.ops: List[int] = []
        self.contrib: List[float] = []
        self.total = 0.0
        #: the per-cell sums a node-list phase edits (a DELETE costs nothing)
        self.phase_cells = {"save": self.save, "delete": None, "load": self.load}
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
            sum(
                len(ps.compute_phase) + len(ps.save_phase)
                + len(ps.delete_phase) + len(ps.load_phase)
                for ps in step
            )
        )
        self.contrib.append(0.0)
        self._refresh(len(self.contrib) - 1)

    def _refresh(self, s: int) -> None:
        """Recompute superstep ``s``'s contribution after a cell change."""
        if self.ops[s]:
            new = max(self.comp[s]) + max(self.save[s]) + max(self.load[s]) + self.L
        else:
            new = 0.0  # completely empty supersteps do not count
        self.total += new - self.contrib[s]
        self.contrib[s] = new

    # ------------------------------------------------------------------
    def update_cell(
        self, s: int, p: int, cells: Optional[List[List[float]]], delta: float, d_ops: int
    ) -> None:
        """Add ``delta`` to cell ``(s, p)`` of one phase and refresh the step.

        ``cells`` is the edited phase's sums (:attr:`comp`, :attr:`save` or
        :attr:`load`), or None for a DELETE, which costs nothing; the other
        phases' cells are left as they are.  ``d_ops`` is the change in the
        superstep's operation count.
        """
        if cells is not None:
            cells[s][p] += delta
        self.ops[s] += d_ops
        self._refresh(s)

    def insert_step(self, s: int) -> None:
        """Insert an (empty, zero-contribution) superstep at index ``s``."""
        P = self.num_processors
        self.comp.insert(s, [0.0] * P)
        self.save.insert(s, [0.0] * P)
        self.load.insert(s, [0.0] * P)
        self.ops.insert(s, 0)
        self.contrib.insert(s, 0.0)

    def remove_step(self, s: int) -> None:
        """Remove superstep ``s`` (its contribution leaves the total)."""
        self.total -= self.contrib[s]
        del self.comp[s], self.save[s], self.load[s], self.ops[s], self.contrib[s]


class ScheduleEditor:
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
        self.cost = IncrementalCost(schedule)
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
        self.cost.update_cell(s, p, self.cost.comp, -self._compute_delta(op), -1)
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
        self.cost.update_cell(s, p, self.cost.comp, self._compute_delta(op), 1)

    def _raw_pop_compute(self, s: int, p: int, index: int) -> None:
        op = self.schedule.supersteps[s][p].compute_phase.pop(index)
        self.cost.update_cell(s, p, self.cost.comp, -self._compute_delta(op), -1)

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
        cost = self.cost
        cost.update_cell(s, p, cost.phase_cells[phase], -self._phase_delta(phase, node), -1)
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
        cost = self.cost
        cost.update_cell(s, p, cost.phase_cells[phase], self._phase_delta(phase, node), 1)

    def _raw_pop_phase(self, s: int, p: int, phase: str, index: int) -> None:
        node = self._phase_list(s, p, phase).pop(index)
        cost = self.cost
        cost.update_cell(s, p, cost.phase_cells[phase], -self._phase_delta(phase, node), -1)

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
