"""The refinement move neighborhood.

Every move is a small, undoable schedule edit expressed through the
primitives of :class:`~repro.refine.editing.ScheduleEditor`.  Moves are
*optimistic*: ``apply`` performs cheap structural checks only (index bounds,
trivially-doomed patterns) and the engine gates acceptance on the incremental
cost delta first and on a localized pebbling revalidation second — a move
that would break a model rule is simply rolled back.

Before that revalidation, the ``load``, ``save`` and ``reassign`` families
screen the applied edit with :meth:`Move.doomed`: a precondition read from
the validator's recorded pebble configurations, each argued in its
docstring.  A screen is a necessary condition only.  It rejects just
edits that the replay would also reject, and a rejected edit counts as
invalid exactly like a replay failure; the replay still decides every
acceptance.

Move families (selectable through ``RefineConfig.moves``):

``merge``
    Fold superstep ``s+1`` into ``s`` (phase-wise concatenation), saving one
    ``L`` plus any overlap of the per-processor maxima.
``reassign``
    Move one COMPUTE operation (and its creation save / in-step delete) to
    another processor of the same superstep, balancing the compute maxima.
``split``
    Move the tail of one processor's compute phase into a freshly inserted
    superstep — always a cost increase (``+L``), useful only as a simulated
    -annealing escape move (the hill-climbing engine skips the family).
``reorder``
    Adjacent transposition inside one compute phase; cost-neutral
    diversification that can unlock merges under simulated annealing (the
    hill-climbing engine, which only accepts strict improvements, skips it).
``load``
    Relocate a LOAD to an earlier superstep (balancing the load maxima and
    emptying load-only steps), or drop a redundant LOAD entirely.
``save``
    Relocate a SAVE to a different superstep, or drop a save that nothing
    ever reads back (the validator keeps sink/terminal saves alive).
``recompute``
    Replace a LOAD with a COMPUTE of the same node (recomputation), trading
    ``g * mu(v)`` of I/O against ``omega(v)`` of work — the classic trick the
    paper's holistic ILP discovers, here available to local search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Type

from repro.model.pebbling import OpType, compute_op
from repro.model.schedule import MbspSchedule
from repro.refine.editing import ScheduleEditor
from repro.refine.validation import IncrementalValidator

#: All known move family names (the default configuration enables them all).
MOVE_FAMILIES = ("merge", "reassign", "split", "reorder", "load", "save", "recompute")


@dataclass(frozen=True)
class Move:
    """Base class: one candidate edit of the schedule."""

    name = "move"

    def apply(self, editor: ScheduleEditor) -> bool:
        """Perform the edit; return False when structurally inapplicable.

        May leave partial edits behind when returning False — the engine
        always wraps ``apply`` in ``begin``/``rollback``.
        """
        raise NotImplementedError

    def doomed(self, schedule: MbspSchedule, validator: IncrementalValidator) -> bool:
        """Whether the applied edit is certain to fail revalidation.

        Called after a successful ``apply``, on the edited ``schedule``,
        while ``validator``'s snapshots still describe the schedule before
        the edit.  True only when :meth:`IncrementalValidator.revalidate`
        and a full :func:`~repro.model.validation.validate_schedule` of the
        edited schedule would both fail; the base class screens nothing.
        """
        return False

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class MergeSupersteps(Move):
    """Fold superstep ``s + 1`` into superstep ``s``."""

    s: int

    name = "merge"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s = self.s
        if not 0 <= s < len(steps) - 1:
            return False
        src, dst = steps[s + 1], steps[s]
        for p in range(dst.num_processors):
            # a processor that loads in ``s`` and computes in ``s + 1`` would
            # end up computing *before* those loads in the merged step; that
            # is almost never valid, so skip the doomed validation replay
            if dst[p].load_phase and src[p].compute_phase:
                return False
        for p in range(dst.num_processors):
            while src[p].compute_phase:
                op = editor.pop_compute_op(s + 1, p, 0)
                editor.insert_compute_op(s, p, len(dst[p].compute_phase), op)
            for phase in ("save", "delete", "load"):
                while editor._phase_list(s + 1, p, phase):
                    node = editor.remove_phase_node(s + 1, p, phase, 0)
                    editor.insert_phase_node(
                        s, p, phase, len(editor._phase_list(s, p, phase)), node
                    )
        editor.remove_empty_step(s + 1)
        return True


@dataclass(frozen=True)
class ReassignCompute(Move):
    """Move the ``index``-th compute op of ``(s, p)`` to processor ``q``."""

    s: int
    p: int
    q: int
    index: int

    name = "reassign"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p, q = self.s, self.p, self.q
        if not 0 <= s < len(steps) or p == q:
            return False
        ps = steps[s][p]
        if not 0 <= self.index < len(ps.compute_phase):
            return False
        op = ps.compute_phase[self.index]
        if op.op_type is not OpType.COMPUTE:
            return False
        node = op.node
        editor.pop_compute_op(s, p, self.index)
        editor.insert_compute_op(s, q, len(steps[s][q].compute_phase), op)
        # the creation save and any same-step eviction follow the value
        if node in steps[s][p].save_phase:
            idx = steps[s][p].save_phase.index(node)
            editor.remove_phase_node(s, p, "save", idx)
            editor.insert_phase_node(s, q, "save", len(steps[s][q].save_phase), node)
        if node in steps[s][p].delete_phase:
            idx = steps[s][p].delete_phase.index(node)
            editor.remove_phase_node(s, p, "delete", idx)
            editor.insert_phase_node(s, q, "delete", len(steps[s][q].delete_phase), node)
        return True

    def doomed(self, schedule: MbspSchedule, validator: IncrementalValidator) -> bool:
        """A parent of the node is neither red on ``q`` nor computed in ``(s, q)``.

        The edit leaves the supersteps before ``s`` alone, so the replay
        enters ``s`` in the recorded configuration ``snapshots[s]``.  The
        moved COMPUTE runs last in ``q``'s compute phase, and a compute
        phase only adds the nodes it computes to ``q``'s red pebbles, so
        every parent must be red on ``q`` before ``s`` or computed earlier
        in ``(s, q)``; otherwise the COMPUTE fails (or the replay fails
        before it).
        """
        before = validator.snapshots[self.s]
        compute_phase = schedule.supersteps[self.s][self.q].compute_phase
        red = before.red[self.q]
        parents = before.snap.parents[compute_phase[-1].node]
        if red.issuperset(parents):
            return False
        computed = {op.node for op in compute_phase if op.op_type is OpType.COMPUTE}
        return any(u not in red and u not in computed for u in parents)


@dataclass(frozen=True)
class SplitSuperstep(Move):
    """Move ``(s, p)``'s compute tail (from ``k``) into a new next superstep."""

    s: int
    p: int
    k: int

    name = "split"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p, k = self.s, self.p, self.k
        if not 0 <= s < len(steps):
            return False
        ps = steps[s][p]
        if not 0 < k < len(ps.compute_phase):
            return False
        editor.insert_empty_step(s + 1)
        moved_nodes = []
        while len(steps[s][p].compute_phase) > k:
            op = editor.pop_compute_op(s, p, k)
            editor.insert_compute_op(
                s + 1, p, len(steps[s + 1][p].compute_phase), op
            )
            if op.op_type is OpType.COMPUTE:
                moved_nodes.append(op.node)
        # creation saves of the moved tail move with their compute ops
        for node in moved_nodes:
            if node in steps[s][p].save_phase:
                idx = steps[s][p].save_phase.index(node)
                editor.remove_phase_node(s, p, "save", idx)
                editor.insert_phase_node(
                    s + 1, p, "save", len(steps[s + 1][p].save_phase), node
                )
        return True


@dataclass(frozen=True)
class ReorderCompute(Move):
    """Swap adjacent compute-phase operations ``index`` and ``index + 1``."""

    s: int
    p: int
    index: int

    name = "reorder"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p = self.s, self.p
        if not 0 <= s < len(steps):
            return False
        ps = steps[s][p]
        if not 0 <= self.index < len(ps.compute_phase) - 1:
            return False
        op = editor.pop_compute_op(s, p, self.index)
        editor.insert_compute_op(s, p, self.index + 1, op)
        return True


@dataclass(frozen=True)
class MoveLoad(Move):
    """Relocate the ``index``-th LOAD of ``(s, p)`` to superstep ``t < s``."""

    s: int
    p: int
    index: int
    t: int

    name = "load"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p, t = self.s, self.p, self.t
        if not (0 <= t < s < len(steps)):
            return False
        ps = steps[s][p]
        if not 0 <= self.index < len(ps.load_phase):
            return False
        node = editor.remove_phase_node(s, p, "load", self.index)
        editor.insert_phase_node(t, p, "load", len(steps[t][p].load_phase), node)
        return True

    def doomed(self, schedule: MbspSchedule, validator: IncrementalValidator) -> bool:
        """The value has no blue pebble after superstep ``t``.

        The edit leaves the supersteps before ``t`` alone and superstep
        ``t`` as it was except for the LOAD appended to ``p``'s load phase.
        The replay therefore reaches that LOAD with the blue pebbles of
        ``snapshots[t + 1]``, the configuration after ``t``: blue pebbles
        change only at the end of a save phase, and loads and deletes come
        after it.  Without a blue pebble there, the LOAD fails.
        """
        node = schedule.supersteps[self.t][self.p].load_phase[-1]
        return node not in validator.snapshots[self.t + 1].blue


@dataclass(frozen=True)
class RemoveLoad(Move):
    """Drop the ``index``-th LOAD of ``(s, p)`` (redundant loads only survive)."""

    s: int
    p: int
    index: int

    name = "load"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        if not 0 <= self.s < len(steps):
            return False
        if not 0 <= self.index < len(steps[self.s][self.p].load_phase):
            return False
        editor.remove_phase_node(self.s, self.p, "load", self.index)
        return True


@dataclass(frozen=True)
class MoveSave(Move):
    """Relocate the ``index``-th SAVE of ``(s, p)`` to superstep ``t``."""

    s: int
    p: int
    index: int
    t: int

    name = "save"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p, t = self.s, self.p, self.t
        if t == s or not (0 <= s < len(steps) and 0 <= t < len(steps)):
            return False
        ps = steps[s][p]
        if not 0 <= self.index < len(ps.save_phase):
            return False
        node = editor.remove_phase_node(s, p, "save", self.index)
        editor.insert_phase_node(t, p, "save", len(steps[t][p].save_phase), node)
        return True

    def doomed(self, schedule: MbspSchedule, validator: IncrementalValidator) -> bool:
        """Earlier: the value is not red on ``p`` at ``t``.  Later: a LOAD of
        it between ``s`` and ``t`` loses its blue pebble.

        *Earlier* (``t < s``): the replay enters ``t`` in ``snapshots[t]``
        and reaches the SAVE after ``p``'s compute phase, which only adds
        the nodes it computes to ``p``'s red pebbles.  Unless the value is
        red in ``snapshots[t]`` or computed in ``(t, p)``, the SAVE fails.

        *Later* (``t > s``): the replay enters ``s`` in ``snapshots[s]``,
        and blue pebbles are only ever added, by SAVEs, visible to the
        loads of their own superstep.  If the value is not blue in
        ``snapshots[s]``, walk the supersteps ``s, ..., t - 1`` of the
        edited schedule: one that saves it again ends the walk (the value
        is blue from there on), and one that loads it first fails that
        LOAD.  The replay cannot stop early before ``t``, the last edited
        superstep.
        """
        steps = schedule.supersteps
        s, p, t = self.s, self.p, self.t
        node = steps[t][p].save_phase[-1]
        if t < s:
            return node not in validator.snapshots[t].red[p] and not any(
                op.node == node and op.op_type is OpType.COMPUTE
                for op in steps[t][p].compute_phase
            )
        if node in validator.snapshots[s].blue:
            return False
        for u in range(s, t):
            processor_steps = steps[u].processor_steps
            if any(node in ps.save_phase for ps in processor_steps):
                return False
            if any(node in ps.load_phase for ps in processor_steps):
                return True
        return False


@dataclass(frozen=True)
class RemoveSave(Move):
    """Drop the ``index``-th SAVE of ``(s, p)`` (dead writes only survive)."""

    s: int
    p: int
    index: int

    name = "save"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        if not 0 <= self.s < len(steps):
            return False
        if not 0 <= self.index < len(steps[self.s][self.p].save_phase):
            return False
        editor.remove_phase_node(self.s, self.p, "save", self.index)
        return True


@dataclass(frozen=True)
class RecomputeInsteadOfLoad(Move):
    """Replace the ``index``-th LOAD of ``(s, p)`` with a COMPUTE of the node.

    ``where`` selects the insertion point: ``"here"`` appends the compute to
    the *same* superstep's compute phase (the value becomes available even
    earlier than the load made it), ``"next"`` prepends it to the following
    superstep's compute phase (the position the load was feeding).
    """

    s: int
    p: int
    index: int
    where: str = "here"

    name = "recompute"

    def apply(self, editor: ScheduleEditor) -> bool:
        steps = editor.schedule.supersteps
        s, p = self.s, self.p
        if not 0 <= s < len(steps):
            return False
        ps = steps[s][p]
        if not 0 <= self.index < len(ps.load_phase):
            return False
        node = ps.load_phase[self.index]
        if editor.cost.dag.is_source(node):
            return False  # source nodes are never computed
        editor.remove_phase_node(s, p, "load", self.index)
        if self.where == "here":
            editor.insert_compute_op(
                s, p, len(steps[s][p].compute_phase), compute_op(node)
            )
        else:
            if s + 1 >= len(steps):
                return False
            editor.insert_compute_op(s + 1, p, 0, compute_op(node))
        return True


# ----------------------------------------------------------------------
# neighborhood generation
# ----------------------------------------------------------------------
def generate_moves(
    schedule: MbspSchedule, families: Sequence[str] = MOVE_FAMILIES
) -> List[Tuple[Type[Move], tuple]]:
    """All candidate moves of the enabled families for the current schedule.

    Each candidate is a ``(move class, arguments)`` pair; ``cls(*args)``
    is the move.  The engine shuffles the list with its seeded RNG and
    builds only the moves it proposes.  The list is generated in a
    deterministic structural order.  Indices refer to the schedule *now*;
    after any accepted move the engine regenerates stale candidates lazily
    (every move re-checks its bounds in ``apply``).
    """
    enabled = set(families)
    unknown = enabled - set(MOVE_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown move families {sorted(unknown)!r}; available: {MOVE_FAMILIES}"
        )
    moves: List[Tuple[Type[Move], tuple]] = []
    steps = schedule.supersteps
    P = schedule.instance.num_processors
    for s, step in enumerate(steps):
        if "merge" in enabled and s + 1 < len(steps):
            moves.append((MergeSupersteps, (s,)))
        for p in range(P):
            ps = step[p]
            ncomp = len(ps.compute_phase)
            if "reassign" in enabled:
                for index, op in enumerate(ps.compute_phase):
                    if op.op_type is OpType.COMPUTE:
                        for q in range(P):
                            if q != p:
                                moves.append((ReassignCompute, (s, p, q, index)))
            if "split" in enabled and ncomp >= 2:
                moves.append((SplitSuperstep, (s, p, ncomp // 2)))
            if "reorder" in enabled:
                for index in range(ncomp - 1):
                    moves.append((ReorderCompute, (s, p, index)))
            if "load" in enabled:
                for index in range(len(ps.load_phase)):
                    moves.append((RemoveLoad, (s, p, index)))
                    for t in range(s):
                        moves.append((MoveLoad, (s, p, index, t)))
            if "save" in enabled:
                for index in range(len(ps.save_phase)):
                    moves.append((RemoveSave, (s, p, index)))
                    for t in range(len(steps)):
                        if t != s:
                            moves.append((MoveSave, (s, p, index, t)))
            if "recompute" in enabled:
                for index in range(len(ps.load_phase)):
                    moves.append((RecomputeInsteadOfLoad, (s, p, index, "here")))
                    moves.append((RecomputeInsteadOfLoad, (s, p, index, "next")))
    return moves
