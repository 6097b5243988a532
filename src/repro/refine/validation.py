"""Localized schedule revalidation for the refinement engine.

A refinement move edits a handful of supersteps; replaying the whole
schedule through the pebbling validator after every accepted move would cost
``O(schedule)`` even for a purely local change.  :class:`IncrementalValidator`
keeps a pebbling-state snapshot *before* every superstep, so checking a move
only requires:

1. cloning the snapshot before the first affected superstep,
2. replaying forward (via :func:`repro.model.validation.replay_superstep`,
   the exact kernel of the full validator — the rules enforced are
   identical), and
3. stopping early once the replay reaches an unedited superstep whose
   pebble configuration matches the recorded snapshot: from there on the
   old replay is guaranteed to repeat verbatim.

On success the snapshots are updated in place; on failure they are left
untouched, matching the editor's rollback of the schedule itself.  Every
snapshot shares the one :class:`~repro.dag.graph.DagSnapshot` of the DAG.

The snapshots also serve the move families' precondition screens
(:meth:`repro.refine.moves.Move.doomed`), which reject some doomed edits
from the recorded pebble sets without a replay.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import InvalidScheduleError
from repro.model.pebbling import PebblingState
from repro.model.schedule import MbspSchedule
from repro.model.validation import replay_superstep


class IncrementalValidator:
    """Snapshot-based revalidation of a schedule under local edits.

    Parameters
    ----------
    schedule:
        The (mutable) schedule being refined.  Construction replays it once
        and raises :class:`~repro.exceptions.InvalidScheduleError` if the
        input is not valid — refinement only ever starts from valid
        schedules.
    """

    def __init__(self, schedule: MbspSchedule) -> None:
        self.schedule = schedule
        instance = schedule.instance
        state = PebblingState(instance.dag, instance.num_processors, instance.cache_size)
        # snapshots[i] is the configuration *before* superstep i;
        # snapshots[num_supersteps] is the final configuration.
        self.snapshots: List[PebblingState] = [state.copy()]
        for s, step in enumerate(schedule.supersteps):
            replay_superstep(state, step, s)
            self.snapshots.append(state.copy())
        if state.missing_sinks():
            raise InvalidScheduleError(
                f"refinement input: sink nodes {state.missing_sinks()!r} never "
                f"saved to slow memory"
            )

    # ------------------------------------------------------------------
    def revalidate(
        self,
        first: Optional[int],
        last: Optional[int] = None,
        structural: bool = False,
    ) -> bool:
        """Check validity after an edit touching supersteps ``[first, last]``.

        Returns ``True`` and updates the snapshots when the edited schedule
        is valid; returns ``False`` (snapshots untouched) otherwise, in which
        case the caller must roll the edit back.  ``structural=True`` means
        supersteps were inserted/removed, which disables the matching-suffix
        early exit (step indices shifted).
        """
        steps = self.schedule.supersteps
        n = len(steps)
        if first is None:
            return True  # nothing was edited
        first = max(0, min(first, len(self.snapshots) - 1))
        state = self.snapshots[first].copy()
        new_snapshots: List[PebblingState] = []
        try:
            for s in range(first, n):
                if (
                    not structural
                    and last is not None
                    and s > last
                    and s < len(self.snapshots) - 1
                    and state.same_configuration(self.snapshots[s])
                ):
                    # unedited suffix with an identical entry configuration:
                    # the remaining replay repeats the recorded one verbatim
                    self.snapshots[first:s] = new_snapshots
                    return True
                new_snapshots.append(state.copy())
                replay_superstep(state, steps[s], s)
        except InvalidScheduleError:
            return False
        if state.missing_sinks():
            return False
        self.snapshots[first:] = new_snapshots + [state.copy()]
        return True
