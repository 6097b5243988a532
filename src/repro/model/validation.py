"""Validation of MBSP schedules.

The validator replays a schedule superstep by superstep with
:func:`replay_superstep` and enforces every rule of the model definition
(Section 3 and Appendix A):

* every operation's precondition (parents in cache, blue pebble present, ...),
* the per-processor memory bound after every cache insertion,
* the superstep semantics (slow memory is only updated at the end of each
  save phase and queried in the load phase),
* the initial configuration (only sources in slow memory, empty caches) and
  the terminal configuration (all sinks in slow memory).

:func:`replay_superstep` is the one implementation of the transition rules
of :mod:`repro.model.pebbling`: a single kernel that applies a whole
superstep to a :class:`~repro.model.pebbling.PebblingState`, reading
parents and memory weights from the state's
:class:`~repro.dag.graph.DagSnapshot` instead of the DAG's validated
per-node accessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.dag.graph import NodeId
from repro.exceptions import GraphError, InvalidScheduleError
from repro.model.pebbling import OpType, PebblingState
from repro.model.schedule import MbspSchedule, Superstep


@dataclass
class ValidationReport:
    """Summary statistics gathered while replaying a valid schedule."""

    num_supersteps: int = 0
    num_computes: int = 0
    num_loads: int = 0
    num_saves: int = 0
    num_deletes: int = 0
    recomputed_nodes: int = 0
    max_cache_used: float = 0.0
    computed_nodes: Set[NodeId] = field(default_factory=set)
    #: per-node compute event counts (recomputation diagnostics)
    compute_events: Dict[NodeId, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_supersteps": self.num_supersteps,
            "num_computes": self.num_computes,
            "num_loads": self.num_loads,
            "num_saves": self.num_saves,
            "num_deletes": self.num_deletes,
            "recomputed_nodes": self.recomputed_nodes,
            "max_cache_used": self.max_cache_used,
        }


def _out_of_range(s: int, proc: int) -> InvalidScheduleError:
    return InvalidScheduleError(f"superstep {s}: processor index {proc} out of range")


def _over_capacity(
    s: int, context: str, proc: int, state: PebblingState
) -> InvalidScheduleError:
    return InvalidScheduleError(
        f"superstep {s}: {context}: cache of processor {proc} exceeds capacity "
        f"({state.red_usage[proc]:.6g} > {state.cache_size:.6g})"
    )


def replay_superstep(
    state: PebblingState,
    step: Superstep,
    superstep_index: int = 0,
    report: Optional[ValidationReport] = None,
) -> None:
    """Replay one superstep on ``state``, enforcing every model rule.

    This is the single replay primitive shared by :func:`validate_schedule`,
    :func:`replay_final_state` and the incremental revalidation of the
    refinement engine (:mod:`repro.refine`): the four phases are applied in
    order (compute, save, delete, load) with the superstep semantics of the
    save phase (blue pebbles become visible only after *all* saves of the
    step).  Raises :class:`InvalidScheduleError` on any violation (a
    COMPUTE of a node the DAG does not have raises
    :class:`~repro.exceptions.GraphError`, a LOAD or SAVE in a compute phase
    :class:`~repro.exceptions.ScheduleError`); when a ``report`` is given,
    operation counts and peak cache usage are recorded on it.  On an error
    the state keeps the operations applied before it.
    """
    s = superstep_index
    parents_of, mu = state.snap.parents, state.snap.mu
    red, usage, blue = state.red, state.red_usage, state.blue
    num_processors = state.num_processors
    limit = state.cache_size + 1e-9
    compute = OpType.COMPUTE
    processor_steps = step.processor_steps
    # 1. compute phases (COMPUTE / DELETE only)
    for p, ps in enumerate(processor_steps):
        ps.validate_phase_types()
        if not ps.compute_phase:
            continue
        if p >= num_processors:
            raise _out_of_range(s, p)
        cache = red[p]
        for op in ps.compute_phase:
            node = op.node
            if op.op_type is compute:
                parents = parents_of.get(node)
                if parents is None:
                    raise GraphError(f"unknown node {node!r}")
                if not parents:
                    raise InvalidScheduleError(
                        f"superstep {s}: COMPUTE({p}, {node!r}): source nodes are "
                        f"never computed"
                    )
                if not cache.issuperset(parents):
                    missing = [u for u in parents if u not in cache]
                    raise InvalidScheduleError(
                        f"superstep {s}: COMPUTE({p}, {node!r}): parents {missing!r} "
                        f"not in cache of processor {p}"
                    )
                if node not in cache:
                    cache.add(node)
                    usage[p] += mu[node]
                    if usage[p] > limit:
                        raise _over_capacity(s, f"COMPUTE({p}, {node!r})", p, state)
            else:
                if node not in cache:
                    raise InvalidScheduleError(
                        f"superstep {s}: DELETE({p}, {node!r}): node has no red pebble "
                        f"of processor {p}"
                    )
                cache.remove(node)
                usage[p] -= mu[node]
            if report is not None:
                if op.op_type is compute:
                    report.num_computes += 1
                    report.compute_events[node] = report.compute_events.get(node, 0) + 1
                    report.computed_nodes.add(node)
                else:
                    report.num_deletes += 1
                report.max_cache_used = max(report.max_cache_used, usage[p])
    # 2. save phases: blue pebbles become visible only after all saves
    new_blue: Set[NodeId] = set()
    for p, ps in enumerate(processor_steps):
        if not ps.save_phase:
            continue
        if p >= num_processors:
            raise _out_of_range(s, p)
        cache = red[p]
        for v in ps.save_phase:
            if v not in cache:
                raise InvalidScheduleError(
                    f"superstep {s}: SAVE({p}, {v!r}): node has no red pebble of "
                    f"processor {p}"
                )
            new_blue.add(v)
            if report is not None:
                report.num_saves += 1
    blue.update(new_blue)
    # 3. delete phases
    for p, ps in enumerate(processor_steps):
        if not ps.delete_phase:
            continue
        if p >= num_processors:
            raise _out_of_range(s, p)
        cache = red[p]
        for v in ps.delete_phase:
            if v not in cache:
                raise InvalidScheduleError(
                    f"superstep {s}: DELETE({p}, {v!r}): node has no red pebble of "
                    f"processor {p}"
                )
            cache.remove(v)
            usage[p] -= mu[v]
            if report is not None:
                report.num_deletes += 1
    # 4. load phases
    for p, ps in enumerate(processor_steps):
        if not ps.load_phase:
            continue
        if p >= num_processors:
            raise _out_of_range(s, p)
        cache = red[p]
        for v in ps.load_phase:
            if v not in blue:
                raise InvalidScheduleError(
                    f"superstep {s}: LOAD({p}, {v!r}): node has no blue pebble (not in "
                    f"slow memory)"
                )
            if v not in cache:
                cache.add(v)
                usage[p] += mu[v]
                if usage[p] > limit:
                    raise _over_capacity(s, f"LOAD({p}, {v!r})", p, state)
            if report is not None:
                report.num_loads += 1
                report.max_cache_used = max(report.max_cache_used, usage[p])


def validate_schedule(schedule: MbspSchedule, require_all_computed: bool = True) -> ValidationReport:
    """Replay ``schedule`` and raise :class:`InvalidScheduleError` on any violation.

    Parameters
    ----------
    schedule:
        The MBSP schedule to check.
    require_all_computed:
        When true (default), additionally require that every non-source node
        is computed at least once.  The bare model only requires the sinks to
        end up in slow memory, but all schedules produced by this library
        compute every node, and requiring it catches converter bugs early.

    Returns
    -------
    ValidationReport
        Operation counts and peak cache usage of the (valid) schedule.
    """
    instance = schedule.instance
    dag = instance.dag
    state = PebblingState(dag, instance.num_processors, instance.cache_size)
    report = ValidationReport(num_supersteps=schedule.num_supersteps)

    for s, step in enumerate(schedule.supersteps):
        if step.num_processors != instance.num_processors:
            raise InvalidScheduleError(
                f"superstep {s} has {step.num_processors} processor entries, "
                f"expected {instance.num_processors}"
            )
        replay_superstep(state, step, s, report=report)

    missing = state.missing_sinks()
    if missing:
        raise InvalidScheduleError(
            f"terminal configuration violated: sink nodes {missing!r} never "
            f"saved to slow memory"
        )
    if require_all_computed:
        computed = report.computed_nodes
        not_computed = [
            v for v, parents in state.snap.parents.items() if parents and v not in computed
        ]
        if not_computed:
            raise InvalidScheduleError(
                f"nodes never computed anywhere in the schedule: {not_computed!r}"
            )
    report.recomputed_nodes = sum(1 for c in report.compute_events.values() if c > 1)
    return report


def replay_final_state(schedule: MbspSchedule) -> PebblingState:
    """Replay a schedule (assumed valid) and return the final pebbling state.

    Used by the divide-and-conquer scheduler to find which values are left in
    each processor's cache at the end of a sub-schedule (they must be evicted
    before the next sub-problem starts so the memory bound keeps holding).
    """
    instance = schedule.instance
    state = PebblingState(instance.dag, instance.num_processors, instance.cache_size)
    for s, step in enumerate(schedule.supersteps):
        replay_superstep(state, step, s)
    return state


def is_valid_schedule(schedule: MbspSchedule, require_all_computed: bool = True) -> bool:
    """Boolean convenience wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, require_all_computed=require_all_computed)
        return True
    except InvalidScheduleError:
        return False
