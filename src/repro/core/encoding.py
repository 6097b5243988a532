"""Encoding of explicit MBSP schedules into full ILP variable assignments.

This is the inverse of :mod:`repro.core.extraction`: given a *valid*
:class:`~repro.model.schedule.MbspSchedule` and a freshly built model of
:class:`~repro.core.full_ilp.MbspIlpBuilder`, produce a complete variable
assignment (operation binaries, pebble-state binaries, phase indicators and
the continuous cost accumulators) that satisfies every model constraint and
whose objective is at most the schedule's synchronous cost.  Solver backends
can install the assignment as a true warm-start *solution*
(``SolverOptions.warm_start_solution``): the pure-Python branch and bound
starts from it as its initial incumbent, and the HiGHS backend derives an
objective cutoff row from it.

The encoding mirrors the schedule's superstep structure step by step:

* every compute phase becomes one or more *compute steps* — a phase is split
  whenever its interleaved DELETE operations are needed to keep the merged
  step within the cache bound (constraint (7) charges a merged step with its
  start state plus everything it computes), or when a node is computed twice
  in one phase;
* the save phase becomes one *communication step*, the load phase a second
  one — they are merged into a single step when no loaded value depends on a
  same-superstep save (constraint (1) requires a blue pebble at the *start*
  of the step) and the pre-delete cache state leaves room for the loads;
* DELETE operations are implicit: they become ``hasred`` transitions at the
  end of the step they conclude.

Supersteps with fewer phases use fewer steps and unused trailing steps stay
empty (all operation variables zero, pebble states persisting), so any
schedule whose encoding fits the model's step budget can be encoded.  A
schedule that does not fit (or a model built without step merging / with the
asynchronous objective) yields ``None`` — callers fall back to the
objective-only warm start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.dag.graph import NodeId
from repro.model.pebbling import OpType
from repro.model.schedule import MbspSchedule
from repro.core.full_ilp import MbspIlpBuilder, MbspIlpVariables

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class _SimStep:
    """One ILP time step of the encoding: per-processor operation sets plus
    the pebble configuration *after* the step."""

    computes: List[List[NodeId]]
    saves: List[List[NodeId]]
    loads: List[List[NodeId]]
    red_after: List[Set[NodeId]]
    blue_after: Set[NodeId]

    def is_compute(self) -> bool:
        return any(self.computes)

    def is_comm(self) -> bool:
        return any(self.saves) or any(self.loads)


@dataclass
class ScheduleEncoding:
    """A complete, feasibility-checked variable assignment for one model."""

    values: np.ndarray
    objective: float
    steps_used: int


def simulate_schedule_steps(
    builder: MbspIlpBuilder, schedule: MbspSchedule
) -> Optional[List["_SimStep"]]:
    """The ILP step sequence encoding ``schedule`` (None: unencodable).

    Callers that first size the model from the step count and then encode
    (the scheduler's warm-start path) pass the returned steps back into
    :func:`encode_schedule_solution` so the schedule is simulated once.
    """
    return _simulate(builder, schedule)


def required_encoding_steps(builder: MbspIlpBuilder, schedule: MbspSchedule) -> Optional[int]:
    """Number of ILP steps the encoding of ``schedule`` needs (None: unencodable)."""
    steps = _simulate(builder, schedule)
    return None if steps is None else len(steps)


def encode_schedule_solution(
    builder: MbspIlpBuilder,
    model,
    variables: MbspIlpVariables,
    schedule: MbspSchedule,
    steps: Optional[List["_SimStep"]] = None,
) -> Optional[ScheduleEncoding]:
    """Encode ``schedule`` as a full assignment of ``model``'s variables.

    Returns ``None`` when the schedule cannot be expressed in the model
    (asynchronous objective, merging disabled, recomputation in a
    no-recomputation model, more steps needed than the model has, or an
    operation the pebbling state cannot support).  A returned encoding has
    been verified against the compiled model, so backends will accept it.
    ``steps`` short-circuits the simulation when the caller already ran
    :func:`simulate_schedule_steps` for the same builder and schedule.
    """
    config = builder.config
    if not config.synchronous or not config.use_step_merging:
        return None
    if not config.allow_recomputation and schedule.recomputation_count() > 0:
        return None
    if steps is None:
        steps = _simulate(builder, schedule)
    if steps is None or len(steps) > variables.num_steps:
        return None
    values = _assign(builder, variables, steps, model.num_variables)
    compiled = model.compile()
    if not compiled.is_feasible(values):
        # defensive: an encoding bug must degrade to "no warm solution",
        # never to a backend rejecting (or worse, accepting) a bad incumbent
        return None
    return ScheduleEncoding(
        values=values,
        objective=compiled.objective_value(values),
        steps_used=len(steps),
    )


# ----------------------------------------------------------------------
# schedule simulation -> ILP step sequence
# ----------------------------------------------------------------------
def _simulate(builder: MbspIlpBuilder, schedule: MbspSchedule) -> Optional[List[_SimStep]]:
    dag = builder.dag
    P = builder.P
    r = builder.r
    computable = set(builder.computable_nodes())
    mu = dag.mu

    red: List[Set[NodeId]] = [set(builder.initial_red(p)) for p in range(P)]
    blue: Set[NodeId] = set(builder.initial_blue())
    steps: List[_SimStep] = []

    def emit(computes=None, saves=None, loads=None) -> _SimStep:
        step = _SimStep(
            computes=computes or [[] for _ in range(P)],
            saves=saves or [[] for _ in range(P)],
            loads=loads or [[] for _ in range(P)],
            red_after=[set(s) for s in red],
            blue_after=set(blue),
        )
        steps.append(step)
        return step

    for superstep in schedule.supersteps:
        # ---- compute phase: split into merged compute steps per processor
        segments: List[List[tuple]] = []  # per proc: [(computes, state_after)]
        for p in range(P):
            segs = _segment_compute_phase(
                superstep[p].compute_phase, red[p], r, mu, computable, dag
            )
            if segs is None:
                return None
            segments.append(segs)
        num_segments = max((len(s) for s in segments), default=0)
        for i in range(num_segments):
            computes = [[] for _ in range(P)]
            for p in range(P):
                if i < len(segments[p]):
                    seg_computes, state_after = segments[p][i]
                    computes[p] = seg_computes
                    red[p] = state_after
            emit(computes=computes)

        saves = [list(ps.save_phase) for ps in superstep.processor_steps]
        loads = [list(dict.fromkeys(ps.load_phase)) for ps in superstep.processor_steps]
        deletes = [set(ps.delete_phase) for ps in superstep.processor_steps]
        has_saves, has_loads = any(saves), any(loads)
        saved_now: Set[NodeId] = set()
        for p in range(P):
            for v in saves[p]:
                if v not in red[p]:
                    return None  # a save needs a red pebble at step start
                saved_now.add(v)

        # ---- try one merged communication step (save + load together)
        mergeable = has_saves and has_loads
        if mergeable:
            for p in range(P):
                if any(v not in blue for v in loads[p]):
                    mergeable = False  # load depends on a same-superstep save
                    break
                # constraint (7) charges the step's start state plus every
                # load (the delete phase frees nothing inside a merged step)
                if sum(mu(v) for v in red[p]) + sum(mu(v) for v in loads[p]) > r:
                    mergeable = False  # needs the delete phase to make room
                    break
        if mergeable:
            blue.update(saved_now)
            for p in range(P):
                red[p] = (red[p] - deletes[p]) | set(loads[p])
            emit(saves=saves, loads=loads)
            continue

        # ---- separate steps: saves first, then (post-delete-phase) loads
        if has_saves:
            blue.update(saved_now)
            for p in range(P):
                red[p] -= deletes[p]
            emit(saves=saves)
        elif any(deletes):
            # the delete phase must take effect before the loads; fold it
            # into the previous step when one exists, else spend an empty one
            if steps:
                for p in range(P):
                    red[p] -= deletes[p]
                    steps[-1].red_after[p] = set(red[p])
            else:
                for p in range(P):
                    red[p] -= deletes[p]
                emit()
        if has_loads:
            for p in range(P):
                for v in loads[p]:
                    if v not in blue:
                        return None  # a load needs a blue pebble
                if sum(mu(v) for v in red[p]) + sum(mu(v) for v in loads[p]) > r:
                    return None
                red[p] |= set(loads[p])
            emit(loads=loads)

    required = builder.required_blue() - builder.initial_blue()
    if not required <= blue:
        return None  # terminal configuration unreachable (constraint (10))
    return steps


def _segment_compute_phase(compute_phase, start_state, r, mu, computable, dag):
    """Split one compute phase into merged-step segments.

    Returns ``[(computed nodes, red state after segment), ...]`` or ``None``
    when the phase cannot be encoded (a source computed, a parent missing,
    or a single node that does not fit the cache next to the start state).
    """
    segments: List[tuple] = []
    state = set(start_state)

    seg_computes: List[NodeId] = []
    seg_deletes: Set[NodeId] = set()

    def seg_usage(extra: Sequence[NodeId] = ()) -> float:
        return (
            sum(mu(v) for v in state)
            + sum(mu(v) for v in seg_computes)
            + sum(mu(v) for v in extra)
        )

    def close_segment() -> None:
        nonlocal state, seg_computes, seg_deletes
        state = (state | set(seg_computes)) - seg_deletes
        segments.append((seg_computes, set(state)))
        seg_computes, seg_deletes = [], set()

    for op in compute_phase:
        v = op.node
        if op.op_type is OpType.DELETE:
            seg_deletes.add(v)
            continue
        if v not in computable:
            return None  # sources carry their value implicitly; no variable
        if v in seg_computes or v in seg_deletes:
            close_segment()
        if seg_usage((v,)) > r and (seg_computes or seg_deletes):
            close_segment()
        for u in dag.parents(v):
            if u not in state and u not in seg_computes:
                return None  # parent neither red at step start nor merged in
        if seg_usage((v,)) > r:
            return None  # not even alone: the model cannot hold this compute
        seg_computes.append(v)
    if seg_computes or seg_deletes:
        close_segment()
    return segments


# ----------------------------------------------------------------------
# step sequence -> variable assignment
# ----------------------------------------------------------------------
def _assign(
    builder: MbspIlpBuilder,
    var: MbspIlpVariables,
    steps: List[_SimStep],
    num_variables: int,
) -> np.ndarray:
    import numpy as np

    dag = builder.dag
    P = builder.P
    T = var.num_steps
    g = builder.g
    L = builder.L
    M = builder.big_m
    values = np.zeros(num_variables, dtype=float)

    def set_var(column: int, value: float) -> None:
        values[column] = value

    comp_cost = [[0.0] * P for _ in range(T)]
    comm_cost = [[0.0] * P for _ in range(T)]
    compphase = [0.0] * T
    commphase = [0.0] * T

    for t, step in enumerate(steps):
        for p in range(P):
            for v in step.computes[p]:
                set_var(var.compute[p, v, t], 1.0)
                comp_cost[t][p] += dag.omega(v)
            for v in step.saves[p]:
                set_var(var.save[p, v, t], 1.0)
                comm_cost[t][p] += g * dag.mu(v)
            for v in step.loads[p]:
                set_var(var.load[p, v, t], 1.0)
                comm_cost[t][p] += g * dag.mu(v)
            if (p, t) in var.compstep:
                set_var(var.compstep[p, t], 1.0 if step.computes[p] else 0.0)
                set_var(
                    var.commstep[p, t],
                    1.0 if (step.saves[p] or step.loads[p]) else 0.0,
                )
        compphase[t] = 1.0 if step.is_compute() else 0.0
        commphase[t] = 1.0 if step.is_comm() else 0.0

    # pebble states: steps beyond the encoding keep the final configuration
    final_red = steps[-1].red_after if steps else [set(builder.initial_red(p)) for p in range(P)]
    final_blue = steps[-1].blue_after if steps else builder.initial_blue()
    for t in range(1, T + 1):
        red_t = steps[t - 1].red_after if t - 1 < len(steps) else final_red
        blue_t = steps[t - 1].blue_after if t - 1 < len(steps) else final_blue
        for p in range(P):
            for v in red_t[p]:
                set_var(var.hasred[p, v, t], 1.0)
        for v in blue_t:
            if (v, t) in var.hasblue:
                set_var(var.hasblue[v, t], 1.0)

    # phase indicators and end markers
    for t in range(T):
        set_var(var.compphase[t], compphase[t])
        set_var(var.commphase[t], commphase[t])
        comp_end = compphase[t] and (t + 1 >= T or not compphase[t + 1])
        comm_end = commphase[t] and (t + 1 >= T or not commphase[t + 1])
        set_var(var.compends[t], 1.0 if comp_end else 0.0)
        set_var(var.commends[t], 1.0 if comm_end else 0.0)

    # running phase-cost accumulators and induced (charged) phase costs
    compuntil_prev = [0.0] * P
    communtil_prev = [0.0] * P
    for t in range(T):
        comm_end = values[var.commends[t]] > 0.5
        comp_end = values[var.compends[t]] > 0.5
        comp_until = [
            max(0.0, compuntil_prev[p] + comp_cost[t][p] - (M if comm_end else 0.0))
            for p in range(P)
        ]
        comm_until = [
            max(0.0, communtil_prev[p] + comm_cost[t][p] - (M if comp_end else 0.0))
            for p in range(P)
        ]
        for p in range(P):
            set_var(var.compuntil[p, t], comp_until[p])
            set_var(var.communtil[p, t], comm_until[p])
        set_var(
            var.compinduced[t],
            max(0.0, max(comp_until) - (0.0 if comp_end else M)),
        )
        set_var(
            var.comminduced[t],
            max(0.0, max(comm_until) - (0.0 if comm_end else M)),
        )
        compuntil_prev, communtil_prev = comp_until, comm_until
    return values
