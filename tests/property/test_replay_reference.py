"""Differential test: the snapshot replay, screened refinement and r0 against their originals.

The pebbling replay used to apply one operation at a time through
:class:`~repro.model.pebbling.PebblingState` and the DAG's validated per-node
accessors; it is now one inlined kernel over a
:class:`~repro.dag.graph.DagSnapshot`.  The refinement engine now screens
``load``, ``save`` and ``reassign`` proposals before replaying them, and
:func:`~repro.dag.analysis.minimum_cache_size` reads one snapshot.  None of
that may change a result.  The originals are kept below, verbatim apart
from a ``Reference``/``reference_`` prefix on their names:

* ``PebblingState``, ``replay_superstep``, ``validate_schedule`` and
  ``replay_final_state``;
* ``IncrementalValidator``, which the reference refinement runs with every
  screen switched off, together with the editor's original weight reads
  (``_compute_delta`` and ``_phase_delta``);
* ``minimum_cache_size``.

Hypothesis draws random layered DAGs with fractional memory weights, so
cache usage sums depend on the order they are accumulated in.  Valid
schedules must give the same final pebbles, usage floats (by ``repr``) and
``ValidationReport``; corrupted ones the same exception type and message
and the same state left behind; refinement the same ``RefineResult``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import List, Optional, Set
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.two_stage import run_two_stage
from repro.dag.analysis import minimum_cache_size
from repro.dag.generators import random_layered_dag
from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import InfeasibleInstanceError, InvalidScheduleError, ScheduleError
from repro.model.instance import make_instance
from repro.model.pebbling import (
    Operation,
    OpType,
    PebblingState,
    compute_op,
    delete_op,
    load_op,
    save_op,
)
from repro.model.schedule import MbspSchedule, ProcessorSuperstep
from repro.model.validation import (
    ValidationReport,
    replay_final_state,
    replay_superstep,
    validate_schedule,
)
from repro.pipeline.stage import schedule_digest
from repro.refine import RefineConfig, Refiner
from repro.refine import engine
from repro.refine.editing import ScheduleEditor
from repro.refine.moves import MoveLoad, MoveSave, ReassignCompute


# ----------------------------------------------------------------------
# the originals, frozen verbatim
# ----------------------------------------------------------------------
class ReferencePebblingState:
    """Current pebbling configuration of a schedule under replay.

    Tracks the red-pebble set (cache contents) of every processor, the used
    cache capacity, and the shared blue-pebble set (slow memory contents).

    Parameters
    ----------
    dag:
        The computational DAG (provides memory weights and parent sets).
    num_processors:
        Number of processors ``P``.
    cache_size:
        Fast memory capacity ``r`` per processor.
    """

    def __init__(self, dag: ComputationalDag, num_processors: int, cache_size: float) -> None:
        self.dag = dag
        self.num_processors = num_processors
        self.cache_size = cache_size
        self.red: List[Set[NodeId]] = [set() for _ in range(num_processors)]
        self.red_usage: List[float] = [0.0 for _ in range(num_processors)]
        self.blue: Set[NodeId] = set(dag.sources())

    # ------------------------------------------------------------------
    def _check_proc(self, proc: int) -> None:
        if not 0 <= proc < self.num_processors:
            raise InvalidScheduleError(f"processor index {proc} out of range")

    def has_red(self, proc: int, node: NodeId) -> bool:
        self._check_proc(proc)
        return node in self.red[proc]

    def has_blue(self, node: NodeId) -> bool:
        return node in self.blue

    def cache_used(self, proc: int) -> float:
        self._check_proc(proc)
        return self.red_usage[proc]

    # ------------------------------------------------------------------
    def _add_red(self, proc: int, node: NodeId, context: str) -> None:
        if node in self.red[proc]:
            return
        self.red[proc].add(node)
        self.red_usage[proc] += self.dag.mu(node)
        if self.red_usage[proc] > self.cache_size + 1e-9:
            raise InvalidScheduleError(
                f"{context}: cache of processor {proc} exceeds capacity "
                f"({self.red_usage[proc]:.6g} > {self.cache_size:.6g})"
            )

    def _remove_red(self, proc: int, node: NodeId) -> None:
        if node in self.red[proc]:
            self.red[proc].remove(node)
            self.red_usage[proc] -= self.dag.mu(node)

    # ------------------------------------------------------------------
    def apply_load(self, proc: int, node: NodeId) -> None:
        """Apply ``LOAD(proc, node)``; requires a blue pebble on ``node``."""
        self._check_proc(proc)
        if node not in self.blue:
            raise InvalidScheduleError(
                f"LOAD({proc}, {node!r}): node has no blue pebble (not in slow memory)"
            )
        self._add_red(proc, node, f"LOAD({proc}, {node!r})")

    def apply_save(self, proc: int, node: NodeId, blue_target: Optional[Set[NodeId]] = None) -> None:
        """Apply ``SAVE(proc, node)``; requires a red pebble of ``proc``.

        If ``blue_target`` is given, the blue pebble is placed into that set
        instead of the live blue set; this implements the superstep semantics
        where the shared slow memory is only updated at the end of the save
        phase (Appendix A).
        """
        self._check_proc(proc)
        if node not in self.red[proc]:
            raise InvalidScheduleError(
                f"SAVE({proc}, {node!r}): node has no red pebble of processor {proc}"
            )
        (blue_target if blue_target is not None else self.blue).add(node)

    def apply_compute(self, proc: int, node: NodeId) -> None:
        """Apply ``COMPUTE(proc, node)``; requires all parents in cache."""
        self._check_proc(proc)
        parents = self.dag.parents(node)
        if not parents:
            raise InvalidScheduleError(
                f"COMPUTE({proc}, {node!r}): source nodes are never computed"
            )
        missing = [u for u in parents if u not in self.red[proc]]
        if missing:
            raise InvalidScheduleError(
                f"COMPUTE({proc}, {node!r}): parents {missing!r} not in cache of "
                f"processor {proc}"
            )
        self._add_red(proc, node, f"COMPUTE({proc}, {node!r})")

    def apply_delete(self, proc: int, node: NodeId) -> None:
        """Apply ``DELETE(proc, node)``; requires a red pebble of ``proc``."""
        self._check_proc(proc)
        if node not in self.red[proc]:
            raise InvalidScheduleError(
                f"DELETE({proc}, {node!r}): node has no red pebble of processor {proc}"
            )
        self._remove_red(proc, node)

    def apply(self, proc: int, op: Operation, blue_target: Optional[Set[NodeId]] = None) -> None:
        """Apply an arbitrary operation."""
        if op.op_type is OpType.LOAD:
            self.apply_load(proc, op.node)
        elif op.op_type is OpType.SAVE:
            self.apply_save(proc, op.node, blue_target=blue_target)
        elif op.op_type is OpType.COMPUTE:
            self.apply_compute(proc, op.node)
        elif op.op_type is OpType.DELETE:
            self.apply_delete(proc, op.node)
        else:  # pragma: no cover - enum is exhaustive
            raise InvalidScheduleError(f"unknown operation type {op.op_type!r}")

    # ------------------------------------------------------------------
    def copy(self) -> "ReferencePebblingState":
        """An independent snapshot of this configuration (same DAG object).

        Used by the refinement engine to checkpoint the replay state before
        every superstep so that a local schedule edit only needs a suffix
        replay instead of a full revalidation.
        """
        new = ReferencePebblingState.__new__(ReferencePebblingState)
        new.dag = self.dag
        new.num_processors = self.num_processors
        new.cache_size = self.cache_size
        new.red = [set(pebbles) for pebbles in self.red]
        new.red_usage = list(self.red_usage)
        new.blue = set(self.blue)
        return new

    def same_configuration(self, other: "ReferencePebblingState") -> bool:
        """Whether two states hold exactly the same red and blue pebbles."""
        return (
            self.num_processors == other.num_processors
            and self.blue == other.blue
            and self.red == other.red
        )

    # ------------------------------------------------------------------
    def is_terminal(self) -> bool:
        """Whether all sink nodes carry a blue pebble (terminal configuration)."""
        return all(v in self.blue for v in self.dag.sinks())

    def missing_sinks(self) -> List[NodeId]:
        """Sink nodes that do not yet carry a blue pebble."""
        return [v for v in self.dag.sinks() if v not in self.blue]


def reference_replay_superstep(
    state: ReferencePebblingState,
    step,
    superstep_index: int = 0,
    report: Optional[ValidationReport] = None,
) -> None:
    """Replay one superstep on ``state``, enforcing every model rule.

    This is the single replay primitive shared by :func:`validate_schedule`,
    :func:`replay_final_state` and the incremental revalidation of the
    refinement engine (:mod:`repro.refine`): the four phases are applied in
    order (compute, save, delete, load) with the superstep semantics of the
    save phase (blue pebbles become visible only after *all* saves of the
    step).  Raises :class:`InvalidScheduleError` on any violation; when a
    ``report`` is given, operation counts and peak cache usage are recorded
    on it.
    """
    s = superstep_index
    # 1. compute phases (COMPUTE / DELETE only)
    for p, ps in enumerate(step.processor_steps):
        ps.validate_phase_types()
        for op in ps.compute_phase:
            try:
                state.apply(p, op)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                if op.op_type is OpType.COMPUTE:
                    report.num_computes += 1
                    report.compute_events[op.node] = report.compute_events.get(op.node, 0) + 1
                    report.computed_nodes.add(op.node)
                else:
                    report.num_deletes += 1
                report.max_cache_used = max(report.max_cache_used, state.cache_used(p))
    # 2. save phases: blue pebbles become visible only after all saves
    new_blue: Set[NodeId] = set()
    for p, ps in enumerate(step.processor_steps):
        for v in ps.save_phase:
            try:
                state.apply_save(p, v, blue_target=new_blue)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_saves += 1
    state.blue.update(new_blue)
    # 3. delete phases
    for p, ps in enumerate(step.processor_steps):
        for v in ps.delete_phase:
            try:
                state.apply_delete(p, v)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_deletes += 1
    # 4. load phases
    for p, ps in enumerate(step.processor_steps):
        for v in ps.load_phase:
            try:
                state.apply_load(p, v)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_loads += 1
                report.max_cache_used = max(report.max_cache_used, state.cache_used(p))


def reference_validate_schedule(schedule: MbspSchedule, require_all_computed: bool = True) -> ValidationReport:
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
    state = ReferencePebblingState(dag, instance.num_processors, instance.cache_size)
    report = ValidationReport(num_supersteps=schedule.num_supersteps)

    for s, step in enumerate(schedule.supersteps):
        if step.num_processors != instance.num_processors:
            raise InvalidScheduleError(
                f"superstep {s} has {step.num_processors} processor entries, "
                f"expected {instance.num_processors}"
            )
        reference_replay_superstep(state, step, s, report=report)

    missing = state.missing_sinks()
    if missing:
        raise InvalidScheduleError(
            f"terminal configuration violated: sink nodes {missing!r} never "
            f"saved to slow memory"
        )
    if require_all_computed:
        not_computed = [
            v for v in dag.nodes if not dag.is_source(v) and v not in report.computed_nodes
        ]
        if not_computed:
            raise InvalidScheduleError(
                f"nodes never computed anywhere in the schedule: {not_computed!r}"
            )
    report.recomputed_nodes = sum(1 for c in report.compute_events.values() if c > 1)
    return report


def reference_replay_final_state(schedule: MbspSchedule) -> ReferencePebblingState:
    """Replay a schedule (assumed valid) and return the final pebbling state.

    Used by the divide-and-conquer scheduler to find which values are left in
    each processor's cache at the end of a sub-schedule (they must be evicted
    before the next sub-problem starts so the memory bound keeps holding).
    """
    instance = schedule.instance
    state = ReferencePebblingState(instance.dag, instance.num_processors, instance.cache_size)
    for s, step in enumerate(schedule.supersteps):
        reference_replay_superstep(state, step, s)
    return state




class ReferenceIncrementalValidator:
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
        state = ReferencePebblingState(instance.dag, instance.num_processors, instance.cache_size)
        # snapshots[i] is the configuration *before* superstep i;
        # snapshots[num_supersteps] is the final configuration.
        self.snapshots: List[ReferencePebblingState] = [state.copy()]
        for s, step in enumerate(schedule.supersteps):
            reference_replay_superstep(state, step, s)
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
        new_snapshots: List[ReferencePebblingState] = []
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
                reference_replay_superstep(state, steps[s], s)
        except InvalidScheduleError:
            return False
        if state.missing_sinks():
            return False
        self.snapshots[first:] = new_snapshots + [state.copy()]
        return True


def reference_minimum_cache_size(dag: ComputationalDag) -> float:
    """The minimal fast-memory capacity ``r0`` allowing a valid schedule.

    A node ``v`` can only be computed when all its parents and its own output
    reside in the same processor's fast memory simultaneously, so every valid
    schedule needs at least ``mu(v) + sum(mu(parents))`` capacity for the most
    demanding node.  Source nodes are never computed but must be loadable,
    requiring at least ``mu(v)``.
    """
    best = 0.0
    for v in dag.nodes:
        if dag.is_source(v):
            best = max(best, dag.mu(v))
        else:
            need = dag.mu(v) + sum(dag.mu(u) for u in dag.parents(v))
            best = max(best, need)
    return best




def reference_compute_delta(self, op: Operation) -> float:
    return self.cost.dag.omega(op.node) if op.op_type is OpType.COMPUTE else 0.0


def reference_phase_delta(self, phase: str, node: NodeId) -> float:
    return 0.0 if phase == "delete" else self.cost.g * self.cost.dag.mu(node)


@contextmanager
def reference_refinement():
    """Refine as the parent did: no screens, the original replay and weight reads."""
    never = lambda self, schedule, validator: False  # noqa: E731
    with mock.patch.object(
        engine, "IncrementalValidator", lambda schedule: ReferenceIncrementalValidator(schedule)
    ), mock.patch.object(MoveLoad, "doomed", never), mock.patch.object(
        MoveSave, "doomed", never
    ), mock.patch.object(ReassignCompute, "doomed", never), mock.patch.object(
        ScheduleEditor, "_compute_delta", reference_compute_delta
    ), mock.patch.object(ScheduleEditor, "_phase_delta", reference_phase_delta):
        yield


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: memory weights whose sums depend on their order (0.1 + 0.2 + 0.3 is not
#: 0.3 + 0.2 + 0.1), plus zeros
FRACTIONS = (0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5)


@st.composite
def fractional_dags(draw) -> ComputationalDag:
    """Random layered DAGs with fractional memory weights."""
    dag = random_layered_dag(
        draw(st.integers(min_value=2, max_value=5)),
        draw(st.integers(min_value=1, max_value=4)),
        edge_probability=draw(st.floats(min_value=0.2, max_value=0.9)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    for v in dag.nodes:
        dag.set_mu(v, draw(st.sampled_from(FRACTIONS)))
    return dag


machines = st.tuples(
    st.integers(min_value=1, max_value=4),                  # processors
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0]),       # cache factor
    st.sampled_from([0.0, 1.0, 2.5]),                       # g
    st.sampled_from([0.0, 10.0]),                           # L
)
two_stages = st.tuples(
    st.sampled_from(["bspg", "cilk", "etf"]),
    st.sampled_from(["clairvoyant", "lru", "fifo"]),
)


def converted(dag, machine, two_stage) -> MbspSchedule:
    """A valid two-stage schedule of ``dag`` on ``machine``."""
    P, factor, g, L = machine
    instance = make_instance(dag, num_processors=P, cache_factor=factor, g=g, L=L)
    try:
        return run_two_stage(instance, scheduler=two_stage[0], policy=two_stage[1]).mbsp_schedule
    except (InfeasibleInstanceError, ScheduleError):
        assume(False)


def with_redundant_saves(schedule: MbspSchedule, seed: int) -> MbspSchedule:
    """A copy with extra SAVEs of values red after a compute phase.

    Such a SAVE is always valid (it only adds a blue pebble) and gives a
    value several SAVEs, so a moved SAVE can have another one after it.
    """
    rng = random.Random(seed)
    out = schedule.copy()
    instance = out.instance
    state = ReferencePebblingState(instance.dag, instance.num_processors, instance.cache_size)
    for s, step in enumerate(out.supersteps):
        for p, ps in enumerate(step.processor_steps):
            red = set(state.red[p])
            for op in ps.compute_phase:
                if op.op_type is OpType.COMPUTE:
                    red.add(op.node)
                else:
                    red.discard(op.node)
            extra = sorted((v for v in red if v not in ps.save_phase), key=repr)
            if extra and rng.random() < 0.3:
                ps.save_phase.append(rng.choice(extra))
        reference_replay_superstep(state, step, s)
    return out


def corrupted(schedule: MbspSchedule, seed: int) -> MbspSchedule:
    """A copy with one random operation dropped or inserted, maybe illegally."""
    rng = random.Random(seed)
    out = schedule.copy()
    dag = out.instance.dag
    if not out.supersteps:
        out.new_superstep()
    step = rng.choice(out.supersteps)
    if rng.random() < 0.15:
        # an extra processor entry: validate_schedule rejects it up front,
        # a bare replay once it reaches an operation of it
        step.processor_steps.append(ProcessorSuperstep())
        ps = step.processor_steps[-1]
    else:
        ps = rng.choice(step.processor_steps)
    phase = rng.choice(["compute", "save", "delete", "load"])
    ops = ps.compute_phase if phase == "compute" else getattr(ps, f"{phase}_phase")
    if ops and rng.random() < 0.3:
        del ops[rng.randrange(len(ops))]    # e.g. a LOAD a COMPUTE needs
    else:
        node = rng.choice(dag.nodes + ["nope"])
        if phase == "compute":
            node = rng.choice([compute_op, delete_op, compute_op, load_op, save_op])(node)
        ops.insert(rng.randint(0, len(ops)), node)
    if rng.random() < 0.3:
        # a smaller cache: some insertions overflow it
        tight = make_instance(
            dag,
            num_processors=out.instance.num_processors,
            cache_size=out.instance.cache_size * rng.choice([0.5, 0.8, 0.95]),
            g=out.instance.g,
            L=out.instance.L,
        )
        shrunk = MbspSchedule(tight)
        shrunk.supersteps = out.supersteps
        out = shrunk
    return out


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
def state_key(state) -> tuple:
    return (state.red, state.blue, repr(state.red_usage))


def report_key(report) -> tuple:
    return (
        repr(report.as_dict()),
        report.computed_nodes,
        list(report.compute_events.items()),
    )


def raised(exc: Exception) -> tuple:
    return type(exc), str(exc)


def stepwise(state, replay, schedule: MbspSchedule, report) -> list:
    """Every step's state (and report) under ``replay``, up to an error."""
    trace = []
    for s, step in enumerate(schedule.supersteps):
        try:
            replay(state, step, s, report=report)
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            trace.append(raised(exc))
            trace.append(state_key(state) + report_key(report))
            break
        trace.append(state_key(state) + report_key(report))
    return trace


def validated(validate, schedule: MbspSchedule):
    try:
        return report_key(validate(schedule))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return raised(exc)


def refine_key(result) -> tuple:
    return (
        repr(result.trace),
        result.proposals,
        result.accepted,
        result.invalid,
        result.rounds,
        repr(result.initial_cost),
        repr(result.final_cost),
        schedule_digest(result.schedule),
    )


def new_state(schedule: MbspSchedule, cls):
    instance = schedule.instance
    return cls(instance.dag, instance.num_processors, instance.cache_size)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestReplayMatchesReference:
    @given(fractional_dags(), machines, two_stages, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=120, deadline=None)
    def test_valid_schedules(self, dag, machine, two_stage, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        assert validated(validate_schedule, schedule) == validated(
            reference_validate_schedule, schedule
        )
        assert stepwise(
            new_state(schedule, PebblingState), replay_superstep, schedule, ValidationReport()
        ) == stepwise(
            new_state(schedule, ReferencePebblingState),
            reference_replay_superstep,
            schedule,
            ValidationReport(),
        )
        assert state_key(replay_final_state(schedule)) == state_key(
            reference_replay_final_state(schedule)
        )

    @given(fractional_dags(), machines, two_stages, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=250, deadline=None)
    def test_corrupted_schedules(self, dag, machine, two_stage, seed):
        schedule = corrupted(converted(dag, machine, two_stage), seed)
        assert validated(validate_schedule, schedule) == validated(
            reference_validate_schedule, schedule
        )
        assert stepwise(
            new_state(schedule, PebblingState), replay_superstep, schedule, ValidationReport()
        ) == stepwise(
            new_state(schedule, ReferencePebblingState),
            reference_replay_superstep,
            schedule,
            ValidationReport(),
        )

    @given(fractional_dags(), machines, two_stages, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_incremental_validator_snapshots(self, dag, machine, two_stage, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        actual = engine.IncrementalValidator(schedule).snapshots
        expected = ReferenceIncrementalValidator(schedule).snapshots
        assert [state_key(state) for state in actual] == [state_key(state) for state in expected]


def diamond_schedule() -> MbspSchedule:
    """Everything on processor 0: load ``a``, compute ``b``, ``c``, ``d``, save ``d``."""
    dag = ComputationalDag(name="diamond")
    for v, omega, mu in (("a", 1, 0.1), ("b", 2, 0.2), ("c", 3, 0.3), ("d", 1, 0.1)):
        dag.add_node(v, omega=omega, mu=mu)
    for u, v in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        dag.add_edge(u, v)
    schedule = MbspSchedule(make_instance(dag, num_processors=2, cache_factor=2.0, g=1.0, L=10.0))
    schedule.new_superstep()[0].load_phase.append("a")
    step = schedule.new_superstep()
    step[0].compute_phase.extend([compute_op("b"), compute_op("c"), compute_op("d")])
    step[0].save_phase.append("d")
    return schedule


def _tight(schedule: MbspSchedule) -> MbspSchedule:
    instance = schedule.instance
    tight = MbspSchedule(
        make_instance(instance.dag, num_processors=2, cache_size=0.55, g=1.0, L=10.0)
    )
    tight.supersteps = schedule.supersteps
    return tight


def _extra_entry(schedule: MbspSchedule) -> MbspSchedule:
    schedule.supersteps[0].processor_steps.append(ProcessorSuperstep(load_phase=["a"]))
    return schedule


CORRUPTIONS = {
    "missing parent": lambda sch: sch.supersteps[0][0].load_phase.clear() or sch,
    "absent red pebble (save)": lambda sch: sch.supersteps[1][1].save_phase.append("c") or sch,
    "absent red pebble (delete)": lambda sch: sch.supersteps[1][1].delete_phase.append("a") or sch,
    "absent red pebble (compute-phase delete)": lambda sch: sch.supersteps[1][0].compute_phase.insert(0, delete_op("d")) or sch,
    "absent blue pebble": lambda sch: sch.supersteps[0][1].load_phase.append("b") or sch,
    "capacity overflow": _tight,
    "unknown node": lambda sch: sch.supersteps[1][0].compute_phase.append(compute_op("nope")) or sch,
    "computed source": lambda sch: sch.supersteps[1][0].compute_phase.append(compute_op("a")) or sch,
    "LOAD in a compute phase": lambda sch: sch.supersteps[1][1].compute_phase.append(load_op("a")) or sch,
    "SAVE in a compute phase": lambda sch: sch.supersteps[1][0].compute_phase.append(save_op("b")) or sch,
    "extra processor entries": _extra_entry,
    "sink never saved": lambda sch: sch.supersteps[1][0].save_phase.clear() or sch,
}


class TestErrorsMatchReference:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_same_exception_and_state(self, name):
        schedule = CORRUPTIONS[name](diamond_schedule())
        outcome = validated(validate_schedule, schedule)
        assert outcome == validated(reference_validate_schedule, schedule)
        assert isinstance(outcome[0], type)    # every corruption is rejected
        assert stepwise(
            new_state(schedule, PebblingState), replay_superstep, schedule, ValidationReport()
        ) == stepwise(
            new_state(schedule, ReferencePebblingState),
            reference_replay_superstep,
            schedule,
            ValidationReport(),
        )

    def test_the_diamond_itself_is_valid(self):
        schedule = diamond_schedule()
        assert validated(validate_schedule, schedule) == validated(
            reference_validate_schedule, schedule
        )
        assert validate_schedule(schedule).num_computes == 3


class TestRefineMatchesReference:
    @given(
        fractional_dags(),
        machines,
        two_stages,
        st.sampled_from(["hill", "anneal"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_refine_result(self, dag, machine, two_stage, strategy, synchronous, seed):
        schedule = with_redundant_saves(converted(dag, machine, two_stage), seed)
        config = RefineConfig(strategy=strategy, budget=300, seed=seed)
        actual = Refiner(config).refine(schedule, synchronous=synchronous)
        with reference_refinement():
            expected = Refiner(config).refine(schedule, synchronous=synchronous)
        assert refine_key(actual) == refine_key(expected)


class TestMinimumCacheSizeMatchesReference:
    @given(fractional_dags())
    @settings(max_examples=150, deadline=None)
    def test_r0(self, dag):
        assert repr(minimum_cache_size(dag)) == repr(reference_minimum_cache_size(dag))
