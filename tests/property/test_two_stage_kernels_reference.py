"""Differential test: the incremental two-stage kernels against their scanning originals.

The first-stage schedulers and the cache conversion used to rescan the whole
ready set, schedule or cache on every step.  They now work incrementally and
must give byte-identical schedules.  The originals are kept below, verbatim,
as the reference implementation:

* the greedy BSP scheduler's scan loop and its helpers (``_ready_nodes``,
  ``_blocked_exists``, ``_allowed_processors``, ``_best_processor``);
* ``etf_placement``, which evaluated every (ready node, processor) pair's
  earliest start from scratch at every step, and its successor, which
  scanned the ready nodes' data-ready rows at every step
  (``scan_etf_placement``) and is now a lazy start-time heap;
* the converter's ``_prepare_for`` and ``_make_room_in_phase`` (with the
  ``_entry_info`` helper they call), which rebuilt the eviction candidates
  before every single eviction, together with the rest of the per-processor
  converter as it stood before it kept one candidate entry per cached value
  across make-room loops (``__init__``, ``_is_blue``, ``_next_use``,
  ``_insert``, ``_remove``, ``convert``, ``_run_segment``);
* ``TwoStageConverter._assemble``, which deep-copied its supersteps through
  ``drop_empty_supersteps``.

The converter now evicts by one stable sort on a rank per cached value
instead of a policy call per eviction.

Hypothesis draws small DAGs whose weights repeat and include zeros, so ties
in bottom levels, start times and eviction keys are common, and DAGs whose
node ids collide under ``str`` (``1`` and ``"1"``), so that two candidates
share a name.  Every case must agree on the BSP ``(processor, superstep,
order)`` triples, the MBSP ``schedule_digest`` and both cost models, or fail
with the same error.
"""

from __future__ import annotations

import bisect
import random
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.bsp import etf as etf_module
from repro.bsp.cilk import cilk_bsp_schedule
from repro.bsp.etf import EtfPlacement, etf_bsp_schedule, etf_placement
from repro.bsp.greedy import GreedyBspScheduler, _bottom_levels, greedy_bsp_schedule
from repro.bsp.schedule import BspSchedule
from repro.cache import conversion
from repro.cache.conversion import _INF, _Prep, _Segment, two_stage_schedule
from repro.cache.policies import CacheEntryInfo, EvictionPolicy, make_policy
from repro.dag.graph import ComputationalDag, DagSnapshot, NodeId
from repro.exceptions import InfeasibleInstanceError, ScheduleError
from repro.model.cost import asynchronous_cost, synchronous_cost
from repro.model.instance import MbspInstance, make_instance
from repro.model.pebbling import compute_op, delete_op
from repro.model.schedule import MbspSchedule, Superstep
from repro.pipeline.stage import schedule_digest

POLICIES = ("clairvoyant", "lru", "fifo", "largest_first", "random")


# ----------------------------------------------------------------------
# the scanning originals, frozen verbatim
# ----------------------------------------------------------------------
class ReferenceGreedyBspScheduler(GreedyBspScheduler):
    """The greedy scheduler with its original rescanning loop."""

    # ------------------------------------------------------------------
    def schedule(self, dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
        """Compute a valid BSP schedule of ``dag`` on ``num_processors`` processors."""
        params = self.parameters
        schedule = BspSchedule(dag, num_processors)
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        if not computable:
            return schedule

        bottom = _bottom_levels(dag)
        total_work = sum(dag.omega(v) for v in computable)
        target_work = params.superstep_work_factor * total_work / max(num_processors, 1)

        # location of each produced value: processor -> set of nodes whose
        # value it holds "locally" (computed there, or a source it has fetched)
        produced_on: Dict[NodeId, int] = {}
        done_before: Set[NodeId] = set()      # computed in earlier supersteps
        remaining: Set[NodeId] = set(computable)
        superstep = 0

        while remaining:
            done_this_step: Dict[NodeId, int] = {}  # node -> processor (current superstep)
            load = [0.0] * num_processors
            progress = True
            while progress:
                progress = False
                ready = self._ready_nodes(dag, remaining, done_before, done_this_step)
                if not ready:
                    break
                # stop extending the superstep once every processor carries a
                # reasonable chunk of work and new nodes keep piling onto the
                # same processors (communication-bound growth)
                if min(load) >= target_work and self._blocked_exists(
                    dag, remaining, done_before, done_this_step
                ):
                    break
                # highest priority ready node first
                ready.sort(key=lambda v: (-bottom[v], str(v)))
                for v in ready:
                    allowed = self._allowed_processors(
                        dag, v, done_this_step, num_processors
                    )
                    if not allowed:
                        continue
                    proc = self._best_processor(
                        dag, v, allowed, load, produced_on, params
                    )
                    schedule.assign(v, proc, superstep)
                    load[proc] += dag.omega(v)
                    done_this_step[v] = proc
                    produced_on[v] = proc
                    remaining.discard(v)
                    progress = True
                    break  # re-evaluate priorities after each placement
            done_before.update(done_this_step.keys())
            superstep += 1
            if not done_this_step and remaining:
                # safety net: should not happen on a DAG, but avoid spinning
                raise RuntimeError("greedy BSP scheduler made no progress")
        schedule.validate()
        return schedule

    # ------------------------------------------------------------------
    def _ready_nodes(
        self,
        dag: ComputationalDag,
        remaining: Set[NodeId],
        done_before: Set[NodeId],
        done_this_step: Dict[NodeId, int],
    ) -> List[NodeId]:
        """Nodes whose parents are all available for *some* processor."""
        ready = []
        for v in remaining:
            ok = True
            same_step_procs: Set[int] = set()
            for u in dag.parents(v):
                if dag.is_source(u) or u in done_before:
                    continue
                if u in done_this_step:
                    same_step_procs.add(done_this_step[u])
                else:
                    ok = False
                    break
            if ok and len(same_step_procs) <= 1:
                ready.append(v)
        return ready

    def _blocked_exists(
        self,
        dag: ComputationalDag,
        remaining: Set[NodeId],
        done_before: Set[NodeId],
        done_this_step: Dict[NodeId, int],
    ) -> bool:
        """Whether some remaining node is blocked only by the superstep boundary."""
        for v in remaining:
            parents = [
                u for u in dag.parents(v) if not dag.is_source(u) and u not in done_before
            ]
            if parents and all(u in done_this_step for u in parents):
                procs = {done_this_step[u] for u in parents}
                if len(procs) > 1:
                    return True
        return False

    def _allowed_processors(
        self,
        dag: ComputationalDag,
        node: NodeId,
        done_this_step: Dict[NodeId, int],
        num_processors: int,
    ) -> List[int]:
        """Processors on which ``node`` may run in the current superstep."""
        forced: Set[int] = set()
        for u in dag.parents(node):
            if u in done_this_step:
                forced.add(done_this_step[u])
        if len(forced) > 1:
            return []
        if len(forced) == 1:
            return [next(iter(forced))]
        return list(range(num_processors))

    def _best_processor(
        self,
        dag: ComputationalDag,
        node: NodeId,
        allowed: List[int],
        load: List[float],
        produced_on: Dict[NodeId, int],
        params: GreedyBspParameters,
    ) -> int:
        """Score candidate processors by locality and balance; return the best."""
        min_load = min(load)
        best_proc, best_score = allowed[0], float("-inf")
        for p in allowed:
            locality = sum(
                dag.mu(u)
                for u in dag.parents(node)
                if produced_on.get(u) == p
            )
            score = (
                params.locality_weight * locality
                - params.balance_weight * (load[p] - min_load)
            )
            if score > best_score + 1e-12:
                best_score = score
                best_proc = p
        return best_proc


def reference_etf_placement(
    dag: ComputationalDag,
    num_processors: int,
    g: float = 1.0,
) -> EtfPlacement:
    """Compute an ETF placement of the non-source nodes of ``dag``."""
    if num_processors < 1:
        raise ValueError("num_processors must be at least 1")
    computable = [v for v in dag.nodes if not dag.is_source(v)]
    pending = {
        v: sum(1 for u in dag.parents(v) if not dag.is_source(u)) for v in computable
    }
    ready = {v for v in computable if pending[v] == 0}

    proc_free = [0.0] * num_processors
    placement: Dict[NodeId, int] = {}
    start_time: Dict[NodeId, float] = {}
    finish_time: Dict[NodeId, float] = {}
    order: List[NodeId] = []

    def earliest_start(v: NodeId, p: int) -> float:
        start = proc_free[p]
        for u in dag.parents(v):
            if dag.is_source(u):
                continue
            ready_at = finish_time[u]
            if placement[u] != p:
                ready_at += g * dag.mu(u)   # value must be communicated
            start = max(start, ready_at)
        return start

    while ready:
        # pick the (task, processor) pair with the globally earliest start;
        # ties are broken deterministically by node id
        best: Optional[Tuple[float, str, NodeId, int]] = None
        for v in ready:
            for p in range(num_processors):
                start = earliest_start(v, p)
                key = (start, str(v), v, p)
                if best is None or key[:2] < best[:2]:
                    best = key
        assert best is not None
        start, _, v, p = best
        placement[v] = p
        start_time[v] = start
        finish_time[v] = start + dag.omega(v)
        proc_free[p] = finish_time[v]
        order.append(v)
        ready.discard(v)
        for child in dag.children(v):
            if child in pending:
                pending[child] -= 1
                if pending[child] == 0:
                    ready.add(child)

    makespan = max(finish_time.values()) if finish_time else 0.0
    return EtfPlacement(
        placement=placement,
        order=order,
        start_time=start_time,
        finish_time=finish_time,
        makespan=makespan,
    )


def scan_etf_placement(
    dag: ComputationalDag,
    num_processors: int,
    g: float = 1.0,
) -> EtfPlacement:
    """Compute an ETF placement of the non-source nodes of ``dag``."""
    if num_processors < 1:
        raise ValueError("num_processors must be at least 1")
    snap = dag.snapshot()
    computable = [v for v in dag.nodes if v not in snap.sources]
    inputs = {v: [u for u in snap.parents[v] if u not in snap.sources] for v in computable}
    pending = {v: len(inputs[v]) for v in computable}

    proc_free = [0.0] * num_processors
    placement: Dict[NodeId, int] = {}
    start_time: Dict[NodeId, float] = {}
    finish_time: Dict[NodeId, float] = {}
    order: List[NodeId] = []

    def data_ready(v: NodeId) -> List[float]:
        """When all inputs of ``v`` can be on each processor (fixed once ``v`` is ready)."""
        row = [0.0] * num_processors
        for u in inputs[v]:
            local = finish_time[u]
            remote = local + g * snap.mu[u]   # value must be communicated
            q = placement[u]
            row = [max(r, local if p == q else remote) for p, r in enumerate(row)]
        return row

    name = {v: str(v) for v in computable}
    # ready node -> its data-ready row
    ready = {v: data_ready(v) for v in computable if pending[v] == 0}
    while ready:
        # pick the (task, processor) pair with the globally earliest start;
        # ties are broken deterministically by node id, then lowest processor
        best: Optional[Tuple[Tuple[float, str], NodeId]] = None
        for v, row in ready.items():
            key = (min(map(max, proc_free, row)), name[v])
            if best is None or key < best[0]:
                best = (key, v)
        assert best is not None
        (start, _), v = best
        p = list(map(max, proc_free, ready.pop(v))).index(start)
        placement[v] = p
        start_time[v] = start
        finish_time[v] = start + snap.omega[v]
        proc_free[p] = finish_time[v]
        order.append(v)
        for child in snap.children[v]:
            pending[child] -= 1
            if pending[child] == 0:
                ready[child] = data_ready(child)

    makespan = max(finish_time.values()) if finish_time else 0.0
    return EtfPlacement(
        placement=placement,
        order=order,
        start_time=start_time,
        finish_time=finish_time,
        makespan=makespan,
    )


def reference_etf_bsp_schedule(dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
    with mock.patch.object(etf_module, "etf_placement", reference_etf_placement):
        return etf_bsp_schedule(dag, num_processors, g=g)


class ReferenceProcessorConverter:
    """The converter with its original per-eviction candidate rebuild."""

    def __init__(
        self,
        dag: ComputationalDag,
        snap: DagSnapshot,
        proc: int,
        sequence: List[Tuple[int, NodeId]],
        placement: Dict[NodeId, int],
        cache_size: float,
        policy: EvictionPolicy,
        required_in_slow_memory: Optional[Set[NodeId]] = None,
    ) -> None:
        self.dag = dag
        self.parents = snap.parents
        self.mu = snap.mu
        self.sources = snap.sources
        self.proc = proc
        self.sequence = sequence
        self.placement = placement
        self.cache_size = cache_size
        self.policy = policy
        self.required_in_slow_memory = set(required_in_slow_memory or ())

        self.cache: Dict[NodeId, float] = {}
        self.used = 0.0
        self.blue_local: Set[NodeId] = set()
        self.last_use: Dict[NodeId, int] = {}
        self.insertion: Dict[NodeId, int] = {}
        self.pending_save: Set[NodeId] = set()

        # positions in this processor's sequence where each value is consumed
        self.use_positions: Dict[NodeId, List[int]] = {}
        for idx, (_group, node) in enumerate(sequence):
            for parent in self.parents[node]:
                self.use_positions.setdefault(parent, []).append(idx)

        # values that must be saved right after being computed: sinks, and
        # values consumed by another processor
        self.needs_creation_save: Dict[NodeId, bool] = {}
        for _group, node in sequence:
            children = snap.children[node]
            needed = (
                not children
                or node in self.required_in_slow_memory
                or any(placement.get(child, proc) != proc for child in children)
            )
            self.needs_creation_save[node] = needed

        self.segments: List[_Segment] = []
        self.preps: List[_Prep] = []

    # ------------------------------------------------------------------
    # cache bookkeeping helpers
    # ------------------------------------------------------------------
    def _is_blue(self, node: NodeId) -> bool:
        """Whether ``node`` is in slow memory from this processor's viewpoint."""
        if node in self.sources:
            return True
        if node in self.blue_local:
            return True
        # values computed on another processor are creation-saved there,
        # because this processor consumes them
        return self.placement.get(node, self.proc) != self.proc

    def _next_use(self, node: NodeId, position: int) -> float:
        """Index of the next local consumption of ``node`` at or after ``position``."""
        uses = self.use_positions.get(node)
        if not uses:
            return _INF
        idx = bisect.bisect_left(uses, position)
        return uses[idx] if idx < len(uses) else _INF

    def _insert(self, node: NodeId, position: int) -> None:
        self.cache[node] = self.mu[node]
        self.used += self.mu[node]
        self.insertion[node] = position
        self.last_use[node] = position

    def _remove(self, node: NodeId) -> None:
        self.used -= self.cache.pop(node)

    def convert(self) -> Tuple[List[_Segment], List[_Prep]]:
        """Split the compute sequence into segments with their I/O preparations."""
        index = 0
        n = len(self.sequence)
        while index < n:
            prep = self._prepare_for(index)
            segment, index = self._run_segment(index)
            self.preps.append(prep)
            self.segments.append(segment)
        return self.segments, self.preps

    def _run_segment(self, start: int) -> Tuple[_Segment, int]:
        """Execute compute steps greedily until new I/O would be required."""
        group = self.sequence[start][0]
        segment = _Segment(group=group)
        self.pending_save = set()
        index = start
        n = len(self.sequence)
        while index < n and self.sequence[index][0] == group:
            node = self.sequence[index][1]
            parents = self.parents[node]
            if any(u not in self.cache for u in parents):
                break
            if not self._make_room_in_phase(node, index, segment):
                break
            segment.compute_ops.append(compute_op(node))
            self._insert(node, index)
            for u in parents:
                self.last_use[u] = index
            if self.needs_creation_save[node] and not self._is_blue(node):
                segment.creation_saves.append(node)
                self.blue_local.add(node)
                self.pending_save.add(node)
            index += 1
        self.pending_save = set()
        return segment, index

    def _entry_info(self, node: NodeId, position: int) -> CacheEntryInfo:
        return CacheEntryInfo(
            node=node,
            mu=self.dag.mu(node),
            next_use=self._next_use(node, position),
            last_use=self.last_use.get(node, -1),
            insertion=self.insertion.get(node, -1),
        )

    def _prepare_for(self, position: int) -> _Prep:
        """Build the save/delete/load block enabling the compute at ``position``."""
        group, node = self.sequence[position]
        prep = _Prep()
        parents = self.dag.parents(node)
        loads = [u for u in parents if u not in self.cache]
        load_mu = sum(self.dag.mu(u) for u in loads)
        pinned = set(parents) | {node}
        target = self.used + load_mu + self.dag.mu(node)
        while target > self.cache_size + 1e-9:
            candidates = [
                self._entry_info(u, position) for u in self.cache if u not in pinned
            ]
            if not candidates:
                raise InfeasibleInstanceError(
                    f"processor {self.proc}: cannot make room for node {node!r}; "
                    f"cache size {self.cache_size} is too small"
                )
            victim = self.policy.choose_victim(candidates)
            if not self._is_blue(victim) and self._next_use(victim, position) < _INF:
                prep.saves.append(victim)       # write-back before eviction
                self.blue_local.add(victim)
            prep.deletes.append(victim)
            self._remove(victim)
            target = self.used + load_mu + self.dag.mu(node)
        for u in loads:
            if not self._is_blue(u):
                raise ScheduleError(
                    f"processor {self.proc}: value {u!r} is required but is not "
                    f"available in slow memory (invalid BSP schedule?)"
                )
            prep.loads.append(u)
            self._insert(u, position)
        return prep

    def _make_room_in_phase(self, node: NodeId, position: int, segment: _Segment) -> bool:
        """Free space for ``node``'s output using compute-phase DELETEs only.

        Only *clean* values (already in slow memory, or never needed again)
        may be deleted inside a compute phase; dirty values would first need a
        save, which is only possible in the save phase and therefore ends the
        segment.  Returns False when not enough clean space can be freed.
        """
        need = self.dag.mu(node)
        if self.used + need <= self.cache_size + 1e-9:
            return True
        parents = set(self.dag.parents(node))
        while self.used + need > self.cache_size + 1e-9:
            candidates = []
            for u in self.cache:
                if u in parents or u == node or u in self.pending_save:
                    continue
                if self._is_blue(u) or self._next_use(u, position) == _INF:
                    candidates.append(self._entry_info(u, position))
            if not candidates:
                return False
            victim = self.policy.choose_victim(candidates)
            segment.compute_ops.append(delete_op(victim))
            self._remove(victim)
        return True


def reference_assemble(
    self,
    instance: MbspInstance,
    num_groups: int,
    all_segments: List[List[_Segment]],
    all_preps: List[List[_Prep]],
) -> MbspSchedule:
    """Align per-processor segments into global supersteps.

    Each BSP superstep ``s`` becomes a block of ``G_s`` MBSP supersteps
    (the maximum number of segments any processor needs for it); a global
    "prologue" superstep 0 carries the loads for the very first segments.
    The I/O preparation of a segment is placed in the superstep directly
    preceding its compute phase.
    """
    P = instance.num_processors
    group_sizes = [0] * num_groups
    for p in range(P):
        counts = [0] * num_groups
        for seg in all_segments[p]:
            counts[seg.group] += 1
        for s in range(num_groups):
            group_sizes[s] = max(group_sizes[s], counts[s])

    offsets = [0] * num_groups
    running = 1  # superstep 0 is the prologue
    for s in range(num_groups):
        offsets[s] = running
        running += group_sizes[s]
    total_supersteps = running

    supersteps = [Superstep(P) for _ in range(total_supersteps)]

    for p in range(P):
        local_index_in_group: Dict[int, int] = {}
        for seg, prep in zip(all_segments[p], all_preps[p]):
            j = local_index_in_group.get(seg.group, 0)
            local_index_in_group[seg.group] = j + 1
            compute_step = offsets[seg.group] + j
            prep_step = offsets[seg.group] - 1 if j == 0 else compute_step - 1

            target = supersteps[compute_step][p]
            target.compute_phase.extend(seg.compute_ops)
            target.save_phase.extend(seg.creation_saves)

            prep_target = supersteps[prep_step][p]
            prep_target.save_phase.extend(prep.saves)
            prep_target.delete_phase.extend(prep.deletes)
            prep_target.load_phase.extend(prep.loads)

    schedule = MbspSchedule(instance, supersteps)
    return schedule.drop_empty_supersteps()


@contextmanager
def reference_conversion(dag: ComputationalDag):
    """Run :func:`two_stage_schedule` with the reference converter and assembly."""
    def factory(*args, **kwargs):
        return ReferenceProcessorConverter(dag, *args, **kwargs)

    with mock.patch.object(conversion, "_ProcessorConverter", factory), mock.patch.object(
        conversion.TwoStageConverter, "_assemble", reference_assemble
    ):
        yield


# ----------------------------------------------------------------------
# inputs and comparisons
# ----------------------------------------------------------------------
@st.composite
def tie_heavy_dags(draw):
    """Small random DAGs whose weights repeat and include zeros."""
    n = draw(st.integers(min_value=2, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weights = st.sampled_from([0, 0, 1, 2])
    dag = ComputationalDag("tie-heavy")
    for v in range(n):
        dag.add_node(v, omega=draw(weights), mu=draw(weights))
    for v in range(1, n):
        if rng.random() < 0.2:
            continue  # another source
        for u in rng.sample(range(v), min(v, rng.randint(1, 3))):
            dag.add_edge(u, v)
    return dag


@st.composite
def colliding_dags(draw):
    """Tie-heavy DAGs whose node ids collide under ``str``: node ``2k`` is
    the int ``k`` and node ``2k + 1`` the string ``"k"``."""
    base = draw(tie_heavy_dags())
    ids = {v: v // 2 if v % 2 == 0 else str(v // 2) for v in base.nodes}
    dag = ComputationalDag("colliding")
    for v in base.nodes:
        dag.add_node(ids[v], omega=base.omega(v), mu=base.mu(v))
    for u, v in base.edges():
        dag.add_edge(ids[u], ids[v])
    return dag


machines = st.tuples(
    st.sampled_from([1, 2, 3, 8]),        # processors
    st.sampled_from([0.0, 1.0]),          # g
    st.sampled_from([1.0, 1.5, 3.0]),     # cache factor
)


def triples(bsp: BspSchedule) -> Dict[NodeId, Tuple[int, int, int]]:
    return {v: (a.processor, a.superstep, a.order) for v, a in bsp.assignment.items()}


def outcome(convert):
    """Digest and both costs of a conversion, or the error it raised."""
    try:
        schedule = convert()
    except (InfeasibleInstanceError, ScheduleError) as exc:
        return type(exc).__name__, str(exc)
    return schedule_digest(schedule), synchronous_cost(schedule), asynchronous_cost(schedule)


class TestFirstStagesMatchReference:
    @given(tie_heavy_dags(), machines)
    @settings(max_examples=150, deadline=None)
    def test_greedy(self, dag, machine):
        P, g, _ = machine
        expected = ReferenceGreedyBspScheduler().schedule(dag, P, g=g)
        assert triples(greedy_bsp_schedule(dag, P, g=g)) == triples(expected)

    @given(tie_heavy_dags(), machines)
    @settings(max_examples=150, deadline=None)
    def test_etf(self, dag, machine):
        P, g, _ = machine
        expected, actual = reference_etf_placement(dag, P, g=g), etf_placement(dag, P, g=g)
        assert actual == expected
        assert triples(etf_bsp_schedule(dag, P, g=g)) == triples(
            reference_etf_bsp_schedule(dag, P, g=g)
        )

    @given(st.one_of(tie_heavy_dags(), colliding_dags()), machines)
    @settings(max_examples=200, deadline=None)
    def test_etf_heap_matches_the_scan(self, dag, machine):
        P, g, _ = machine
        assert etf_placement(dag, P, g=g) == scan_etf_placement(dag, P, g=g)


class TestTwoStageMatchesReference:
    @given(tie_heavy_dags(), machines)
    @settings(max_examples=150, deadline=None)
    def test_every_first_stage_and_policy(self, dag, machine):
        P, g, factor = machine
        instance = make_instance(dag, num_processors=P, cache_factor=factor, g=g, L=10.0)
        firsts = {
            "bspg": (greedy_bsp_schedule(dag, P, g=g),
                     ReferenceGreedyBspScheduler().schedule(dag, P, g=g)),
            "etf": (etf_bsp_schedule(dag, P, g=g), reference_etf_bsp_schedule(dag, P, g=g)),
            "cilk": (cilk_bsp_schedule(dag, P), cilk_bsp_schedule(dag, P)),
        }
        for name, (bsp, reference_bsp) in firsts.items():
            assert triples(bsp) == triples(reference_bsp), name
            for policy in POLICIES:
                actual = outcome(lambda: two_stage_schedule(bsp, instance, make_policy(policy)))
                with reference_conversion(dag):
                    expected = outcome(
                        lambda: two_stage_schedule(reference_bsp, instance, make_policy(policy))
                    )
                assert actual == expected, (name, policy)

    @given(colliding_dags(), machines)
    @settings(max_examples=150, deadline=None)
    def test_names_that_collide(self, dag, machine):
        """Equal names rank equal: the victim is the first such candidate.

        The original first stages iterate sets, whose order decides their
        ties between equal names, so both conversions start from the
        schedules of today's first stages.
        """
        P, g, factor = machine
        instance = make_instance(dag, num_processors=P, cache_factor=factor, g=g, L=10.0)
        for bsp in (
            greedy_bsp_schedule(dag, P, g=g),
            etf_bsp_schedule(dag, P, g=g),
            cilk_bsp_schedule(dag, P),
        ):
            for policy in POLICIES:
                actual = outcome(lambda: two_stage_schedule(bsp, instance, make_policy(policy)))
                with reference_conversion(dag):
                    expected = outcome(
                        lambda: two_stage_schedule(bsp, instance, make_policy(policy))
                    )
                assert actual == expected, policy
