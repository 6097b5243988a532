"""Differential test: the incremental two-stage kernels against their scanning originals.

The first-stage schedulers and the cache conversion used to rescan the whole
ready set, schedule or cache on every step.  They now work incrementally and
must give byte-identical schedules.  The originals are kept below, verbatim,
as the reference implementation:

* the greedy BSP scheduler's scan loop and its helpers (``_ready_nodes``,
  ``_blocked_exists``, ``_allowed_processors``, ``_best_processor``);
* ``etf_placement``, which evaluated every (ready node, processor) pair's
  earliest start from scratch at every step;
* the converter's ``_prepare_for`` and ``_make_room_in_phase`` (with the
  ``_entry_info`` helper they call), which rebuilt the eviction candidates
  before every single eviction.

Hypothesis draws small DAGs whose weights repeat and include zeros, so ties
in bottom levels, start times and eviction keys are common.  Every case must
agree on the BSP ``(processor, superstep, order)`` triples, the MBSP
``schedule_digest`` and both cost models, or fail with the same error.
"""

from __future__ import annotations

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
from repro.cache.conversion import _INF, _Prep, _ProcessorConverter, _Segment, two_stage_schedule
from repro.cache.policies import CacheEntryInfo, make_policy
from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import InfeasibleInstanceError, ScheduleError
from repro.model.cost import asynchronous_cost, synchronous_cost
from repro.model.instance import make_instance
from repro.model.pebbling import delete_op
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


def reference_etf_bsp_schedule(dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
    with mock.patch.object(etf_module, "etf_placement", reference_etf_placement):
        return etf_bsp_schedule(dag, num_processors, g=g)


class ReferenceProcessorConverter(_ProcessorConverter):
    """The converter with its original per-eviction candidate rebuild."""

    def __init__(self, dag: ComputationalDag, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dag = dag

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


@contextmanager
def reference_conversion(dag: ComputationalDag):
    """Run :func:`two_stage_schedule` with the reference converter."""
    def factory(*args, **kwargs):
        return ReferenceProcessorConverter(dag, *args, **kwargs)

    with mock.patch.object(conversion, "_ProcessorConverter", factory):
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
