"""Two-stage conversion: BSP schedule + eviction policy -> valid MBSP schedule.

This implements the conversion described in Section 4 of the paper: given a
BSP schedule produced by a first-stage scheduler (which ignores the memory
bound), every BSP compute phase is split into maximally long segments of
compute steps that can be executed without new I/O, and the segments are
interleaved with save/delete/load phases chosen by a cache-management policy
(clairvoyant or LRU).  The result is a valid MBSP schedule on which the
synchronous/asynchronous cost functions can be evaluated and which also
serves as the initial solution of the ILP-based scheduler.

Conversion rules
----------------
* A value computed on processor ``p`` is saved to slow memory in the same
  superstep it is computed in if it is a sink or has a consumer on another
  processor ("creation save").
* When a value must be evicted while it is still dirty (not yet in slow
  memory) and will be needed again locally, it is saved first ("write-back").
* Values that are never needed again are preferred eviction victims under the
  clairvoyant policy (their next use is infinitely far away).
* Source nodes are never computed; they are loaded from slow memory where
  needed.

Each processor's cache is simulated with one :class:`~repro.cache.policies.
CacheEntryInfo` per cached value, kept across make-room loops.  An entry's
next use, last use and insertion index change only when the value enters
the cache and when a compute consumes it as a parent, so the entry is
refreshed at exactly those two points and every make-room loop hands the
policy the entries as they stand.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.graph import DagSnapshot, NodeId
from repro.exceptions import InfeasibleInstanceError, ScheduleError
from repro.bsp.schedule import BspSchedule
from repro.cache.policies import CacheEntryInfo, ClairvoyantPolicy, EvictionPolicy
from repro.model.instance import MbspInstance
from repro.model.pebbling import Operation, compute_op, delete_op
from repro.model.schedule import MbspSchedule, ProcessorSuperstep, Superstep

_INF = float("inf")


@dataclass
class _Segment:
    """A maximal run of compute steps of one processor inside one BSP superstep."""

    group: int
    compute_ops: List[Operation] = field(default_factory=list)
    creation_saves: List[NodeId] = field(default_factory=list)


@dataclass
class _Prep:
    """The I/O block (saves, deletions, loads) preparing one segment."""

    saves: List[NodeId] = field(default_factory=list)
    deletes: List[NodeId] = field(default_factory=list)
    loads: List[NodeId] = field(default_factory=list)


class _ProcessorConverter:
    """Simulates one processor's cache while splitting its compute sequence."""

    def __init__(
        self,
        snap: DagSnapshot,
        proc: int,
        sequence: List[Tuple[int, NodeId]],
        placement: Dict[NodeId, int],
        cache_size: float,
        policy: EvictionPolicy,
        required_in_slow_memory: Optional[Set[NodeId]] = None,
    ) -> None:
        self.parents = snap.parents
        self.mu = snap.mu
        self.sources = snap.sources
        self.proc = proc
        self.sequence = sequence
        self.placement = placement
        self.cache_size = cache_size
        self.policy = policy
        self.required_in_slow_memory = set(required_in_slow_memory or ())

        # the cached values, in insertion order, each with its eviction
        # candidate info as of now
        self.cache: Dict[NodeId, CacheEntryInfo] = {}
        self.used = 0.0
        self.blue_local: Set[NodeId] = set()
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

    def _evict_one(self, candidates: List[CacheEntryInfo]) -> CacheEntryInfo:
        """Let the policy pick a victim, drop it from ``candidates`` and the cache.

        Nothing else changes inside a make-room loop, so the remaining
        candidates stay valid for the next choice.
        """
        victim = self.policy.choose_victim(candidates)
        entry = candidates.pop([c.node for c in candidates].index(victim))
        self._remove(victim)
        return entry

    def _insert(self, node: NodeId, position: int) -> None:
        mu = self.mu[node]
        self.cache[node] = CacheEntryInfo(
            node, mu, self._next_use(node, position), position, position
        )
        self.used += mu

    def _consume(self, node: NodeId, position: int) -> None:
        """Record that the compute at ``position`` read the cached ``node``.

        Every later make-room loop runs at a later position, so the next
        use moves past ``position``.
        """
        entry = self.cache[node]
        self.cache[node] = CacheEntryInfo(
            node, entry.mu, self._next_use(node, position + 1), position, entry.insertion
        )

    def _remove(self, node: NodeId) -> None:
        self.used -= self.cache.pop(node).mu

    # ------------------------------------------------------------------
    # segment construction
    # ------------------------------------------------------------------
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

    def _prepare_for(self, position: int) -> _Prep:
        """Build the save/delete/load block enabling the compute at ``position``."""
        group, node = self.sequence[position]
        prep = _Prep()
        parents = self.parents[node]
        loads = [u for u in parents if u not in self.cache]
        load_mu = sum(self.mu[u] for u in loads)
        pinned = set(parents) | {node}
        target = self.used + load_mu + self.mu[node]
        if target > self.cache_size + 1e-9:
            candidates = [entry for u, entry in self.cache.items() if u not in pinned]
            while target > self.cache_size + 1e-9:
                if not candidates:
                    raise InfeasibleInstanceError(
                        f"processor {self.proc}: cannot make room for node {node!r}; "
                        f"cache size {self.cache_size} is too small"
                    )
                victim = self._evict_one(candidates)
                if not self._is_blue(victim.node) and victim.next_use < _INF:
                    prep.saves.append(victim.node)  # write-back before eviction
                    self.blue_local.add(victim.node)
                prep.deletes.append(victim.node)
                target = self.used + load_mu + self.mu[node]
        for u in loads:
            if not self._is_blue(u):
                raise ScheduleError(
                    f"processor {self.proc}: value {u!r} is required but is not "
                    f"available in slow memory (invalid BSP schedule?)"
                )
            prep.loads.append(u)
            self._insert(u, position)
        return prep

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
                self._consume(u, index)
            if self.needs_creation_save[node] and not self._is_blue(node):
                segment.creation_saves.append(node)
                self.blue_local.add(node)
                self.pending_save.add(node)
            index += 1
        self.pending_save = set()
        return segment, index

    def _make_room_in_phase(self, node: NodeId, position: int, segment: _Segment) -> bool:
        """Free space for ``node``'s output using compute-phase DELETEs only.

        Only *clean* values (already in slow memory, or never needed again)
        may be deleted inside a compute phase; dirty values would first need a
        save, which is only possible in the save phase and therefore ends the
        segment.  Returns False when not enough clean space can be freed.
        """
        need = self.mu[node]
        if self.used + need <= self.cache_size + 1e-9:
            return True
        parents = set(self.parents[node])
        candidates = [
            entry for u, entry in self.cache.items()
            if u not in parents and u != node and u not in self.pending_save
            and (self._is_blue(u) or entry.next_use == _INF)
        ]
        while self.used + need > self.cache_size + 1e-9:
            if not candidates:
                return False
            segment.compute_ops.append(delete_op(self._evict_one(candidates).node))
        return True


class TwoStageConverter:
    """Convert a BSP schedule into a valid MBSP schedule with a cache policy."""

    def __init__(self, policy: Optional[EvictionPolicy] = None) -> None:
        self.policy = policy or ClairvoyantPolicy()

    # ------------------------------------------------------------------
    def convert(
        self,
        bsp_schedule: BspSchedule,
        instance: MbspInstance,
        required_in_slow_memory: Optional[Set[NodeId]] = None,
    ) -> MbspSchedule:
        """Produce the MBSP schedule implementing ``bsp_schedule`` on ``instance``.

        ``required_in_slow_memory`` lists extra values (besides the sinks)
        that must carry a blue pebble when the schedule finishes; this is used
        by the divide-and-conquer scheduler whose sub-problems feed values to
        later sub-problems.
        """
        instance.require_feasible()
        bsp_schedule.validate()
        dag = instance.dag
        P = instance.num_processors
        if bsp_schedule.num_processors != P:
            raise ScheduleError(
                f"BSP schedule uses {bsp_schedule.num_processors} processors, "
                f"instance has {P}"
            )

        placement = {
            v: bsp_schedule.processor_of(v)
            for v in dag.nodes
            if not dag.is_source(v) and bsp_schedule.is_assigned(v)
        }

        # per-processor compute sequences tagged with their BSP superstep
        sequences: List[List[Tuple[int, NodeId]]] = []
        num_groups = bsp_schedule.num_supersteps
        for p in range(P):
            seq: List[Tuple[int, NodeId]] = []
            for s in range(num_groups):
                for v in bsp_schedule.cell(p, s):
                    seq.append((s, v))
            sequences.append(seq)

        all_segments: List[List[_Segment]] = []
        all_preps: List[List[_Prep]] = []
        snap = dag.snapshot()
        for p in range(P):
            converter = _ProcessorConverter(
                snap,
                p,
                sequences[p],
                placement,
                instance.cache_size,
                self.policy,
                required_in_slow_memory=required_in_slow_memory,
            )
            segments, preps = converter.convert()
            all_segments.append(segments)
            all_preps.append(preps)

        return self._assemble(instance, num_groups, all_segments, all_preps)

    # ------------------------------------------------------------------
    def _assemble(
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

        return MbspSchedule(instance, [step for step in supersteps if not step.is_empty()])


def two_stage_schedule(
    bsp_schedule: BspSchedule,
    instance: MbspInstance,
    policy: Optional[EvictionPolicy] = None,
    required_in_slow_memory: Optional[Set[NodeId]] = None,
) -> MbspSchedule:
    """Convenience wrapper: convert ``bsp_schedule`` with the given policy."""
    return TwoStageConverter(policy).convert(
        bsp_schedule, instance, required_in_slow_memory=required_in_slow_memory
    )
