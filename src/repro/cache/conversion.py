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

Each processor's cache is simulated by one loop over its compute sequence.
A cached value's next use, last use and insertion index change only when
the value enters the cache and when a compute consumes it as a parent, so
they are kept in dicts refreshed at exactly those two points.  A policy with
a total order (see :func:`~repro.cache.policies.victim_rank`) also gets each
value's rank there, and every make-room loop evicts its candidates in one
stable sort on it, highest rank first.  Any other policy is asked
``choose_victim`` once per eviction, about
:class:`~repro.cache.policies.CacheEntryInfo` records built from the dicts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dag.graph import DagSnapshot, NodeId
from repro.exceptions import InfeasibleInstanceError, ScheduleError
from repro.bsp.schedule import BspSchedule
from repro.cache.policies import (
    CacheEntryInfo,
    ClairvoyantPolicy,
    EvictionPolicy,
    victim_rank,
)
from repro.model.instance import MbspInstance
from repro.model.pebbling import Operation, compute_op, delete_op
from repro.model.schedule import MbspSchedule, Superstep

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
        self.proc = proc
        self.sequence = sequence
        self.cache_size = cache_size
        self.policy = policy
        self.rank_of = victim_rank(policy)
        required_in_slow_memory = set(required_in_slow_memory or ())

        # the cached values in insertion order, each with its next local use;
        # the last use, insertion index and rank of every value ever cached
        # (an evicted value's stale entries are overwritten when it returns)
        self.next_use: Dict[NodeId, float] = {}
        self.last_use: Dict[NodeId, int] = {}
        self.inserted: Dict[NodeId, int] = {}
        self.rank: Dict[NodeId, tuple] = {}
        self.used = 0.0

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
                or node in required_in_slow_memory
                or any(placement.get(child, proc) != proc for child in children)
            )
            self.needs_creation_save[node] = needed

        # every value this processor can cache: its computes and their inputs
        cacheable = {node for _group, node in sequence}
        cacheable.update(self.use_positions)
        # the values in slow memory from this processor's viewpoint: sources,
        # values computed on another processor (creation-saved there, because
        # this processor consumes them), and from now on the values saved here
        self.blue: Set[NodeId] = {
            u for u in cacheable if u in snap.sources or placement.get(u, proc) != proc
        }
        # the dense rank of str(node), which orders like the name
        names = {u: str(u) for u in cacheable}
        order = {name: i for i, name in enumerate(sorted(set(names.values())))}
        self.name_rank = {u: order[name] for u, name in names.items()}

    def _make_room(
        self, candidates: List[NodeId], load_mu: float, need: float
    ) -> List[Tuple[NodeId, float]]:
        """The make-room kernel: evict until ``load_mu`` and ``need`` more fit.

        Returns the victims in eviction order, each with its next use, and
        stops early when the candidates run out: the caller reads from
        ``used`` whether the room was made.  Nothing but the evictions
        changes the cache inside one make-room loop, so a ranked policy's
        victims come from one stable sort, highest rank first, and equal
        ranks go in candidate order, as ``max`` and ``min`` in repeated
        ``choose_victim`` calls would pick them.  Any other policy is asked
        once per eviction, about the candidates still cached.
        """
        limit = self.cache_size + 1e-9
        mu, next_use = self.mu, self.next_use
        ranked = self.rank_of is not None
        if ranked:
            # reversed, so that the next victim is the last candidate
            candidates = sorted(candidates, key=self.rank.__getitem__, reverse=True)[::-1]
        evicted = []
        while self.used + load_mu + need > limit and candidates:
            if ranked:
                victim = candidates.pop()
            else:
                victim = self.policy.choose_victim([
                    CacheEntryInfo(u, mu[u], next_use[u], self.last_use[u], self.inserted[u])
                    for u in candidates
                ])
                candidates.remove(victim)
            self.used -= mu[victim]
            evicted.append((victim, next_use.pop(victim)))
        return evicted

    def convert(self) -> Tuple[List[_Segment], List[_Prep]]:
        """Split the compute sequence into segments, each after its I/O block."""
        sequence, parents_of, mu = self.sequence, self.parents, self.mu
        cache, blue = self.next_use, self.blue
        use_positions, last_use, inserted = self.use_positions, self.last_use, self.inserted
        rank, rank_of, name_rank = self.rank, self.rank_of, self.name_rank
        bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
        limit = self.cache_size + 1e-9
        segments: List[_Segment] = []
        preps: List[_Prep] = []
        index = 0
        n = len(sequence)
        while index < n:
            # the save/delete/load block enabling the compute at ``index``
            group, node = sequence[index]
            prep = _Prep()
            parents = parents_of[node]
            loads = [u for u in parents if u not in cache]
            load_mu = sum(mu[u] for u in loads)
            if self.used + load_mu + mu[node] > limit:
                pinned = set(parents) | {node}
                candidates = [u for u in cache if u not in pinned]
                for victim, next_use in self._make_room(candidates, load_mu, mu[node]):
                    if victim not in blue and next_use < _INF:
                        prep.saves.append(victim)  # write-back before eviction
                        blue.add(victim)
                    prep.deletes.append(victim)
                if self.used + load_mu + mu[node] > limit:
                    raise InfeasibleInstanceError(
                        f"processor {self.proc}: cannot make room for node {node!r}; "
                        f"cache size {self.cache_size} is too small"
                    )
            for u in loads:
                if u not in blue:
                    raise ScheduleError(
                        f"processor {self.proc}: value {u!r} is required but is not "
                        f"available in slow memory (invalid BSP schedule?)"
                    )
                prep.loads.append(u)
                # u is an input of the compute at ``index``: its next use
                cache[u] = last_use[u] = inserted[u] = index
                self.used += mu[u]
                if rank_of is not None:
                    rank[u] = rank_of(index, mu[u], index, index, name_rank[u])
            preps.append(prep)

            # the segment: compute greedily until new I/O would be required
            segment = _Segment(group=group)
            segments.append(segment)
            pending_save: Set[NodeId] = set()
            while index < n and sequence[index][0] == group:
                node = sequence[index][1]
                parents = parents_of[node]
                if not all(map(cache.__contains__, parents)):
                    break
                need = mu[node]
                if self.used + need > limit:
                    # only clean values (already in slow memory, or never
                    # needed again) may be deleted inside a compute phase;
                    # a dirty one needs a save, which ends the segment
                    pinned = set(parents)
                    candidates = [
                        u for u, next_use in cache.items()
                        if u not in pinned and u != node and u not in pending_save
                        and (u in blue or next_use == _INF)
                    ]
                    for victim, _ in self._make_room(candidates, 0.0, need):
                        segment.compute_ops.append(delete_op(victim))
                    if self.used + need > limit:
                        break
                segment.compute_ops.append(compute_op(node))
                # insert the output, then move each input's next use past
                # ``index``: every later make-room loop runs further on
                uses = use_positions.get(node, ())
                k = bisect_left(uses, index)
                next_use = cache[node] = uses[k] if k < len(uses) else _INF
                last_use[node] = inserted[node] = index
                self.used += need
                if rank_of is not None:
                    rank[node] = rank_of(next_use, need, index, index, name_rank[node])
                for u in parents:
                    uses = use_positions[u]
                    k = bisect_right(uses, index)
                    next_use = cache[u] = uses[k] if k < len(uses) else _INF
                    last_use[u] = index
                    if rank_of is not None:
                        rank[u] = rank_of(next_use, mu[u], index, inserted[u], name_rank[u])
                if self.needs_creation_save[node] and node not in blue:
                    segment.creation_saves.append(node)
                    blue.add(node)
                    pending_save.add(node)
                index += 1
        return segments, preps


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
