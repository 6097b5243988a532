"""Standalone memory-management (cache) simulator.

The memory-management stage of the two-stage approach can be studied in
isolation (this is the sub-problem whose NP-hardness Lemmas 5.1 and 5.2
establish): the compute steps of one processor are fixed, and the only
freedom is which values to load, keep and evict.  This module simulates a
single processor's cache over a fixed compute order under an eviction policy
and reports the resulting I/O cost — the executable form of that sub-problem.
Only the tests (``tests/cache``) call it: the two-stage schedulers convert
schedules with :func:`repro.cache.conversion.two_stage_schedule`, and so
does the memory-pressure example.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import InfeasibleInstanceError
from repro.cache.policies import CacheEntryInfo, ClairvoyantPolicy, EvictionPolicy

_INF = float("inf")


@dataclass
class CacheSimulationResult:
    """Outcome of simulating one processor's cache over a compute order."""

    load_volume: float
    save_volume: float
    num_loads: int
    num_saves: int
    num_evictions: int
    peak_usage: float
    io_cost: float
    load_events: List[NodeId] = field(default_factory=list)


class CacheSimulator:
    """Simulates the cache of a single processor for a fixed compute order."""

    def __init__(
        self,
        dag: ComputationalDag,
        cache_size: float,
        policy: Optional[EvictionPolicy] = None,
        g: float = 1.0,
    ) -> None:
        self.dag = dag
        self.cache_size = cache_size
        self.policy = policy or ClairvoyantPolicy()
        self.g = g

    # ------------------------------------------------------------------
    def run(self, compute_order: Sequence[NodeId], save_sinks: bool = True) -> CacheSimulationResult:
        """Execute ``compute_order`` and return the I/O accounting.

        ``compute_order`` must be a topological order of the non-source nodes
        it contains (each node's non-source parents must appear earlier or be
        reloadable, i.e. have been computed earlier in the order).
        """
        dag = self.dag
        computed_before: Set[NodeId] = set()
        for v in compute_order:
            if dag.is_source(v):
                raise InfeasibleInstanceError(f"source node {v!r} cannot be computed")
            for u in dag.parents(v):
                if not dag.is_source(u) and u not in computed_before:
                    raise InfeasibleInstanceError(
                        f"compute order is not feasible: {u!r} must precede {v!r}"
                    )
            computed_before.add(v)

        # positions where each value is used as an input
        use_positions: Dict[NodeId, List[int]] = {}
        for idx, v in enumerate(compute_order):
            for u in dag.parents(v):
                use_positions.setdefault(u, []).append(idx)

        cache: Dict[NodeId, float] = {}
        used = 0.0
        blue: Set[NodeId] = set(dag.sources())
        last_use: Dict[NodeId, int] = {}
        insertion: Dict[NodeId, int] = {}

        loads = saves = evictions = 0
        load_volume = save_volume = 0.0
        peak = 0.0
        load_events: List[NodeId] = []

        def next_use(node: NodeId, position: int) -> float:
            uses = use_positions.get(node)
            if not uses:
                return _INF
            i = bisect.bisect_left(uses, position)
            return uses[i] if i < len(uses) else _INF

        def evict_for(space: float, position: int, pinned: Set[NodeId]) -> None:
            nonlocal used, saves, save_volume, evictions
            while used + space > self.cache_size + 1e-9:
                candidates = [
                    CacheEntryInfo(
                        node=u,
                        mu=cache[u],
                        next_use=next_use(u, position),
                        last_use=last_use.get(u, -1),
                        insertion=insertion.get(u, -1),
                    )
                    for u in cache
                    if u not in pinned
                ]
                if not candidates:
                    raise InfeasibleInstanceError(
                        f"cache of size {self.cache_size} cannot hold the working set "
                        f"at position {position}"
                    )
                victim = self.policy.choose_victim(candidates)
                if victim not in blue and next_use(victim, position) < _INF:
                    blue.add(victim)            # write-back before eviction
                    saves += 1
                    save_volume += cache[victim]
                used -= cache.pop(victim)
                evictions += 1

        for position, v in enumerate(compute_order):
            parents = dag.parents(v)
            missing = [u for u in parents if u not in cache]
            pinned = set(parents) | {v}
            needed = sum(dag.mu(u) for u in missing) + dag.mu(v)
            evict_for(needed, position, pinned)
            for u in missing:
                if u not in blue:
                    raise InfeasibleInstanceError(
                        f"value {u!r} is needed but neither cached nor in slow memory"
                    )
                cache[u] = dag.mu(u)
                used += dag.mu(u)
                loads += 1
                load_volume += dag.mu(u)
                load_events.append(u)
                insertion[u] = position
                last_use[u] = position
            cache[v] = dag.mu(v)
            used += dag.mu(v)
            insertion[v] = position
            last_use[v] = position
            for u in parents:
                last_use[u] = position
            if save_sinks and dag.is_sink(v):
                blue.add(v)
                saves += 1
                save_volume += dag.mu(v)
            peak = max(peak, used)

        return CacheSimulationResult(
            load_volume=load_volume,
            save_volume=save_volume,
            num_loads=loads,
            num_saves=saves,
            num_evictions=evictions,
            peak_usage=peak,
            io_cost=self.g * (load_volume + save_volume),
            load_events=load_events,
        )


def simulate_cache(
    dag: ComputationalDag,
    compute_order: Sequence[NodeId],
    cache_size: float,
    policy: Optional[EvictionPolicy] = None,
    g: float = 1.0,
) -> CacheSimulationResult:
    """Convenience wrapper around :class:`CacheSimulator`."""
    return CacheSimulator(dag, cache_size, policy=policy, g=g).run(compute_order)
