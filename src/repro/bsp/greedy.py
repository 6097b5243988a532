"""Greedy BSP scheduler in the spirit of the BSPg heuristic of Papp et al. [36].

The original BSPg algorithm grows supersteps greedily: inside the current
superstep it repeatedly assigns ready nodes to processors, balancing work
while preferring placements that avoid communication; a new superstep starts
when no more nodes can be scheduled under the BSP precedence rule (a node may
only be computed in the current superstep if all its cross-processor inputs
were produced in *earlier* supersteps).

This module is a from-scratch reimplementation of that strategy:

* nodes are prioritised by their *bottom level* (longest compute-weighted
  path to a sink), the classic critical-path priority;
* candidate processors are scored by data locality (memory weight of inputs
  already present on the processor) minus a load-imbalance penalty;
* a superstep ends when no node is ready, or as soon as every processor
  holds at least ``superstep_work_factor * W / P`` work (``W`` the total
  work) and one remaining node is blocked only by the superstep boundary:
  all its inputs are computed, but those computed in the current superstep
  lie on more than one processor (this mirrors BSPg's balance/locality
  trade-off).

Readiness is monotone within a superstep: once a node's inputs are all
computed, with those of the current superstep on at most one processor, it
stays placeable until the superstep ends.  The scheduler therefore keeps the
ready nodes in a heap and places the top one at every step; nodes blocked
only by the boundary wait in a list and join the heap when the superstep
ends.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dag.graph import ComputationalDag, NodeId
from repro.bsp.schedule import BspSchedule


@dataclass
class GreedyBspParameters:
    """Tunable knobs of the greedy BSP scheduler.

    Attributes
    ----------
    locality_weight:
        Weight of the data-locality term in the processor score.
    balance_weight:
        Weight of the load-imbalance penalty in the processor score.
    superstep_work_factor:
        A superstep is cut early once every processor holds at least
        ``superstep_work_factor * total_work / P`` work and some nodes are
        blocked only by the superstep boundary.
    """

    locality_weight: float = 2.0
    balance_weight: float = 1.0
    superstep_work_factor: float = 0.4


def _bottom_levels(dag: ComputationalDag) -> Dict[NodeId, float]:
    """Longest compute-weighted path from each node to a sink (inclusive)."""
    levels: Dict[NodeId, float] = {}
    for v in reversed(dag.topological_order()):
        own = 0.0 if dag.is_source(v) else dag.omega(v)
        children = dag.children(v)
        levels[v] = own + (max(levels[c] for c in children) if children else 0.0)
    return levels


class GreedyBspScheduler:
    """BSPg-style greedy BSP list scheduler."""

    def __init__(self, parameters: Optional[GreedyBspParameters] = None) -> None:
        self.parameters = parameters or GreedyBspParameters()

    # ------------------------------------------------------------------
    def schedule(self, dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
        """Compute a valid BSP schedule of ``dag`` on ``num_processors`` processors."""
        params = self.parameters
        schedule = BspSchedule(dag, num_processors)
        snap = dag.snapshot()
        parents, mu = snap.parents, snap.mu
        computable = [v for v in dag.nodes if v not in snap.sources]
        if not computable:
            return schedule

        bottom = _bottom_levels(dag)
        total_work = sum(snap.omega[v] for v in computable)
        target_work = params.superstep_work_factor * total_work / max(num_processors, 1)

        # heap entries: highest bottom level first, ties by node id (the index
        # keeps distinct nodes with equal ``str`` from being compared)
        entry = {v: (-bottom[v], str(v), i, v) for i, v in enumerate(computable)}
        unfinished = {
            v: sum(1 for u in parents[v] if u not in snap.sources) for v in computable
        }
        ready = [entry[v] for v in computable if unfinished[v] == 0]
        heapq.heapify(ready)
        produced_on: Dict[NodeId, int] = {}  # computed node -> its processor
        superstep = 0

        while len(produced_on) < len(computable):
            this_step: Dict[NodeId, int] = {}  # node -> processor (current superstep)
            # input-complete nodes whose inputs of this superstep lie on more
            # than one processor: blocked only by the superstep boundary
            blocked: List[NodeId] = []
            load = [0.0] * num_processors
            # cut the superstep early once every processor carries its share
            # of work and some node waits only for the boundary
            while ready and not (min(load) >= target_work and blocked):
                v = heapq.heappop(ready)[-1]
                # inputs of this superstep, if any, pin v to their one processor
                forced = {this_step[u] for u in parents[v] if u in this_step}
                allowed = list(forced) if forced else range(num_processors)
                # score processors by locality and balance; keep the best
                min_load = min(load)
                proc, best_score = allowed[0], float("-inf")
                for p in allowed:
                    locality = sum(mu[u] for u in parents[v] if produced_on.get(u) == p)
                    score = (
                        params.locality_weight * locality
                        - params.balance_weight * (load[p] - min_load)
                    )
                    if score > best_score + 1e-12:
                        best_score = score
                        proc = p
                schedule.assign(v, proc, superstep)
                load[proc] += snap.omega[v]
                this_step[v] = produced_on[v] = proc
                for c in snap.children[v]:
                    unfinished[c] -= 1
                    if unfinished[c] == 0:
                        if len({this_step[u] for u in parents[c] if u in this_step}) > 1:
                            blocked.append(c)
                        else:
                            heapq.heappush(ready, entry[c])
            if not this_step:
                # safety net: should not happen on a DAG, but avoid spinning
                raise RuntimeError("greedy BSP scheduler made no progress")
            for c in blocked:
                heapq.heappush(ready, entry[c])
            superstep += 1
        schedule.validate()
        return schedule


def greedy_bsp_schedule(
    dag: ComputationalDag,
    num_processors: int,
    g: float = 1.0,
    parameters: Optional[GreedyBspParameters] = None,
) -> BspSchedule:
    """Convenience wrapper creating a :class:`GreedyBspScheduler` and running it."""
    return GreedyBspScheduler(parameters).schedule(dag, num_processors, g=g)
