"""Earliest-Task-First (ETF) list scheduler.

A classic communication-aware list scheduler: ready tasks are repeatedly
placed on the processor where they can *start earliest*, taking into account
a per-value communication delay ``g * mu`` whenever an input was produced on
a different processor.  ETF serves as an additional memory-oblivious first
stage for the two-stage pipeline (alongside BSPg and Cilk) and as a reference
point in the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.bsp.schedule import BspSchedule
from repro.bsp.superstepify import superstepify


@dataclass
class EtfPlacement:
    """Result of the ETF simulation: placement, order, and makespan."""

    placement: Dict[NodeId, int]
    order: List[NodeId]
    start_time: Dict[NodeId, float]
    finish_time: Dict[NodeId, float]
    makespan: float


def etf_placement(
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

    # the ready nodes as a min-heap of (start, name, arrival, node, data-ready
    # row).  proc_free only grows and omega >= 0, so a stored start is a
    # lower bound of the node's earliest start: a popped entry whose start
    # still holds is the globally earliest (start, name) pair, and the
    # arrival counter breaks ties in the order nodes became ready
    heap: List[Tuple[float, str, int, NodeId, List[float]]] = []
    arrivals = count()

    def make_ready(v: NodeId) -> None:
        row = data_ready(v)
        heappush(heap, (min(map(max, proc_free, row)), str(v), next(arrivals), v, row))

    for v in computable:
        if pending[v] == 0:
            make_ready(v)
    while heap:
        stored, name, arrival, v, row = heappop(heap)
        start = min(map(max, proc_free, row))
        if start != stored:
            heappush(heap, (start, name, arrival, v, row))
            continue
        # the lowest processor among those attaining the start
        p = list(map(max, proc_free, row)).index(start)
        placement[v] = p
        start_time[v] = start
        finish_time[v] = start + snap.omega[v]
        proc_free[p] = finish_time[v]
        order.append(v)
        for child in snap.children[v]:
            pending[child] -= 1
            if pending[child] == 0:
                make_ready(child)

    makespan = max(finish_time.values()) if finish_time else 0.0
    return EtfPlacement(
        placement=placement,
        order=order,
        start_time=start_time,
        finish_time=finish_time,
        makespan=makespan,
    )


def etf_bsp_schedule(dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
    """ETF placement converted into a valid BSP schedule."""
    result = etf_placement(dag, num_processors, g=g)
    topo_pos = {v: i for i, v in enumerate(dag.topological_order())}
    order = sorted(result.order, key=lambda v: (result.start_time[v], topo_pos[v]))
    return superstepify(dag, result.placement, order, num_processors)
