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
from typing import Dict, List, Optional, Tuple

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


def etf_bsp_schedule(dag: ComputationalDag, num_processors: int, g: float = 1.0) -> BspSchedule:
    """ETF placement converted into a valid BSP schedule."""
    result = etf_placement(dag, num_processors, g=g)
    topo_pos = {v: i for i, v in enumerate(dag.topological_order())}
    order = sorted(result.order, key=lambda v: (result.start_time[v], topo_pos[v]))
    return superstepify(dag, result.placement, order, num_processors)
