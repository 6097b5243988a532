"""Cost functions for MBSP schedules (Section 3.3).

Two interpretations of the same schedule are supported:

* the **synchronous** cost, close to the (Multi-)BSP spirit: each superstep
  costs ``max_p cost(compute phase) + max_p cost(save phase) +
  max_p cost(load phase) + L``, and the schedule cost is the sum over
  supersteps;
* the **asynchronous** cost, a makespan-style metric: the finishing time
  ``gamma`` of every transition is computed per processor, where a LOAD of a
  value ``v`` cannot start before ``Gamma(v)``, the time at which ``v`` first
  becomes available in slow memory (the finishing time of its first save).

Both evaluators operate on the schedule object itself, so schedules produced
by any algorithm (two-stage baseline, ILP extraction, divide-and-conquer) are
compared under exactly the same ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dag.graph import NodeId
from repro.exceptions import GraphError
from repro.model.pebbling import OpType
from repro.model.schedule import MbspSchedule


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposition of a synchronous schedule cost into its components."""

    compute: float
    save: float
    load: float
    synchronization: float

    @property
    def io(self) -> float:
        return self.save + self.load

    @property
    def total(self) -> float:
        return self.compute + self.save + self.load + self.synchronization


def synchronous_cost_breakdown(schedule: MbspSchedule, count_empty: bool = False) -> CostBreakdown:
    """Per-component synchronous cost of ``schedule``.

    Completely empty supersteps are skipped unless ``count_empty`` is set;
    well-formed schedules produced by this library never contain them.
    Weights are read from the DAG's snapshot, summed in the order of
    :meth:`~repro.model.schedule.ProcessorSuperstep.compute_cost`,
    ``save_cost`` and ``load_cost``; a node the DAG does not have raises
    :class:`~repro.exceptions.GraphError`.
    """
    instance = schedule.instance
    snap = instance.dag.snapshot()
    omega, mu = snap.omega, snap.mu
    g, L = instance.g, instance.L
    compute = OpType.COMPUTE
    comp_total = save_total = load_total = sync_total = 0.0
    try:
        for step in schedule.supersteps:
            if step.is_empty() and not count_empty:
                continue
            procs = step.processor_steps
            comp_total += max(
                sum(omega[op.node] for op in ps.compute_phase if op.op_type is compute)
                for ps in procs
            )
            save_total += max(g * sum(mu[v] for v in ps.save_phase) for ps in procs)
            load_total += max(g * sum(mu[v] for v in ps.load_phase) for ps in procs)
            sync_total += L
    except KeyError as missing:
        raise GraphError(f"unknown node {missing.args[0]!r}") from None
    return CostBreakdown(
        compute=comp_total, save=save_total, load=load_total, synchronization=sync_total
    )


def synchronous_cost(schedule: MbspSchedule) -> float:
    """Total synchronous cost of ``schedule`` (Section 3.3)."""
    return synchronous_cost_breakdown(schedule).total


def asynchronous_cost(schedule: MbspSchedule) -> float:
    """Asynchronous (makespan) cost of ``schedule`` (Section 3.3).

    The finishing time of each transition is computed per processor in
    superstep order; a LOAD of ``v`` starts no earlier than ``Gamma(v)``, the
    finishing time of the first save of ``v`` (0 for source nodes, which are
    available in slow memory from the start).
    """
    instance = schedule.instance
    dag = instance.dag
    g = instance.g
    num_procs = instance.num_processors

    finish: List[float] = [0.0] * num_procs
    gets_blue: Dict[NodeId, float] = {v: 0.0 for v in dag.sources()}
    first_save_superstep: Dict[NodeId, int] = {}

    for s, step in enumerate(schedule.supersteps):
        # compute phases (also covers in-phase deletes, which are free)
        for p, ps in enumerate(step.processor_steps):
            for op in ps.compute_phase:
                if op.op_type is OpType.COMPUTE:
                    finish[p] += dag.omega(op.node)
        # save phases; record Gamma for first-superstep saves
        for p, ps in enumerate(step.processor_steps):
            for v in ps.save_phase:
                finish[p] += g * dag.mu(v)
                prev_step = first_save_superstep.get(v)
                if prev_step is None:
                    first_save_superstep[v] = s
                    gets_blue[v] = finish[p]
                elif prev_step == s:
                    gets_blue[v] = min(gets_blue[v], finish[p])
        # delete phases are free
        # load phases; respect availability in slow memory
        for p, ps in enumerate(step.processor_steps):
            for v in ps.load_phase:
                available = gets_blue.get(v, 0.0)
                finish[p] = max(finish[p], available) + g * dag.mu(v)
    return max(finish) if finish else 0.0


def schedule_cost(schedule: MbspSchedule, synchronous: bool = True) -> float:
    """Dispatch between the synchronous and asynchronous cost functions."""
    return synchronous_cost(schedule) if synchronous else asynchronous_cost(schedule)
