"""BSP schedule representation (the first stage of the two-stage approach).

A BSP schedule assigns every *computable* (non-source) node of the DAG to a
processor and a superstep, together with an execution order inside each
(processor, superstep) cell.  Source nodes are not computed in the MBSP model
(they are loaded from slow memory), so they do not appear in the assignment.

Validity (the classical BSP precedence rule): for every edge ``u -> v``
between computable nodes, either ``superstep(u) < superstep(v)``, or the two
nodes share processor *and* superstep with ``u`` ordered before ``v``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ScheduleError


@dataclass
class BspAssignment:
    """Placement of one node: processor, superstep, and order inside the cell."""

    processor: int
    superstep: int
    order: int = 0


class BspSchedule:
    """A BSP schedule of a computational DAG on ``num_processors`` processors."""

    def __init__(self, dag: ComputationalDag, num_processors: int) -> None:
        if num_processors < 1:
            raise ScheduleError("num_processors must be at least 1")
        self.dag = dag
        self.num_processors = num_processors
        self._assignment: Dict[NodeId, BspAssignment] = {}
        # (processor, superstep) -> sorted (order, first-assignment rank, node)
        self._cells: Dict[Tuple[int, int], List[Tuple[int, int, NodeId]]] = {}

    # ------------------------------------------------------------------
    def assign(self, node: NodeId, processor: int, superstep: int, order: Optional[int] = None) -> None:
        """Assign (or move) ``node`` to ``(processor, superstep)``.

        The order inside the cell defaults to one past the largest order in
        the cell, so calling :meth:`assign` in execution order produces
        correct orders.
        """
        if node not in self.dag:
            raise ScheduleError(f"unknown node {node!r}")
        if self.dag.is_source(node):
            raise ScheduleError(f"source node {node!r} is not computed in the MBSP model")
        if not 0 <= processor < self.num_processors:
            raise ScheduleError(f"processor {processor} out of range")
        if superstep < 0:
            raise ScheduleError(f"superstep {superstep} must be non-negative")
        old = self._assignment.get(node)
        if old is None:
            rank = len(self._assignment)
        else:
            old_cell = self._cells[(old.processor, old.superstep)]
            _, rank, _ = old_cell.pop([v for _, _, v in old_cell].index(node))
        cell = self._cells.setdefault((processor, superstep), [])
        if order is None:
            order = cell[-1][0] + 1 if cell else 0
        self._assignment[node] = BspAssignment(processor, superstep, order)
        bisect.insort(cell, (order, rank, node))

    def processor_of(self, node: NodeId) -> int:
        return self._assignment[node].processor

    def superstep_of(self, node: NodeId) -> int:
        return self._assignment[node].superstep

    def is_assigned(self, node: NodeId) -> bool:
        return node in self._assignment

    @property
    def assignment(self) -> Dict[NodeId, BspAssignment]:
        return dict(self._assignment)

    @property
    def num_supersteps(self) -> int:
        if not self._assignment:
            return 0
        return 1 + max(a.superstep for a in self._assignment.values())

    # ------------------------------------------------------------------
    def cell(self, processor: int, superstep: int) -> List[NodeId]:
        """Nodes of one (processor, superstep) cell in execution order.

        The execution order is by ``order``, ties by first assignment.
        """
        return [v for _, _, v in self._cells.get((processor, superstep), ())]

    def superstep_nodes(self, superstep: int) -> List[NodeId]:
        """All nodes of one superstep, grouped by processor order."""
        out: List[NodeId] = []
        for p in range(self.num_processors):
            out.extend(self.cell(p, superstep))
        return out

    def compute_lists(self) -> List[List[List[NodeId]]]:
        """Nested lists ``[superstep][processor] -> ordered node list``."""
        return [
            [self.cell(p, s) for p in range(self.num_processors)]
            for s in range(self.num_supersteps)
        ]

    def work_per_processor(self) -> List[float]:
        """Total compute weight assigned to each processor."""
        work = [0.0] * self.num_processors
        for v, a in self._assignment.items():
            work[a.processor] += self.dag.omega(v)
        return work

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScheduleError` if the schedule is incomplete or invalid."""
        sources = set(self.dag.sources())
        missing = [v for v in self.dag.nodes if v not in sources and v not in self._assignment]
        if missing:
            raise ScheduleError(f"nodes not assigned in the BSP schedule: {missing!r}")
        for u, v in self.dag.edges():
            if u in sources:
                continue
            au, av = self._assignment[u], self._assignment[v]
            if au.superstep < av.superstep:
                continue
            if (
                au.superstep == av.superstep
                and au.processor == av.processor
                and au.order < av.order
            ):
                continue
            raise ScheduleError(
                f"BSP precedence violated on edge {u!r} -> {v!r}: "
                f"{(au.processor, au.superstep, au.order)} !< "
                f"{(av.processor, av.superstep, av.order)}"
            )

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except ScheduleError:
            return False

    # ------------------------------------------------------------------
    def compact_supersteps(self) -> "BspSchedule":
        """Renumber supersteps to remove empty ones (stable)."""
        used = sorted({a.superstep for a in self._assignment.values()})
        remap = {s: i for i, s in enumerate(used)}
        out = BspSchedule(self.dag, self.num_processors)
        for v, a in self._assignment.items():
            out.assign(v, a.processor, remap[a.superstep], a.order)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BspSchedule(dag={self.dag.name!r}, P={self.num_processors}, "
            f"supersteps={self.num_supersteps}, assigned={len(self._assignment)})"
        )
