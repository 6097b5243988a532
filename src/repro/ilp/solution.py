"""Solver-independent representation of ILP solutions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class SolutionStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # a solution was found, optimality not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"    # limit reached without an incumbent
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)


@dataclass
class IlpSolution:
    """Result of solving an :class:`~repro.ilp.model.IlpModel`."""

    status: SolutionStatus
    objective: Optional[float] = None
    values: Optional[np.ndarray] = None
    mip_gap: Optional[float] = None
    solve_time: float = 0.0
    message: str = ""
    node_count: int = 0

    @property
    def has_solution(self) -> bool:
        return self.status.has_solution and self.values is not None

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status.value,
            "objective": self.objective,
            "mip_gap": self.mip_gap,
            "solve_time": self.solve_time,
            "node_count": self.node_count,
            "message": self.message,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IlpSolution(status={self.status.value}, objective={self.objective}, "
            f"time={self.solve_time:.2f}s)"
        )
