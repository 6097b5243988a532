"""Red-blue pebbling primitives of the MBSP model.

A schedule is ultimately a sequence of the four transition rules of
Section 3.1 on each processor:

* ``LOAD(p, v)``    — copy ``v`` from slow memory into the cache of ``p``
  (requires a blue pebble on ``v``), cost ``mu(v) * g``;
* ``SAVE(p, v)``    — copy ``v`` from the cache of ``p`` to slow memory
  (requires a red pebble of ``p`` on ``v``), cost ``mu(v) * g``;
* ``COMPUTE(p, v)`` — execute a non-source node ``v`` on ``p`` (requires red
  pebbles of ``p`` on all parents of ``v``), cost ``omega(v)``;
* ``DELETE(p, v)``  — evict ``v`` from the cache of ``p``, cost 0.

This module defines the operation objects and a :class:`PebblingState`: the
red and blue pebbles of a schedule under replay, with the
:class:`~repro.dag.graph.DagSnapshot` its copies share.  The rules and the
per-processor memory bound are enforced in one place,
:func:`repro.model.validation.replay_superstep`, which applies a whole
superstep to a state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Set

from repro.dag.graph import ComputationalDag, NodeId


class OpType(enum.Enum):
    """The four transition rules of the MBSP pebbling game."""

    LOAD = "load"
    SAVE = "save"
    COMPUTE = "compute"
    DELETE = "delete"


@dataclass(frozen=True)
class Operation:
    """A single transition rule applied to one node."""

    op_type: OpType
    node: NodeId

    def cost(self, dag: ComputationalDag, g: float) -> float:
        """Cost of the operation under the paper's cost model."""
        if self.op_type is OpType.COMPUTE:
            return dag.omega(self.node)
        if self.op_type in (OpType.LOAD, OpType.SAVE):
            return dag.mu(self.node) * g
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.op_type.name}({self.node})"


def compute_op(node: NodeId) -> Operation:
    """Shorthand constructor for a COMPUTE operation."""
    return Operation(OpType.COMPUTE, node)


def delete_op(node: NodeId) -> Operation:
    """Shorthand constructor for a DELETE operation."""
    return Operation(OpType.DELETE, node)


def save_op(node: NodeId) -> Operation:
    """Shorthand constructor for a SAVE operation."""
    return Operation(OpType.SAVE, node)


def load_op(node: NodeId) -> Operation:
    """Shorthand constructor for a LOAD operation."""
    return Operation(OpType.LOAD, node)


class PebblingState:
    """Current pebbling configuration of a schedule under replay.

    Tracks the red-pebble set (cache contents) of every processor, the used
    cache capacity, and the shared blue-pebble set (slow memory contents).
    The transition rules themselves are applied by
    :func:`repro.model.validation.replay_superstep`, which reads memory
    weights and parent sets from :attr:`snap`, a
    :class:`~repro.dag.graph.DagSnapshot` of ``dag`` taken here and shared
    by every :meth:`copy`.

    Parameters
    ----------
    dag:
        The computational DAG.
    num_processors:
        Number of processors ``P``.
    cache_size:
        Fast memory capacity ``r`` per processor.
    """

    def __init__(self, dag: ComputationalDag, num_processors: int, cache_size: float) -> None:
        self.dag = dag
        self.snap = dag.snapshot()
        self.num_processors = num_processors
        self.cache_size = cache_size
        self.red: List[Set[NodeId]] = [set() for _ in range(num_processors)]
        self.red_usage: List[float] = [0.0 for _ in range(num_processors)]
        self.blue: Set[NodeId] = set(dag.sources())

    # ------------------------------------------------------------------
    def copy(self) -> "PebblingState":
        """An independent copy of this configuration (same DAG and snapshot).

        Used by the refinement engine to checkpoint the replay state before
        every superstep so that a local schedule edit only needs a suffix
        replay instead of a full revalidation.
        """
        new = PebblingState.__new__(PebblingState)
        new.dag = self.dag
        new.snap = self.snap
        new.num_processors = self.num_processors
        new.cache_size = self.cache_size
        new.red = [set(pebbles) for pebbles in self.red]
        new.red_usage = list(self.red_usage)
        new.blue = set(self.blue)
        return new

    def same_configuration(self, other: "PebblingState") -> bool:
        """Whether two states hold exactly the same red and blue pebbles."""
        return (
            self.num_processors == other.num_processors
            and self.blue == other.blue
            and self.red == other.red
        )

    # ------------------------------------------------------------------
    def is_terminal(self) -> bool:
        """Whether all sink nodes carry a blue pebble (terminal configuration)."""
        return all(v in self.blue for v in self.dag.sinks())

    def missing_sinks(self) -> List[NodeId]:
        """Sink nodes that do not yet carry a blue pebble."""
        return [v for v in self.dag.sinks() if v not in self.blue]
