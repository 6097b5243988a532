"""Acyclic DAG partitioning (the first step of the divide-and-conquer ILP).

The divide-and-conquer scheduler recursively splits the DAG into two parts
such that the quotient graph stays acyclic (all edges between the parts point
from part 0 to part 1), both parts are reasonably balanced, and the number of
cut edges is small.  Following Section 6.3 the bipartitioning problem itself
is expressed as a small ILP; a topological-order sweep is used as a fallback
(and as the initial incumbent bound) when the solver finds nothing better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ConfigurationError
from repro.ilp import INF, IlpModel, SolverOptions, solve

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class PartitionConfig:
    """Configuration of the recursive acyclic partitioner.

    Attributes
    ----------
    max_part_size:
        Recursion stops once every part has at most this many nodes (the
        paper uses 60).
    balance_fraction:
        Each side of a bipartition must contain at least this fraction of the
        nodes (the paper uses 1/3).
    solver_options:
        Options for the bipartitioning ILP (these ILPs are tiny and usually
        solve to optimality in well under a second).
    use_ilp:
        Disable to use only the topological sweep heuristic.
    backend:
        ILP backend name (``None`` = process default, see
        :mod:`repro.ilp.backends`).
    """

    max_part_size: int = 60
    balance_fraction: float = 1.0 / 3.0
    solver_options: SolverOptions = None
    use_ilp: bool = True
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver_options is None:
            self.solver_options = SolverOptions(time_limit=5.0)
        if not 0 < self.balance_fraction <= 0.5:
            raise ConfigurationError("balance_fraction must lie in (0, 0.5]")
        if self.max_part_size < 2:
            raise ConfigurationError("max_part_size must be at least 2")


def topological_sweep_bipartition(dag: ComputationalDag, balance_fraction: float) -> Dict[NodeId, int]:
    """Heuristic acyclic bipartition: cut a topological order at the best point.

    Every prefix of a topological order is a valid part 0; the sweep evaluates
    all balanced cut positions and returns the one with the fewest cut edges.
    """
    order = dag.topological_order()
    n = len(order)
    position = {v: i for i, v in enumerate(order)}
    lo = max(1, int(balance_fraction * n))
    hi = n - lo
    if lo > hi:
        lo = hi = n // 2
    # prefix cut count: edges (u, v) with position[u] < cut <= position[v]
    best_cut, best_pos = None, lo
    for cut in range(lo, hi + 1):
        cut_edges = sum(
            1 for u, v in dag.edges() if position[u] < cut <= position[v]
        )
        if best_cut is None or cut_edges < best_cut:
            best_cut, best_pos = cut_edges, cut
    return {v: (0 if position[v] < best_pos else 1) for v in order}


def ilp_acyclic_bipartition(
    dag: ComputationalDag,
    config: Optional[PartitionConfig] = None,
) -> Dict[NodeId, int]:
    """Optimal (cut-minimising) acyclic bipartition via a small ILP.

    Variables ``y_v`` place node ``v`` in part 0 or 1; acyclicity of the
    quotient is enforced by ``y_u <= y_v`` for every edge ``u -> v``; the
    objective counts cut edges.  Falls back to the topological sweep if the
    solver produces nothing usable.
    """
    import numpy as np

    config = config or PartitionConfig()
    fallback = topological_sweep_bipartition(dag, config.balance_fraction)
    if not config.use_ilp or dag.num_nodes < 4:
        return fallback

    n = dag.num_nodes
    lo = max(1, int(config.balance_fraction * n))
    hi = n - lo
    if lo > hi:
        return fallback

    model = IlpModel(f"acyclic_bipartition_{dag.name}")
    index = {v: i for i, v in enumerate(dag.nodes)}
    edges = np.array(
        [(index[u], index[v]) for u, v in dag.edges()], dtype=np.int64
    ).reshape(-1, 2)
    y = np.asarray(model.add_variables("y", n, 0.0, 1.0, True))
    cut = np.asarray(model.add_variables("cut", len(edges), 0.0, 1.0, True))
    y_u, y_v = y[edges].T
    # two rows per edge u -> v over (y_u, y_v, cut): quotient acyclicity
    # (edges only go from part 0 to part 1), y_u - y_v <= 0, and the cut
    # indicator, y_u - y_v + cut >= 0
    model.add_rows(
        np.repeat(np.stack([y_u, y_v, cut], axis=1), 2, axis=0),
        np.tile([[1.0, -1.0, 0.0], [1.0, -1.0, 1.0]], (len(edges), 1)),
        lower=np.tile([-INF, 0.0], len(edges)),
        upper=np.tile([0.0, INF], len(edges)),
    )
    # balance: lo <= size of part 1 <= hi
    model.add_rows([y, y], 1.0, lower=[float(lo), -INF], upper=[INF, float(hi)])
    model.minimize(cut, 1.0)

    solution = solve(model, config.solver_options, backend=config.backend)
    if not solution.has_solution:
        return fallback
    parts = {v: (1 if solution.values[col] > 0.5 else 0) for v, col in zip(dag.nodes, y)}
    # sanity: both sides non-empty (numerical edge cases fall back)
    if len({p for p in parts.values()}) < 2:
        return fallback
    return parts


@dataclass
class RecursivePartition:
    """Result of the recursive partitioner."""

    parts: Dict[NodeId, int]
    num_parts: int

    def nodes_of(self, part: int) -> List[NodeId]:
        return [v for v, p in self.parts.items() if p == part]

    def part_sizes(self) -> List[int]:
        sizes = [0] * self.num_parts
        for p in self.parts.values():
            sizes[p] += 1
        return sizes


def recursive_acyclic_partition(
    dag: ComputationalDag,
    config: Optional[PartitionConfig] = None,
) -> RecursivePartition:
    """Recursively bipartition ``dag`` until all parts fit ``max_part_size``.

    Part ids are renumbered so that they form a topological order of the
    quotient graph (part ``i`` never depends on part ``j > i``).
    """
    config = config or PartitionConfig()

    def split(nodes: List[NodeId]) -> List[List[NodeId]]:
        if len(nodes) <= config.max_part_size:
            return [nodes]
        sub = dag.induced_subgraph(nodes)
        parts = ilp_acyclic_bipartition(sub, config)
        part0 = [v for v in nodes if parts[v] == 0]
        part1 = [v for v in nodes if parts[v] == 1]
        if not part0 or not part1:
            return [nodes]
        return split(part0) + split(part1)

    groups = split(list(dag.nodes))
    # Every recursion step splits a node set into a (predecessor, successor)
    # pair, so the concatenation order of the groups is already a topological
    # order of the quotient.  Renumber the groups through an explicit
    # topological sort of the quotient graph to make this robust even if a
    # bipartitioning backend ever returned a non-conforming split.
    preliminary: Dict[NodeId, int] = {}
    for idx, group in enumerate(groups):
        for v in group:
            preliminary[v] = idx
    quotient = ComputationalDag(name=f"{dag.name}_parts")
    for idx in range(len(groups)):
        quotient.add_node(idx)
    for u, v in dag.edges():
        if preliminary[u] != preliminary[v]:
            quotient.add_edge(preliminary[u], preliminary[v])
    order = quotient.topological_order()
    renumber = {old: new for new, old in enumerate(order)}
    parts = {v: renumber[preliminary[v]] for v in dag.nodes}
    return RecursivePartition(parts=parts, num_parts=len(groups))
