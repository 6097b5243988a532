"""Structural analysis helpers for computational DAGs.

These functions compute quantities that the scheduling algorithms and the
experiment harness need repeatedly: the minimum fast-memory capacity ``r0``
required for a valid MBSP schedule, critical-path lengths, level structure,
and simple work/communication lower bounds.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Tuple

from repro.dag.graph import ComputationalDag, NodeId


def minimum_cache_size(dag: ComputationalDag) -> float:
    """The minimal fast-memory capacity ``r0`` allowing a valid schedule.

    A node ``v`` can only be computed when all its parents and its own output
    reside in the same processor's fast memory simultaneously, so every valid
    schedule needs at least ``mu(v) + sum(mu(parents))`` capacity for the most
    demanding node.  Source nodes are never computed but must be loadable,
    requiring at least ``mu(v)``.

    Computed once per DAG state, with the DAG's memoized
    :class:`~repro.dag.graph.DagSnapshot`.
    """
    return dag.snapshot().r0


def node_levels(dag: ComputationalDag) -> Dict[NodeId, int]:
    """Longest-path depth of each node (sources are level 0)."""
    level: Dict[NodeId, int] = {}
    for v in dag.topological_order():
        parents = dag.parents(v)
        level[v] = 0 if not parents else 1 + max(level[u] for u in parents)
    return level


def critical_path_length(dag: ComputationalDag) -> float:
    """Length of the longest weighted path (compute weights of non-sources).

    This is the minimum possible makespan of any parallel execution with an
    unbounded number of processors and free communication.
    """
    best: Dict[NodeId, float] = {}
    for v in dag.topological_order():
        own = 0.0 if dag.is_source(v) else dag.omega(v)
        parents = dag.parents(v)
        best[v] = own + (max(best[u] for u in parents) if parents else 0.0)
    return max(best.values()) if best else 0.0


def work_lower_bound(dag: ComputationalDag, num_processors: int) -> float:
    """Trivial makespan lower bound ``max(total_work / P, critical path)``."""
    if num_processors <= 0:
        raise ValueError("num_processors must be positive")
    return max(dag.total_work() / num_processors, critical_path_length(dag))


def io_lower_bound(dag: ComputationalDag, g: float) -> float:
    """Trivial I/O cost lower bound.

    Every source value must be loaded at least once by some processor and
    every sink value must be saved at least once, each at cost ``g * mu``.
    """
    loads = sum(dag.mu(v) for v in dag.sources())
    saves = sum(dag.mu(v) for v in dag.sinks())
    return g * (loads + saves)


def weighted_edge_cut(dag: ComputationalDag, parts: Dict[NodeId, int]) -> float:
    """Total ``mu`` weight of edges whose endpoints lie in different parts."""
    total = 0.0
    for u, v in dag.edges():
        if parts[u] != parts[v]:
            total += dag.mu(u)
    return total


def edge_cut(dag: ComputationalDag, parts: Dict[NodeId, int]) -> int:
    """Number of edges whose endpoints lie in different parts."""
    return sum(1 for u, v in dag.edges() if parts[u] != parts[v])


def longest_chain(dag: ComputationalDag) -> List[NodeId]:
    """A concrete longest path (by node count), useful for diagnostics."""
    best_len: Dict[NodeId, int] = {}
    best_pred: Dict[NodeId, NodeId] = {}
    for v in dag.topological_order():
        parents = dag.parents(v)
        if not parents:
            best_len[v] = 1
        else:
            u = max(parents, key=lambda p: best_len[p])
            best_len[v] = best_len[u] + 1
            best_pred[v] = u
    if not best_len:
        return []
    v = max(best_len, key=lambda n: best_len[n])
    chain = [v]
    while v in best_pred:
        v = best_pred[v]
        chain.append(v)
    chain.reverse()
    return chain


def assign_random_memory_weights(
    dag: ComputationalDag,
    low: int = 1,
    high: int = 5,
    seed: int = 0,
) -> ComputationalDag:
    """Assign uniform random integer memory weights in ``[low, high]``.

    The paper's benchmark DAGs only define compute weights, so memory weights
    are drawn uniformly and independently at random from {1, ..., 5} with a
    fixed seed (Appendix D.1).  The assignment is done in place and the DAG is
    also returned for chaining.
    """
    rng = random.Random(seed)
    for v in dag.nodes:
        dag.set_mu(v, float(rng.randint(low, high)))
    return dag


def dag_statistics(dag: ComputationalDag) -> Dict[str, float]:
    """Summary statistics used in reports and example scripts."""
    levels = node_levels(dag)
    return {
        "nodes": float(dag.num_nodes),
        "edges": float(dag.num_edges),
        "sources": float(len(dag.sources())),
        "sinks": float(len(dag.sinks())),
        "depth": float(max(levels.values()) + 1 if levels else 0),
        "total_work": dag.total_work(),
        "total_memory": dag.total_memory(),
        "critical_path": critical_path_length(dag),
        "r0": minimum_cache_size(dag),
    }


def transitive_reduction_size(dag: ComputationalDag) -> int:
    """Number of edges in the transitive reduction (density diagnostic)."""
    redundant = 0
    for u, v in dag.edges():
        # edge (u, v) is redundant if v is reachable from u via another child
        for w in dag.children(u):
            if w != v and v in dag.descendants(w) | {w}:
                pass
        # cheap check: v reachable from some other child of u
        others = [w for w in dag.children(u) if w != v]
        if any(v == w or v in dag.descendants(w) for w in others):
            redundant += 1
    return dag.num_edges - redundant
