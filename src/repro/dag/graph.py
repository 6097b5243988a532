"""Weighted computational DAGs.

The central data structure of the library: a directed acyclic graph whose
nodes carry a *compute weight* ``omega`` (the time it takes to execute the
operation) and a *memory weight* ``mu`` (the amount of fast memory its output
occupies).  Edges are data dependencies: the output of the tail node is an
input of the head node.

The class is intentionally self-contained (plain dict adjacency) so the rest
of the library does not depend on :mod:`networkx`; conversion helpers to and
from ``networkx.DiGraph`` are provided for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from repro.exceptions import CycleError, GraphError

NodeId = Hashable


@dataclass(frozen=True)
class NodeData:
    """Weights attached to a single DAG node.

    Attributes
    ----------
    omega:
        Compute weight (execution time of the operation).  Non-negative.
    mu:
        Memory weight (size of the node's output value).  Non-negative.
    """

    omega: float = 1.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.omega < 0:
            raise GraphError(f"compute weight must be non-negative, got {self.omega}")
        if self.mu < 0:
            raise GraphError(f"memory weight must be non-negative, got {self.mu}")


class DagSnapshot(NamedTuple):
    """Plain-dict copy of a DAG's adjacency and weights for inner loops.

    The :class:`ComputationalDag` accessors validate their argument and copy
    the adjacency list on every call; a scheduling kernel that reads the same
    nodes thousands of times reads a snapshot instead.  A snapshot does not
    follow later changes to the DAG.

    :meth:`ComputationalDag.snapshot` hands the same snapshot to every
    caller until the DAG changes, so its dicts are shared: consumers read
    a snapshot and never mutate it.
    """

    parents: Dict[NodeId, Tuple[NodeId, ...]]
    children: Dict[NodeId, Tuple[NodeId, ...]]
    omega: Dict[NodeId, float]
    mu: Dict[NodeId, float]
    sources: FrozenSet[NodeId]
    #: the minimal fast-memory capacity ``r0`` admitting a valid schedule
    #: (see :func:`repro.dag.analysis.minimum_cache_size`)
    r0: float


class ComputationalDag:
    """A computational DAG with per-node compute and memory weights.

    Nodes may be any hashable identifiers.  The graph is mutable while being
    built; analysis helpers (topological order, ancestor queries, ...) are
    recomputed lazily and cached until the next mutation.

    Parameters
    ----------
    name:
        Optional human-readable instance name (used in reports and tables).
    """

    def __init__(self, name: str = "dag") -> None:
        self.name = name
        self._succ: Dict[NodeId, List[NodeId]] = {}
        self._pred: Dict[NodeId, List[NodeId]] = {}
        self._data: Dict[NodeId, NodeData] = {}
        self._topo_cache: Optional[List[NodeId]] = None
        self._snapshot: Optional[DagSnapshot] = None

    def _changed(self) -> None:
        """Drop the memos a structural change invalidates (a weight change
        drops only the snapshot)."""
        self._topo_cache = None
        self._snapshot = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, omega: float = 1.0, mu: float = 1.0) -> NodeId:
        """Add ``node`` with the given weights.  Re-adding updates the weights."""
        if node not in self._data:
            self._succ[node] = []
            self._pred[node] = []
        self._data[node] = NodeData(omega=float(omega), mu=float(mu))
        self._changed()
        return node

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the dependency edge ``u -> v`` (output of *u* is an input of *v*)."""
        if u not in self._data:
            raise GraphError(f"unknown tail node {u!r}")
        if v not in self._data:
            raise GraphError(f"unknown head node {v!r}")
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if v in self._succ[u]:
            return
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._changed()

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``u -> v`` if present."""
        if u in self._succ and v in self._succ[u]:
            self._succ[u].remove(v)
            self._pred[v].remove(u)
            self._changed()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """All node identifiers, in insertion order."""
        return list(self._data.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._data)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over all edges as ``(tail, head)`` pairs."""
        for u, succ in self._succ.items():
            for v in succ:
                yield (u, v)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._data)

    def parents(self, node: NodeId) -> List[NodeId]:
        """Direct predecessors of ``node`` (its input values)."""
        self._check_node(node)
        return list(self._pred[node])

    def children(self, node: NodeId) -> List[NodeId]:
        """Direct successors of ``node`` (consumers of its output)."""
        self._check_node(node)
        return list(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        self._check_node(node)
        return len(self._pred[node])

    def out_degree(self, node: NodeId) -> int:
        self._check_node(node)
        return len(self._succ[node])

    def omega(self, node: NodeId) -> float:
        """Compute weight of ``node``."""
        self._check_node(node)
        return self._data[node].omega

    def mu(self, node: NodeId) -> float:
        """Memory weight of ``node``."""
        self._check_node(node)
        return self._data[node].mu

    def node_data(self, node: NodeId) -> NodeData:
        self._check_node(node)
        return self._data[node]

    def set_omega(self, node: NodeId, omega: float) -> None:
        self._check_node(node)
        self._data[node] = NodeData(omega=float(omega), mu=self._data[node].mu)
        self._snapshot = None

    def set_mu(self, node: NodeId, mu: float) -> None:
        self._check_node(node)
        self._data[node] = NodeData(omega=self._data[node].omega, mu=float(mu))
        self._snapshot = None

    def snapshot(self) -> DagSnapshot:
        """The current adjacency and weights as one :class:`DagSnapshot`.

        Memoized: every call returns the same object until the next
        :meth:`add_node`, :meth:`add_edge`, :meth:`remove_edge`,
        :meth:`set_omega` or :meth:`set_mu`, after which the next call
        builds a new one.  A snapshot taken before a change keeps its
        content.
        """
        if self._snapshot is None:
            parents = {v: tuple(p) for v, p in self._pred.items()}
            mu = {v: d.mu for v, d in self._data.items()}
            # a computed node needs its own value and all its inputs in one
            # cache at once; a source only needs to be loadable
            r0 = 0.0
            for v, inputs in parents.items():
                if not inputs:
                    r0 = max(r0, mu[v])
                else:
                    r0 = max(r0, mu[v] + sum(mu[u] for u in inputs))
            self._snapshot = DagSnapshot(
                parents=parents,
                children={v: tuple(c) for v, c in self._succ.items()},
                omega={v: d.omega for v, d in self._data.items()},
                mu=mu,
                sources=frozenset(v for v, p in parents.items() if not p),
                r0=r0,
            )
        return self._snapshot

    def _check_node(self, node: NodeId) -> None:
        if node not in self._data:
            raise GraphError(f"unknown node {node!r}")

    # ------------------------------------------------------------------
    # structural properties
    # ------------------------------------------------------------------
    def sources(self) -> List[NodeId]:
        """Nodes without parents (the inputs of the computation)."""
        return [v for v in self._data if not self._pred[v]]

    def sinks(self) -> List[NodeId]:
        """Nodes without children (the outputs of the computation)."""
        return [v for v in self._data if not self._succ[v]]

    def is_source(self, node: NodeId) -> bool:
        self._check_node(node)
        return not self._pred[node]

    def is_sink(self, node: NodeId) -> bool:
        self._check_node(node)
        return not self._succ[node]

    def topological_order(self) -> List[NodeId]:
        """A topological order of the nodes (Kahn's algorithm, stable).

        Raises :class:`~repro.exceptions.CycleError` if the graph has a cycle.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg = {v: len(self._pred[v]) for v in self._data}
        ready = [v for v in self._data if indeg[v] == 0]
        order: List[NodeId] = []
        head = 0
        while head < len(ready):
            v = ready[head]
            head += 1
            order.append(v)
            for w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != len(self._data):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = order
        return list(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CycleError:
            return False

    def total_work(self) -> float:
        """Sum of compute weights over all non-source nodes.

        Source nodes are never computed in the MBSP model (they are loaded
        from slow memory), so they do not contribute to the work.
        """
        return sum(self._data[v].omega for v in self._data if self._pred[v])

    def total_memory(self) -> float:
        """Sum of memory weights over all nodes."""
        return sum(d.mu for d in self._data.values())

    def ancestors(self, node: NodeId) -> Set[NodeId]:
        """All transitive predecessors of ``node`` (excluding itself)."""
        self._check_node(node)
        seen: Set[NodeId] = set()
        stack = list(self._pred[node])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._pred[u])
        return seen

    def descendants(self, node: NodeId) -> Set[NodeId]:
        """All transitive successors of ``node`` (excluding itself)."""
        self._check_node(node)
        seen: Set[NodeId] = set()
        stack = list(self._succ[node])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._succ[u])
        return seen

    def induced_subgraph(self, nodes: Iterable[NodeId], name: Optional[str] = None) -> "ComputationalDag":
        """The subgraph induced by ``nodes`` (weights and internal edges kept)."""
        keep = set(nodes)
        for v in keep:
            self._check_node(v)
        sub = ComputationalDag(name=name or f"{self.name}[sub]")
        for v in self._data:
            if v in keep:
                sub.add_node(v, omega=self._data[v].omega, mu=self._data[v].mu)
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    def copy(self, name: Optional[str] = None) -> "ComputationalDag":
        return self.induced_subgraph(self._data.keys(), name=name or self.name)

    def relabeled(self, mapping: Mapping[NodeId, NodeId], name: Optional[str] = None) -> "ComputationalDag":
        """Return a copy with node ids replaced according to ``mapping``."""
        out = ComputationalDag(name=name or self.name)
        for v in self._data:
            out.add_node(mapping.get(v, v), omega=self._data[v].omega, mu=self._data[v].mu)
        for u, v in self.edges():
            out.add_edge(mapping.get(u, u), mapping.get(v, v))
        return out

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with ``omega``/``mu`` node attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for v, d in self._data.items():
            g.add_node(v, omega=d.omega, mu=d.mu)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g, name: Optional[str] = None) -> "ComputationalDag":
        """Build from a :class:`networkx.DiGraph` (missing weights default to 1)."""
        dag = cls(name=name or (g.name or "dag"))
        for v, d in g.nodes(data=True):
            dag.add_node(v, omega=d.get("omega", 1.0), mu=d.get("mu", 1.0))
        for u, v in g.edges():
            dag.add_edge(u, v)
        if not dag.is_acyclic():
            raise CycleError("input networkx graph contains a cycle")
        return dag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputationalDag(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
