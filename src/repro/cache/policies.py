"""Cache eviction policies for the memory-management stage.

The second stage of the two-stage approach decides which cached value to
evict whenever room must be made in a processor's fast memory.  The paper
uses two policies:

* the **clairvoyant** (Bélády / optimal offline) policy, which evicts the
  value whose next use on the same processor lies furthest in the future —
  optimal for unit memory weights;
* the **LRU** policy, which evicts the value that has been idle the longest
  (the "practical" baseline).

Two additional simple policies (FIFO and largest-first) are provided for
ablation experiments.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from repro.dag.graph import NodeId


class CacheEntryInfo(NamedTuple):
    """Information about one cached value offered to an eviction policy.

    Attributes
    ----------
    node:
        The cached node (value).
    mu:
        Its memory weight.
    next_use:
        Index of the next compute operation on this processor that reads the
        value (``inf`` if it is never read again locally).
    last_use:
        Index of the most recent operation that produced or read the value.
    insertion:
        Index of the operation that brought the value into the cache.
    """

    node: NodeId
    mu: float
    next_use: float
    last_use: float
    insertion: float


class EvictionPolicy(abc.ABC):
    """Strategy choosing which cached value to evict when room is needed."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        """Return the node to evict among ``candidates`` (never empty)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ClairvoyantPolicy(EvictionPolicy):
    """Bélády's optimal offline policy: evict the value needed furthest away.

    Ties are broken towards larger memory weights (freeing more space) and
    then deterministically by node id, so runs are reproducible.
    """

    name = "clairvoyant"

    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        if not candidates:
            raise ValueError("no eviction candidates")
        best = max(candidates, key=lambda e: (e.next_use, e.mu, str(e.node)))
        return best.node


class LruPolicy(EvictionPolicy):
    """Least-recently-used policy: evict the value idle for the longest time."""

    name = "lru"

    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        if not candidates:
            raise ValueError("no eviction candidates")
        best = min(candidates, key=lambda e: (e.last_use, str(e.node)))
        return best.node


class FifoPolicy(EvictionPolicy):
    """First-in-first-out policy: evict the value inserted earliest."""

    name = "fifo"

    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        if not candidates:
            raise ValueError("no eviction candidates")
        best = min(candidates, key=lambda e: (e.insertion, str(e.node)))
        return best.node


class LargestFirstPolicy(EvictionPolicy):
    """Evict the largest value first (frees the most space per eviction)."""

    name = "largest_first"

    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        if not candidates:
            raise ValueError("no eviction candidates")
        best = max(candidates, key=lambda e: (e.mu, e.next_use, str(e.node)))
        return best.node


class RandomPolicy(EvictionPolicy):
    """Uniformly random eviction (lower bound sanity check for ablations)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_victim(self, candidates: Sequence[CacheEntryInfo]) -> NodeId:
        if not candidates:
            raise ValueError("no eviction candidates")
        ordered = sorted(candidates, key=lambda e: str(e.node))
        return self._rng.choice(ordered).node


#: A victim order: the rank of one cached value from its next use, memory
#: weight, last use, insertion index and name rank (the dense rank of
#: ``str(node)`` among the values ranked together, so it orders like the
#: name).  The candidate of highest rank is the victim.
Rank = Callable[[float, float, float, float, int], tuple]

_RANKS: Dict[Callable, Rank] = {
    ClairvoyantPolicy.choose_victim:
        lambda next_use, mu, last_use, insertion, name: (next_use, mu, name),
    LargestFirstPolicy.choose_victim:
        lambda next_use, mu, last_use, insertion, name: (mu, next_use, name),
    LruPolicy.choose_victim:
        lambda next_use, mu, last_use, insertion, name: (-last_use, -name),
    FifoPolicy.choose_victim:
        lambda next_use, mu, last_use, insertion, name: (-insertion, -name),
}


def victim_rank(policy: EvictionPolicy) -> Optional[Rank]:
    """The rank whose highest value ``policy.choose_victim`` picks, or None.

    Each built-in policy with a total order has one: ``max`` and ``min``
    keep the first of equal keys, so among equal ranks the victim is the
    first candidate.  The rank is looked up by the function behind
    ``policy.choose_victim``, so a policy that overrides it, like
    :class:`RandomPolicy` and any third-party policy, has none.
    """
    return _RANKS.get(getattr(policy.choose_victim, "__func__", None))


_POLICIES = {
    "clairvoyant": ClairvoyantPolicy,
    "belady": ClairvoyantPolicy,
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "largest_first": LargestFirstPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by name (case-insensitive)."""
    key = name.lower()
    if key not in _POLICIES:
        raise ValueError(
            f"unknown eviction policy {name!r}; available: {sorted(set(_POLICIES))}"
        )
    return _POLICIES[key]()
