"""Deterministic request arrival processes for the scheduling service.

The online setting of the paper's problem: DAG scheduling requests *arrive
over time* instead of being handed over as one offline batch.  This module
generates such request traces — a Poisson-style arrival process
(exponential inter-arrival times at a configurable mean rate) over a fixed
pool of benchmark DAGs (:mod:`repro.experiments.datasets`), each request
carrying a *relative* deadline drawn uniformly from a configured window.

Everything is driven by one :class:`random.Random` seeded from
:attr:`ArrivalConfig.seed`, so a trace is a pure function of its config:
golden tests pin traces, and the ``repro serve bench`` determinism gate
diffs two runs byte-for-byte.  Times are *virtual* (model time units, not
wall clock) — the service simulator (:mod:`repro.serve.service`) keeps the
whole timeline virtual precisely so replays are bit-identical across
machines and worker counts.

A trace is stored as columns: :func:`generate_requests` draws arrival
times, deadlines and template indices into three stdlib ``array`` columns
of a :class:`RequestTrace`, and a :class:`ServeRequest` is built only when
a caller indexes or iterates the trace.  A 2*10^5-request trace thus
holds three flat buffers instead of 2*10^5 objects.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator, List

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.graph import ComputationalDag


@dataclass(frozen=True)
class ServeRequest:
    """One scheduling request of the arrival trace.

    ``template`` indexes the DAG pool (requests for the same template are
    the *repeat DAGs* the content-hash cache answers without solving);
    ``deadline`` is relative to ``arrival``: the request misses its SLO
    when it finishes after ``arrival + deadline``.
    """

    index: int
    arrival: float
    deadline: float
    template: int


class RequestTrace(Sequence):
    """A request trace as three columns, read as a sequence of
    :class:`ServeRequest` views.

    ``arrival`` and ``deadline`` are ``array("d")`` columns and
    ``template`` an ``array("q")`` column, one entry per request; a
    request's ``index`` is its position.  Indexing and iteration build the
    :class:`ServeRequest` of a position on demand (a slice is a list of
    them).  A trace equals another trace with equal columns and a list of
    the same requests.
    """

    __slots__ = ("arrival", "deadline", "template")

    def __init__(
        self,
        arrival: Iterable[float] = (),
        deadline: Iterable[float] = (),
        template: Iterable[int] = (),
    ) -> None:
        self.arrival = array("d", arrival)
        self.deadline = array("d", deadline)
        self.template = array("q", template)
        if not len(self.arrival) == len(self.deadline) == len(self.template):
            raise ValueError("trace columns differ in length")

    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        return ServeRequest(
            index, self.arrival[index], self.deadline[index], self.template[index]
        )

    def __iter__(self) -> Iterator[ServeRequest]:
        return map(ServeRequest, count(), self.arrival, self.deadline, self.template)

    def __eq__(self, other) -> bool:
        if isinstance(other, RequestTrace):
            return (self.arrival, self.deadline, self.template) == (
                other.arrival, other.deadline, other.template
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameters of one seeded arrival trace.

    ``rate`` is the mean number of arrivals per virtual time unit (the
    Poisson intensity); the relative deadline of each request is uniform in
    ``[deadline_min, deadline_max]``.  The DAG pool is a prefix of one of
    the benchmark datasets (``dataset``/``scale``/``limit`` mirror the CLI
    dataset flags).
    """

    seed: int = 0
    requests: int = 64
    rate: float = 1.0
    deadline_min: float = 0.5
    deadline_max: float = 8.0
    dataset: str = "tiny"
    scale: str = "default"
    limit: int = 6

    def validate(self) -> None:
        for name in ("rate", "deadline_min", "deadline_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.requests < 1:
            raise ConfigurationError("arrival trace needs at least 1 request")
        if self.rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if self.deadline_min <= 0 or self.deadline_max < self.deadline_min:
            raise ConfigurationError(
                "deadline window must satisfy 0 < deadline_min <= deadline_max"
            )
        if self.dataset not in ("tiny", "small"):
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; use 'tiny' or 'small'"
            )
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError("dataset limit must be >= 1")


def request_pool(config: ArrivalConfig) -> List["ComputationalDag"]:
    """The DAG templates requests sample from (a seeded dataset prefix)."""
    from repro.experiments.datasets import small_dataset, tiny_dataset

    config.validate()
    build = tiny_dataset if config.dataset == "tiny" else small_dataset
    return build(scale=config.scale, limit=config.limit)


def generate_requests(config: ArrivalConfig, pool_size: int) -> RequestTrace:
    """The seeded arrival trace: ``config.requests`` requests in time order.

    One ``random.Random(seed)`` drives inter-arrival gaps, deadlines and
    template choices in a fixed draw order (per request: gap, deadline,
    template), so the trace is reproducible down to the last bit for a
    given ``(config, pool_size)``.
    """
    config.validate()
    if pool_size < 1:
        raise ConfigurationError("request pool is empty")
    rng = random.Random(config.seed)
    trace = RequestTrace()
    arrival, deadline, template = (
        trace.arrival.append, trace.deadline.append, trace.template.append
    )
    clock = 0.0
    for _ in range(config.requests):
        clock += rng.expovariate(config.rate)
        arrival(clock)
        deadline(rng.uniform(config.deadline_min, config.deadline_max))
        template(rng.randrange(pool_size))
    return trace
