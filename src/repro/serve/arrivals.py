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

The draw is the loop ``clock += rng.expovariate(rate)``, ``rng.uniform(
deadline_min, deadline_max)``, ``rng.randrange(pool_size)`` per request,
replayed exactly in numpy blocks of :data:`ARRIVAL_BLOCK` requests from
the same generator's 32-bit words.  The replay is exact because:

* ``rng.getrandbits(32 * m)`` consumes the next ``m`` words of the same
  Mersenne Twister state that ``random()`` and ``randrange`` read one at
  a time, and places word ``i`` at bits ``32*i`` to ``32*i + 31``: its
  little-endian bytes are the words in generation order;
* CPython 3.10 to 3.13 compute ``random()`` from two words ``a, b`` as
  ``((a >> 5) * 67108864.0 + (b >> 6)) * 2**-53``, ``expovariate`` as
  ``-math.log(1.0 - random()) / rate``, ``uniform`` as ``deadline_min +
  (deadline_max - deadline_min) * random()``, and ``randrange(n)`` for
  ``n < 2**32`` as the top ``n.bit_length()`` bits of the first later
  word in which they are below ``n``, one word per attempt;
* numpy's float64 ``+``, ``-``, ``*`` and ``/`` round like Python floats,
  the logarithm is ``math.log`` applied per element (``np.log`` may differ
  in the last bit), and ``np.add.accumulate`` adds the gaps one after the
  other, as the loop's ``clock +=`` does, carried from block to block.

The template pool size must therefore be an integer (``operator.index``)
below ``2**32``; any other size is a :class:`ConfigurationError` on every
Python, where ``randrange(6.0)`` itself draws with a ``DeprecationWarning``
on 3.10 and 3.11 but raises ``TypeError`` on 3.12.
"""

from __future__ import annotations

import math
import operator
import random
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator, List

import numpy as np

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
        for name in ("requests", "limit"):
            value = getattr(self, name)
            if value is None and name == "limit":
                continue  # the whole dataset
            try:
                operator.index(value)
            except TypeError:
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
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


#: requests drawn per block: the block's words, their acceptance bytes and
#: a few numpy arrays of this many entries are alive at a time
ARRIVAL_BLOCK = 4096
#: words drawn for a block beyond the words its requests are expected to
#: need; a block whose template rejections outrun them draws more
WORD_HEADROOM = 256

#: one request's words in the acceptance bytes of a block: the two
#: ``random()`` word pairs of its gap and deadline, then its ``randrange``
#: attempts, rejected (0) until one is accepted (1)
_REQUEST = re.compile(rb"(?s).{4}\x00*\x01")


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``, in generation order."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4"
    )


def _random(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` of each word pair, by CPython's formula (exact)."""
    return ((first >> 5) * 67108864.0 + (second >> 6)) * (1.0 / 9007199254740992.0)


def _pool_size(pool_size) -> int:
    """``pool_size`` as an int in ``[1, 2**32)``: ``randrange`` below it
    reads one 32-bit word per attempt."""
    try:
        size = operator.index(pool_size)
    except TypeError:
        raise ConfigurationError(
            f"request pool size must be an integer, got {pool_size!r}"
        ) from None
    if size < 1:
        raise ConfigurationError("request pool is empty")
    if size >= 2**32:
        raise ConfigurationError(f"request pool size must be below 2**32, got {size}")
    return size


def generate_requests(config: ArrivalConfig, pool_size: int) -> RequestTrace:
    """The seeded arrival trace: ``config.requests`` requests in time order.

    The trace is the one a loop over one ``random.Random(config.seed)``
    draws, per request: the gap ``expovariate(rate)`` added to the clock,
    the deadline ``uniform(deadline_min, deadline_max)`` and the template
    ``randrange(pool_size)``.  It is reproduced bit for bit, a block of
    :data:`ARRIVAL_BLOCK` requests at a time, from that generator's 32-bit
    words (see the module docstring for why the replay is exact): a
    request takes two words for its gap, two for its deadline and one per
    ``randrange`` attempt, an attempt being accepted when its top
    ``pool_size.bit_length()`` bits are below ``pool_size``.  The
    acceptance bytes of a block's words are cut into requests by one
    regular expression; the words a block draws beyond its last request
    are carried into the next, and a block whose rejections outrun its
    :data:`WORD_HEADROOM` draws more.

    ``pool_size`` must be an integer (``operator.index``) in ``[1,
    2**32)``, a :class:`ConfigurationError` otherwise.
    """
    config.validate()
    pool = _pool_size(pool_size)
    total = config.requests
    block, headroom = ARRIVAL_BLOCK, WORD_HEADROOM
    bits = pool.bit_length()
    shift = 32 - bits
    # per request: 4 words, plus 2**bits / pool expected randrange attempts
    def words_for(requests: int) -> int:
        return requests * (4 * pool + 2**bits) // pool + headroom

    arrival = array("d", [0.0]) * total
    deadline = array("d", [0.0]) * total
    template = array("q", [0]) * total
    arrivals = np.frombuffer(arrival, np.float64)
    deadlines = np.frombuffer(deadline, np.float64)
    templates = np.frombuffer(template, np.int64)
    # Python floats, as the loop's float arithmetic converts its operands;
    # the deadline window is subtracted first, as ``uniform`` does
    rate = float(config.rate)
    low = float(config.deadline_min)
    width = float(config.deadline_max - config.deadline_min)
    rng = random.Random(config.seed)
    words = np.empty(0, "<u4")
    clock = 0.0
    for first in range(0, total, block):
        count = min(block, total - first)
        drawn = _words(rng, max(0, words_for(count) - len(words)))
        words = np.concatenate((words, drawn))
        accepted = ((words >> shift) < pool).tobytes()
        found = _REQUEST.findall(accepted)
        while len(found) < count:
            more = _words(rng, words_for(count - len(found)))
            words = np.concatenate((words, more))
            accepted += ((more >> shift) < pool).tobytes()
            found = _REQUEST.findall(accepted)
        lengths = np.fromiter(map(len, found), np.int64, count)
        ends = np.cumsum(lengths) - 1  # each request's accepted attempt
        starts = ends - lengths + 1  # each request's first word
        unit = _random(words[starts], words[starts + 1])
        gaps = np.fromiter(map(math.log, (1.0 - unit).tolist()), np.float64, count)
        np.negative(gaps, out=gaps)
        # a huge gap or clock overflows to inf, as a Python float does
        with np.errstate(over="ignore"):
            gaps /= rate
            gaps[0] += clock
            np.add.accumulate(gaps, out=arrivals[first:first + count])
        clock = float(arrivals[first + count - 1])
        deadlines[first:first + count] = low + width * _random(
            words[starts + 2], words[starts + 3]
        )
        templates[first:first + count] = words[ends] >> shift
        words = words[ends[-1] + 1:]
    # the views export the columns' buffers, which would keep them from growing
    del arrivals, deadlines, templates
    trace = RequestTrace()
    trace.arrival, trace.deadline, trace.template = arrival, deadline, template
    return trace
