"""The online scheduling service: a virtual-time service loop over a Session.

:class:`ScheduleService` answers a seeded arrival trace
(:mod:`repro.serve.arrivals`) of DAG scheduling requests, picking a
pipeline spec per request with the load-adaptive policy
(:mod:`repro.serve.policy`) and executing through the unified execution
core (:class:`repro.exec.Session`) with its content-hash cache.

Execution is **two-phase**, which is what makes a 10^5-request service
bench both cheap and bit-identically replayable:

1. *Simulate* (virtual time): requests are replayed through a
   discrete-event loop over ``servers`` virtual servers — queue depth and
   deadline slack feed the policy, repeat ``(template, spec)`` pairs are
   cache hits at ``cache_hit_time``, and first occurrences cost a
   deterministic virtual service time (``service_time_scale x nodes x``
   spec weight).  No wall clock enters the timeline, so latencies,
   deadline misses and the SLO summary are pure functions of the seed.
2. *Execute* (real work): the distinct jobs discovered in phase 1 — a few
   dozen for a 10^5-request trace over a dataset pool — run as one
   :class:`~repro.exec.plan.RunPlan` through the session, which answers
   disk-cached keys without solving and streams the rest to the
   plan-ordered JSONL store.  Real schedule costs are joined back onto the
   per-request records.

Because phase 1 never consults the session and phase 2 is the session's
plan-order-deterministic batch execution, a ``workers=4`` service run is
bit-identical to ``workers=1``: same spec choices, same winners, same SLO
summary (the acceptance gate of the serve bench).

Per-request telemetry is stored as columns (:class:`RequestRecords`): the
trace's arrival, deadline and template columns plus stdlib ``array``
columns of start, finish, queue depth, cache-hit flag and job slot, where
a job slot holds the instance, spec, key and cost shared by every request
of one ``(template, spec)`` pair.  The join writes one cost per slot, and
the SLO summary and the trace digest read the columns.  A
:class:`RequestRecord` is built only when a caller indexes or iterates
``ServiceReport.records``.

The trace digest hashes the bytes ``json.dumps`` gives for one row per
request, but renders them with numpy, a block of rows at a time, without
a row object, a ``round`` call or the JSON encoder: ``_nanos`` rounds a
time to nine decimals exactly with Dekker's error-free product, and where
the rounded time's ``repr`` is a plain decimal of at most 15 significant
digits (``_plain``) its digits are written straight into a byte matrix.
A block holding any other time (such as ``3e-05`` or ``1234567.891``) is
encoded by ``json.dumps`` as before.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import operator
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError
from repro.exec import ExperimentJob, RunPlan, Session, pipeline_job
from repro.obs.metrics import nearest_rank_percentile
from repro.pipeline import ExperimentConfig, InstanceResult
from repro.serve.arrivals import (
    ArrivalConfig,
    RequestTrace,
    generate_requests,
    request_pool,
)
from repro.serve.policy import AdaptivePolicy, PolicyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def spec_weight(spec: str) -> float:
    """Deterministic virtual-cost weight of a canonical pipeline spec.

    A coarse work model for the virtual timeline: every pipeline starts at
    the two-stage baseline weight, and each expensive stage occurrence adds
    its surcharge (``race(...)`` branches therefore count each branch).
    The absolute scale is arbitrary — only the relative ordering of the
    policy tiers matters to the simulated latencies.
    """
    return (
        1.0
        + 4.0 * spec.count("ilp")
        + 3.0 * spec.count("dac")
        + 1.5 * spec.count("refine")
    )


@dataclass
class ServiceConfig:
    """Parameters of one service run (arrivals + policy + capacity model).

    ``servers`` is the *virtual* service capacity — it shapes queueing in
    the simulated timeline and is deliberately independent of the
    session's ``workers`` (real execution parallelism), so changing worker
    counts cannot change the telemetry.  ``cache_hit_time`` and
    ``service_time_scale`` are the virtual durations of a cache hit and of
    one node-weight unit of executed work.
    """

    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    servers: int = 2
    cache_hit_time: float = 0.05
    service_time_scale: float = 0.02
    experiment: ExperimentConfig = field(
        default_factory=lambda: ExperimentConfig(name="serve")
    )

    def validate(self) -> None:
        self.arrivals.validate()
        self.policy.validate()
        for name in ("cache_hit_time", "service_time_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        try:
            operator.index(self.servers)
        except TypeError:
            raise ConfigurationError(
                f"servers must be an integer, got {self.servers!r}"
            ) from None
        if self.servers < 1:
            raise ConfigurationError("service needs at least 1 virtual server")
        if self.cache_hit_time <= 0 or self.service_time_scale <= 0:
            raise ConfigurationError(
                "cache_hit_time and service_time_scale must be positive"
            )


@dataclass
class RequestRecord:
    """Per-request telemetry: one line of the service's request log.

    ``ServiceReport.records`` builds these on access from its columns, so
    changing one changes nothing in the report.
    """

    index: int
    instance: str
    template: int
    spec: str
    key: str
    arrival: float
    deadline: float
    queue_depth: int
    cache_hit: bool
    start: float
    finish: float
    cost: float = float("nan")

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def deadline_miss(self) -> bool:
        return self.finish > self.arrival + self.deadline

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "instance": self.instance,
            "template": self.template,
            "spec": self.spec,
            "key": self.key,
            "arrival": round(self.arrival, 9),
            "deadline": round(self.deadline, 9),
            "queue_depth": self.queue_depth,
            "cache_hit": self.cache_hit,
            "start": round(self.start, 9),
            "finish": round(self.finish, 9),
            "latency": round(self.latency, 9),
            "deadline_miss": self.deadline_miss,
            "cost": self.cost,
        }


class RequestRecords(Sequence):
    """Per-request telemetry as columns, read as a sequence of
    :class:`RequestRecord` views.

    ``trace`` supplies the arrival, deadline and template columns.  One
    entry per request lives in ``start``/``finish`` (``array("d")``),
    ``queue_depth``/``job`` (``array("q")``) and ``cache_hit``
    (``array("b")``); ``job`` is the request's job slot, an index into the
    per-slot lists ``instances``, ``specs``, ``keys`` and ``costs`` (a
    slot's cost is NaN until the service joins the results).  Indexing and
    iteration build records on demand; a slice is a list of them.

    A new instance has empty columns to append to.  The service instead
    sets them to the trace's length (``array(typecode, [0]) * n``) and
    fills them by position: the event loop's body item by item, its block
    kernel through numpy views that it drops before returning, so the
    columns stay resizable (see :meth:`ScheduleService._simulate`).
    """

    def __init__(self, trace: RequestTrace) -> None:
        self.trace = trace
        self.start = array("d")
        self.finish = array("d")
        self.queue_depth = array("q")
        self.cache_hit = array("b")
        self.job = array("q")
        self.instances: List[str] = []
        self.specs: List[str] = []
        self.keys: List[str] = []
        self.costs: List[float] = []

    def __len__(self) -> int:
        return len(self.job)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        trace, job = self.trace, self.job[index]
        return RequestRecord(
            index,
            self.instances[job],
            trace.template[index],
            self.specs[job],
            self.keys[job],
            trace.arrival[index],
            trace.deadline[index],
            self.queue_depth[index],
            bool(self.cache_hit[index]),
            self.start[index],
            self.finish[index],
            self.costs[job],
        )

    def __iter__(self) -> Iterator[RequestRecord]:
        trace, job = self.trace, self.job
        return map(
            RequestRecord,
            range(len(job)),
            map(self.instances.__getitem__, job),
            trace.template,
            map(self.specs.__getitem__, job),
            map(self.keys.__getitem__, job),
            trace.arrival,
            trace.deadline,
            self.queue_depth,
            map(bool, self.cache_hit),
            self.start,
            self.finish,
            map(self.costs.__getitem__, job),
        )


#: rows of the trace digest rendered per block: one byte matrix per block,
#: or one ``json.dumps`` call for a block outside the byte kernel's domain
DIGEST_CHUNK = 4096

#: Veltkamp's splitting constant for float64, 2**27 + 1
_SPLIT = 134217729.0


@functools.cache
def _pow10() -> np.ndarray:
    """10**0 ... 10**18, every power of ten an int64 holds."""
    import numpy as np

    return 10 ** np.arange(19, dtype=np.int64)


def _nanos(x: np.ndarray) -> np.ndarray:
    """``n = round(x * 10**9)``, half to even, of each float64, exactly.

    ``p = x * 1e9`` is rounded; Dekker's error-free product (Dekker 1971,
    "A floating-point technique for extending the available precision")
    gives the exact remainder ``e = x * 10**9 - p``.  Below ``2**52``,
    where every half-integer is a double, ``np.rint(p)`` (half to even) is
    the rounding of the exact product unless ``p`` itself is a
    half-integer; there the sign of ``e`` says which neighbour the exact
    product is nearer: +1 when ``p - n`` is 0.5 and ``e > 0``, -1 when it
    is -0.5 and ``e < 0``.  IEEE division then gives ``n / 1e9 ==
    round(x, 9)``: both are the double nearest to ``n * 10**-9``.
    """
    import numpy as np

    # an infinite or huge x yields inf or nan, which _plain rejects
    with np.errstate(over="ignore", invalid="ignore"):
        p = x * 1e9
        scaled = _SPLIT * x
        high = scaled - (scaled - x)
        low = x - high
        # 1e9 splits into (1e9, 0.0), which zeroes Dekker's two 1e9-low terms
        error = low * 1e9 - (p - high * 1e9)
        n = np.rint(p)
        half = p - n
    n += (half == 0.5) & (error > 0)
    n -= (half == -0.5) & (error < 0)
    return n


def _plain(x: np.ndarray, n: np.ndarray) -> bool:
    """Whether ``repr(round(x, 9))`` is the plain decimal of ``n * 10**-9``
    for every element.

    For ``10**5 <= n < 10**15`` the decimal has at most 15 significant
    digits, so it is the shortest string that reads back as the double
    (``DBL_DIG`` is 15), and it lies in ``[1e-4, 1e6)``, where ``repr``
    writes no exponent.  ``n == 0`` is plain only from a non-negative
    ``x``: a negative one rounds to ``-0.0``.
    """
    import numpy as np

    plain = ((n >= 1e5) & (n < 1e15)) | ((n == 0) & ~np.signbit(x))
    return bool(plain.all())


def _byte_table(texts: List[bytes]):
    """``texts`` as the rows of a NUL-padded ``uint8`` matrix, and the mask
    of their bytes."""
    import numpy as np

    table = np.array(texts, dtype=bytes)
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    width = table.itemsize
    return (
        table.view(np.uint8).reshape(len(texts), width),
        np.arange(width) < lengths[:, None],
    )


@functools.cache
def _flags():
    """``false`` and ``true`` as a :func:`_byte_table`, indexed by a flag."""
    return _byte_table([b"false", b"true"])


def _lookup(table, index: np.ndarray):
    """The rows ``index`` of a :func:`_byte_table`, one column each (a row
    gather, then a transposed view)."""
    data, keep = table
    return data[index].T, keep[index].T


def _text(text: bytes):
    """The same bytes in every column."""
    import numpy as np

    data = np.frombuffer(text, np.uint8)[:, None]
    return data, np.ones(data.shape, bool)


def _digit_bytes(quotients: np.ndarray) -> np.ndarray:
    """ASCII digits from ``quotients[k] = v // 10**(width - 1 - k)``:
    digit ``k`` is ``quotients[k] - 10 * quotients[k - 1]``, a value in
    0..9 that ``uint8`` arithmetic modulo 256 computes exactly."""
    import numpy as np

    digits = quotients.astype(np.uint8)
    digits[1:] -= 10 * digits[:-1]
    digits += ord("0")
    return digits


def _digits(values: np.ndarray):
    """The decimal digits of non-negative integers, leading zeros masked
    out (the last digit is always kept)."""
    width = len(str(int(values.max())))
    quotients = values // _pow10()[width - 1::-1, None]
    keep = quotients > 0
    keep[-1] = True
    return _digit_bytes(quotients), keep


def _decimal(n: np.ndarray):
    """``repr(n / 1e9)`` of the integer-valued floats ``n`` of the plain
    domain (see :func:`_plain`): six integer digits, a point and nine
    decimals, with the integer part's leading zeros and the decimals'
    trailing zeros masked out (the units digit and the first decimal are
    always kept)."""
    import numpy as np

    n = n.astype(np.int64)
    quotients = n // _pow10()[14::-1, None]
    digits = _digit_bytes(quotients)
    data = np.empty((16, len(n)), np.uint8)
    data[:6] = digits[:6]
    data[6] = ord(".")
    data[7:] = digits[6:]
    keep = np.ones(data.shape, bool)
    keep[:5] = quotients[:5] > 0
    # decimal j > 0 is kept while n % 10**(9 - j), its tail, is nonzero
    keep[8:] = n != quotients[6:14] * _pow10()[8:0:-1, None]
    return data, keep


def _block_bytes(records: RequestRecords, block: slice, specs):
    """The digest rows ``block`` of ``records`` as ``json.dumps`` writes
    them, joined by ``", "``, or None when one of their times or integers
    lies outside the kernel's domain (a negative integer, or a time whose
    rounded ``repr`` is not plain, see :func:`_plain`).

    Each field is a ``(bytes, keep)`` pair of ``(width, rows)`` matrices,
    one column per row (``(width, 1)`` for text every row shares); the
    fields are stacked and the kept bytes read out row by row.
    """
    import numpy as np

    trace = records.trace
    times = [
        np.asarray(column)[block]
        for column in (trace.arrival, records.start, records.finish)
    ]
    nanos = [_nanos(x) for x in times]
    template = np.asarray(trace.template)[block]
    depth = np.asarray(records.queue_depth)[block]
    if not all(map(_plain, times, nanos)) or template.min() < 0 or depth.min() < 0:
        return None
    rows = len(template)
    arrival, _, finish = times
    miss = finish > arrival + np.asarray(trace.deadline)[block]
    hit = np.asarray(records.cache_hit)[block] != 0
    comma = _text(b", ")
    fields = [
        _text(b", ["),
        _digits(np.arange(block.start, block.start + rows)),
        comma,
        _digits(template),
        comma,
        _lookup(specs, np.asarray(records.job)[block]),
        comma,
        _decimal(nanos[0]),
        comma,
        _decimal(nanos[1]),
        comma,
        _decimal(nanos[2]),
        comma,
        _digits(depth),
        comma,
        _lookup(_flags(), hit.view(np.uint8)),
        comma,
        _lookup(_flags(), miss.view(np.uint8)),
        _text(b"]"),
    ]
    width = sum(len(data) for data, _ in fields)
    matrix = np.empty((width, rows), np.uint8)
    keep = np.empty((width, rows), bool)
    top = 0
    for data, mask in fields:
        matrix[top:top + len(data)] = data
        keep[top:top + len(data)] = mask
        top += len(data)
    keep[:2, 0] = False  # no separator before the block's first row
    return matrix.T[keep.T]


def _block_json(records: RequestRecords, block: slice) -> bytes:
    """The digest rows ``block`` of ``records`` through ``json.dumps``."""
    trace = records.trace
    arrival, finish = trace.arrival[block], records.finish[block]
    rows = zip(
        range(*block.indices(len(records))),
        trace.template[block],
        map(records.specs.__getitem__, records.job[block]),
        map(round, arrival, repeat(9)),
        map(round, records.start[block], repeat(9)),
        map(round, finish, repeat(9)),
        records.queue_depth[block],
        map(bool, records.cache_hit[block]),
        map(operator.gt, finish, map(operator.add, arrival, trace.deadline[block])),
    )
    return json.dumps(list(rows), sort_keys=True)[1:-1].encode("utf-8")


@dataclass
class ServiceReport:
    """Everything one service run produced: telemetry + real results."""

    config: ServiceConfig
    records: RequestRecords
    results: Dict[str, InstanceResult]
    jobs: Dict[str, ExperimentJob]

    def slo_summary(self) -> Dict[str, object]:
        """The SLO summary: a pure function of the seed (no wall clock).

        Floats are rounded to 9 decimals so the JSON rendering is stable
        enough to diff byte-for-byte (the CI determinism gate).
        """
        import numpy as np

        records = self.records
        trace = records.trace
        n = len(records)
        arrival = np.array(trace.arrival)
        finish = np.array(records.finish)
        latencies = np.sort(finish - arrival)
        makespan = float(finish.max()) if n else 0.0
        misses = int(np.count_nonzero(finish > arrival + np.array(trace.deadline)))
        specs: Dict[str, int] = {}
        requests = np.bincount(np.asarray(records.job, dtype=np.int64))
        for job in np.flatnonzero(requests):
            spec = records.specs[job]
            specs[spec] = specs.get(spec, 0) + int(requests[job])
        return {
            "requests": n,
            "distinct_jobs": len(self.results),
            "virtual_makespan": round(makespan, 9),
            "throughput_rps": round(n / makespan, 9) if makespan else 0.0,
            "latency_p50": round(float(nearest_rank_percentile(latencies, 50)), 9),
            "latency_p99": round(float(nearest_rank_percentile(latencies, 99)), 9),
            "deadline_miss_rate": round(misses / n, 9) if n else 0.0,
            "cache_hit_rate": round(records.cache_hit.count(1) / n, 9) if n else 0.0,
            "spec_requests": {spec: specs[spec] for spec in sorted(specs)},
        }

    def trace_digest(self) -> str:
        """sha256 over the per-request virtual trace (spec choices, times,
        hit/miss flags): two replays are bit-identical iff digests match.

        The hashed bytes are ``json.dumps(rows, sort_keys=True)`` of one
        row ``[index, template, spec, arrival, start, finish, queue_depth,
        cache_hit, deadline_miss]`` per request (times rounded to 9
        decimals), rendered ``DIGEST_CHUNK`` rows at a time.  A block is
        written as bytes by ``_block_bytes`` when every time in it rounds
        to ``n * 10**-9`` with ``10**5 <= n < 10**15``, or to ``+0.0``, and
        no integer in it is negative: such a time prints as the plain
        decimal of ``n`` (``_plain``).  Any other block goes through
        ``json.dumps`` (``_block_json``).
        """
        records = self.records
        specs = _byte_table([json.dumps(spec).encode() for spec in records.specs])
        digest = hashlib.sha256(b"[")
        separator = b""
        for start in range(0, len(records), DIGEST_CHUNK):
            block = slice(start, start + DIGEST_CHUNK)
            body = _block_bytes(records, block, specs)
            if body is None:
                body = _block_json(records, block)
            digest.update(separator)
            digest.update(body)
            separator = b", "
        digest.update(b"]")
        return digest.hexdigest()

    def write_requests_jsonl(self, path) -> None:
        """Write the per-request telemetry as JSONL (one record per line)."""
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


#: requests in the first block :func:`_advance` is given after a request
#: went through the loop body; each block that keeps all its requests
#: doubles the next one, up to :data:`WINDOW_MAX`
WINDOW_MIN = 256
#: the most requests in one block: it bounds the block's numpy arrays
WINDOW_MAX = 16384


def _block_chooser(policy):
    """``policy.choose_many`` where it answers as ``policy.choose`` does,
    else None.

    A policy with ``choose_for`` is asked per request.  Otherwise the
    nearest definitions of ``choose_many`` and ``choose``, on the instance
    or along its class's MRO, must be on the same object: a subclass that
    overrides ``choose`` alone keeps the per-request path.
    """
    if hasattr(policy, "choose_for"):
        return None

    def owner(name):
        for scope in (policy, *type(policy).__mro__):
            if name in getattr(scope, "__dict__", ()):
                return scope
        return None

    scope = owner("choose_many")
    if scope is None or scope is not owner("choose"):
        return None
    return policy.choose_many


def _advance(records, first, size, free, in_system, hit_time, choose_many, table):
    """Answer requests ``first`` to ``first + size - 1`` of ``records`` as
    cache hits in numpy, up to the first one the loop body must take: the
    block kernel of :meth:`ScheduleService._simulate`, whose docstring
    gives the exactness argument (rules (a) to (f)).

    ``free`` and ``in_system`` are the loop's server and in-system heaps,
    ``table`` the job slot of each ``(template, tier)`` (-1 for none).
    Returns the number of requests answered, whose columns are written,
    and the two heaps after them.
    """
    import numpy as np

    trace = records.trace
    block = slice(first, first + size)
    arrival = np.frombuffer(trace.arrival, np.float64)[block]
    servers = len(free)
    # chain[p] is the server time request first + p waits for (rule (b)):
    # the sorted server times, then the block's finishes
    chain = np.empty(servers + size)
    chain[:servers] = sorted(free)
    np.add(arrival, hit_time, out=chain[servers:])
    # walk each residue class from each request that waits, in Python
    # floats; memoryviews read and write the chain without copying it
    times, arrivals = memoryview(chain), memoryview(arrival)
    settled = [-1] * servers  # per residue class, its last walked position
    for position in np.flatnonzero(chain[:size] > arrival).tolist():
        lane = position % servers
        if position <= settled[lane]:
            continue
        ready = times[position]
        while ready > arrivals[position]:
            ready += hit_time
            position += servers
            times[position] = ready
            if position >= size:
                break
        settled[lane] = position
    times.release()
    arrivals.release()
    finish = chain[servers:]
    drops = np.flatnonzero(finish < chain[servers - 1:-1])
    # finish[:rising] does not decrease; the first drop is still exact
    rising = int(drops[0]) if len(drops) else size
    limit = min(rising + 1, size)
    head = arrival[:limit]
    waiting = np.sort(np.array(in_system, np.float64))
    depth = len(waiting) - waiting.searchsorted(head, "right")
    depth += np.maximum(
        np.arange(limit) - finish[:rising].searchsorted(head, "right"), 0
    )
    tier = choose_many(depth, np.frombuffer(trace.deadline, np.float64)[block][:limit])
    slot = table[np.frombuffer(trace.template, np.int64)[block][:limit], tier]
    misses = np.flatnonzero(slot < 0)
    kept = int(misses[0]) if len(misses) else limit
    if not kept:
        return 0, free, in_system
    done = slice(first, first + kept)
    np.frombuffer(records.start, np.float64)[done] = np.maximum(
        arrival[:kept], chain[:kept]
    )
    np.frombuffer(records.finish, np.float64)[done] = finish[:kept]
    np.frombuffer(records.queue_depth, np.int64)[done] = depth[:kept]
    np.frombuffer(records.cache_hit, np.int8)[done] = 1
    np.frombuffer(records.job, np.int64)[done] = slot[:kept]
    free = chain[kept:kept + servers].tolist()
    heapq.heapify(free)
    last = arrival[kept - 1]
    finish = finish[:kept]
    in_system = np.sort(
        np.concatenate((waiting[waiting > last], finish[finish > last]))
    ).tolist()
    return kept, free, in_system


class ScheduleService:
    """Runs one arrival trace through the two-phase service loop."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        session: Optional[Session] = None,
        policy=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self.session = session if session is not None else Session()
        # any object with choose(queue_depth, slack) works; a policy that
        # additionally offers choose_for(features, queue_depth, slack) —
        # e.g. repro.serve.policy.LearnedPolicy — is consulted with the
        # instance features instead (see _simulate)
        self.policy = policy if policy is not None \
            else AdaptivePolicy(self.config.policy)

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        """Simulate the trace, execute the distinct jobs, join the costs.

        The serve-phase boundaries are traced (``serve.simulate`` /
        ``serve.execute`` / ``serve.join`` spans) when :mod:`repro.obs`
        tracing is on; spans never enter the virtual timeline or the SLO
        summary, which stay pure functions of the seed.
        """
        from repro import obs

        with obs.trace_span(
            "serve.run",
            category="serve",
            requests=self.config.arrivals.requests,
            servers=self.config.servers,
        ) as run_span:
            pool = request_pool(self.config.arrivals)
            requests = generate_requests(self.config.arrivals, len(pool))
            with obs.trace_span("serve.simulate", category="serve") as span:
                records, jobs = self._simulate(pool, requests)
                span.set(records=len(records), distinct_jobs=len(jobs))
            with obs.trace_span(
                "serve.execute", category="serve", distinct_jobs=len(jobs)
            ):
                results = self._execute(jobs)
            with obs.trace_span("serve.join", category="serve"):
                records.costs[:] = [
                    result.extra_costs.get("member_cost", result.ilp_cost)
                    for result in map(results.__getitem__, records.keys)
                ]
            run_span.set(distinct_jobs=len(jobs))
            return ServiceReport(
                config=self.config, records=records, results=results, jobs=jobs
            )

    # ------------------------------------------------------------------
    def _simulate(self, pool, requests):
        """Phase 1: the discrete-event loop in virtual time.

        ``free`` is the min-heap of virtual server availability times: a
        request starts on the server that frees up first, or at its
        arrival if that is later, and ``heapreplace`` swaps that server's
        time for the request's finish (the same multiset as a pop and a
        push, so the same minimum next time).  ``in_system`` holds the
        finish times of admitted-but-unfinished requests, so popping it at
        each arrival yields the queue depth the policy sees.  Repeat
        ``(template, spec)`` pairs are answered at ``cache_hit_time``.
        The simulation deliberately never consults the *disk* cache: the
        timeline must be a pure function of the config — byte-identical
        across repeats even when runs share a cache directory — so disk
        hits accelerate phase 2 (no solving) without touching the
        telemetry.  Returns the :class:`RequestRecords` (costs still NaN)
        and the distinct jobs by key, in first-request order.

        The loop body answers one request at a time, and it is the only
        code that creates job slots, takes misses and asks a
        ``choose_for`` policy.  Runs of cache hits are answered by
        :func:`_advance`, a numpy kernel over a block of requests, when the
        policy's ``choose_many`` is its ``choose`` per element
        (:func:`_block_chooser`).  The block starting at request ``i``
        gives every request the values the loop body would, bit for bit,
        because, with ``c`` servers, ``h`` the hit time and ``f`` the
        finishes:

        * (a) every request of the block is a cache hit: the block ends
          before the first request whose ``(template, tier)`` has no slot
          yet in the slot table, which the loop body fills as it creates
          slots (tiers with equal specs share one); that request goes
          through the loop body, whether it misses or not;
        * (b) with the sorted server times put in front of the block's
          finishes, the server heap's minimum at request ``j`` is the
          value ``c`` places before ``f_j`` for as long as that sequence
          does not decrease, so ``f_j = max(a_j, f_{j-c}) + h``.  numpy
          adds ``a + h`` for the whole block, and each residue class of
          ``j`` modulo ``c`` is then walked in increasing ``j`` in Python
          floats, from each request whose predecessor finishes after its
          arrival: ``f_j = f_{j-c} + h``, the same IEEE addition, for as
          long as requests wait.  The block keeps its requests up to and
          including the first whose finish is below the one before it
          (after a miss still holds a server, that is the first one);
        * (c) ``start_j = max(a_j, f_{j-c})``, which is ``arrival`` on a
          tie as in the loop;
        * (d) the arrivals are non-decreasing and ``in_system`` keeps
          every finish above the latest arrival, so the queue depth at
          ``j`` is ``#{k < j : f_k > a_j}``: the earlier finishes still
          in the system above ``a_j`` (``searchsorted`` on them, sorted)
          plus ``max(0, j - i - s)``, with ``s`` the number of the
          block's non-decreasing finishes up to ``a_j``, which are the
          block's first ``s``; a finish equal to its own arrival (a hit
          time below half an ulp of the clock) needs no special case;
        * (e) ``choose_many`` gives each request's tier index, equal to
          ``choose`` element by element (see
          :meth:`~repro.serve.policy.AdaptivePolicy.choose_many`);
        * (f) after the block the server heap is the last ``c`` values of
          that sequence and ``in_system`` the earlier and the block's
          finishes above the block's last arrival.

        The loop body hands over to the kernel once ``c`` requests in a
        row finished no earlier than every server time before them: the
        server heap then holds exactly the last ``c`` finishes, in order
        (after a miss, once its server is free again).  A block of
        :data:`WINDOW_MIN` requests follows, and every block that keeps
        all its requests doubles the next, up to :data:`WINDOW_MAX`.  The
        five record columns are allocated at trace length; the loop body
        sets their items and the kernel writes them through numpy views
        that live only while it runs, so no buffer stays exported.
        """
        import numpy as np

        cfg = self.config
        servers = cfg.servers
        hit_time = float(cfg.cache_hit_time)
        # feature-aware policies (duck-typed choose_for, e.g. LearnedPolicy)
        # see the instance features of the request's template; features are
        # deterministic per (dag, config), so one computation per template
        # keeps the timeline pure and the loop cheap
        chooser = getattr(self.policy, "choose_for", None)
        feature_memo: Dict[int, object] = {}
        if chooser is None:
            choose = self.policy.choose
        else:
            from repro.learn.features import instance_features
        choose_many = _block_chooser(self.policy)
        if choose_many is not None:
            tiers = self.policy.specs
            # the job slot of each (template, tier), -1 until it is created
            table = np.full((len(pool), len(tiers)), -1, np.int64)
        heappop, heappush, heapreplace = (
            heapq.heappop, heapq.heappush, heapq.heapreplace
        )
        free = [0.0] * servers  # equal times: already a heap
        in_system: List[float] = []
        # one job slot per distinct (template, spec) pair, in first-request
        # order, found by template and then spec; miss_time is a slot's
        # virtual service time on a cache miss
        slots: Dict[int, Dict[str, int]] = defaultdict(dict)
        miss_time: List[float] = []
        jobs: Dict[str, ExperimentJob] = {}
        hot: set = set()
        total = len(requests)
        records = RequestRecords(requests)
        start_column = records.start = array("d", [0.0]) * total
        finish_column = records.finish = array("d", [0.0]) * total
        depth_column = records.queue_depth = array("q", [0]) * total
        hit_column = records.cache_hit = array("b", [0]) * total
        job_column = records.job = array("q", [0]) * total
        keys = records.keys
        arrivals, deadlines, templates = (
            requests.arrival, requests.deadline, requests.template
        )
        # the server heap's largest time, and how many requests in a row
        # finished no earlier than it
        top, run = 0.0, 0
        window = WINDOW_MIN
        index = 0
        while index < total:
            if choose_many is not None and run >= servers:
                size = min(window, total - index)
                kept, free, in_system = _advance(
                    records, index, size, free, in_system, hit_time,
                    choose_many, table,
                )
                index += kept
                if kept == size:
                    window = min(2 * window, WINDOW_MAX)
                    continue
                window = WINDOW_MIN
                top, run = max(free), 0
            for index in range(index, total):
                arrival = arrivals[index]
                deadline = deadlines[index]
                template = templates[index]
                while in_system and in_system[0] <= arrival:
                    heappop(in_system)
                depth = len(in_system)
                if chooser is None:
                    spec = choose(depth, deadline)
                else:
                    if template not in feature_memo:
                        feature_memo[template] = instance_features(
                            pool[template], cfg.experiment
                        )
                    spec = chooser(feature_memo[template], depth, deadline)
                template_slots = slots[template]
                slot = template_slots.get(spec)
                if slot is None:
                    job = pipeline_job(pool[template], spec, cfg.experiment)
                    key = job.key()
                    jobs.setdefault(key, job)
                    slot = template_slots[spec] = len(keys)
                    records.instances.append(job.instance_name)
                    records.specs.append(spec)
                    keys.append(key)
                    records.costs.append(float("nan"))
                    nodes = len(job.dag_data.get("nodes", ()))
                    miss_time.append(
                        cfg.service_time_scale * nodes * spec_weight(spec)
                    )
                    if choose_many is not None:
                        for tier, tier_spec in enumerate(tiers):
                            if tier_spec == spec:
                                table[template, tier] = slot
                key = keys[slot]
                cache_hit = key in hot
                if cache_hit:
                    service_time = hit_time
                else:
                    service_time = miss_time[slot]
                    hot.add(key)
                # max(arrival, earliest), which keeps arrival on a tie
                earliest = free[0]
                start = earliest if earliest > arrival else arrival
                finish = start + service_time
                heapreplace(free, finish)
                heappush(in_system, finish)
                start_column[index] = start
                finish_column[index] = finish
                depth_column[index] = depth
                hit_column[index] = cache_hit
                job_column[index] = slot
                if finish >= top:
                    top = finish
                    run += 1
                else:
                    run = 0
                if choose_many is not None and run >= servers:
                    break
            index += 1
        return records, jobs

    def _execute(self, jobs: Dict[str, ExperimentJob]):
        """Phase 2: run the distinct jobs (first-appearance order) as one
        plan through the session; disk-cached keys replay without solving."""
        if not jobs:
            return {}
        plan = RunPlan.from_jobs(list(jobs.values()))
        results = self.session.run(plan)
        return dict(zip(jobs.keys(), results))
