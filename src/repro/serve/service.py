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
the SLO summary and the trace digest read the columns; the digest streams
its JSON into ``hashlib`` in chunks.  A :class:`RequestRecord` is built
only when a caller indexes or iterates ``ServiceReport.records``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import operator
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.exec import RunPlan, Session, pipeline_job
from repro.experiments.runner import ExperimentConfig
from repro.obs.metrics import nearest_rank_percentile
from repro.serve.arrivals import (
    ArrivalConfig,
    RequestTrace,
    generate_requests,
    request_pool,
)
from repro.serve.policy import AdaptivePolicy, PolicyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import InstanceResult


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


#: rows of the trace digest encoded per ``json.dumps`` call
DIGEST_CHUNK = 4096


@dataclass
class ServiceReport:
    """Everything one service run produced: telemetry + real results."""

    config: ServiceConfig
    records: RequestRecords
    results: Dict[str, "InstanceResult"]
    jobs: Dict[str, "ExperimentJob"]

    def slo_summary(self) -> Dict[str, object]:
        """The SLO summary: a pure function of the seed (no wall clock).

        Floats are rounded to 9 decimals so the JSON rendering is stable
        enough to diff byte-for-byte (the CI determinism gate).
        """
        records = self.records
        trace = records.trace
        n = len(records)
        arrival = np.array(trace.arrival)
        finish = np.array(records.finish)
        latencies = np.sort(finish - arrival)
        makespan = float(finish.max()) if n else 0.0
        misses = int(np.count_nonzero(finish > arrival + np.array(trace.deadline)))
        specs: Dict[str, int] = {}
        for job, requests in Counter(records.job).items():
            spec = records.specs[job]
            specs[spec] = specs.get(spec, 0) + requests
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
        decimals); they are encoded ``DIGEST_CHUNK`` rows at a time.
        """
        records = self.records
        trace = records.trace
        rows = zip(
            range(len(records)),
            trace.template,
            map(records.specs.__getitem__, records.job),
            map(round, trace.arrival, repeat(9)),
            map(round, records.start, repeat(9)),
            map(round, records.finish, repeat(9)),
            records.queue_depth,
            map(bool, records.cache_hit),
            map(operator.gt, records.finish, map(operator.add, trace.arrival, trace.deadline)),
        )
        digest = hashlib.sha256(b"[")
        separator = b""
        while True:
            chunk = list(islice(rows, DIGEST_CHUNK))
            if not chunk:
                break
            digest.update(separator)
            digest.update(json.dumps(chunk, sort_keys=True)[1:-1].encode("utf-8"))
            separator = b", "
        digest.update(b"]")
        return digest.hexdigest()

    def write_requests_jsonl(self, path) -> None:
        """Write the per-request telemetry as JSONL (one record per line)."""
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


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

        ``free`` is the min-heap of virtual server availability times;
        ``in_system`` holds the finish times of admitted-but-unfinished
        requests, so popping it at each arrival yields the queue depth the
        policy sees.  Repeat ``(template, spec)`` pairs are answered at
        ``cache_hit_time``.  The simulation deliberately never consults the
        *disk* cache: the timeline must be a pure function of the config —
        byte-identical across repeats even when runs share a cache
        directory — so disk hits accelerate phase 2 (no solving) without
        touching the telemetry.  Returns the :class:`RequestRecords` (costs
        still NaN) and the distinct jobs by key, in first-request order.
        """
        cfg = self.config
        # feature-aware policies (duck-typed choose_for, e.g. LearnedPolicy)
        # see the instance features of the request's template; features are
        # deterministic per (dag, config), so one computation per template
        # keeps the timeline pure and the loop cheap
        chooser = getattr(self.policy, "choose_for", None)
        feature_memo: Dict[int, object] = {}
        if chooser is not None:
            from repro.learn.features import instance_features
        heappop, heappush = heapq.heappop, heapq.heappush
        free = [0.0] * cfg.servers
        heapq.heapify(free)
        in_system: List[float] = []
        # one job slot per distinct (template, spec) pair, in first-request
        # order; miss_time is a slot's virtual service time on a cache miss
        slots: Dict[tuple, int] = {}
        miss_time: List[float] = []
        jobs: Dict[str, "ExperimentJob"] = {}
        hot: set = set()
        records = RequestRecords(requests)
        start_column, finish_column = records.start.append, records.finish.append
        depth_column, hit_column = records.queue_depth.append, records.cache_hit.append
        job_column = records.job.append
        for arrival, deadline, template in zip(
            requests.arrival, requests.deadline, requests.template
        ):
            while in_system and in_system[0] <= arrival:
                heappop(in_system)
            depth = len(in_system)
            if chooser is not None:
                if template not in feature_memo:
                    feature_memo[template] = instance_features(
                        pool[template], cfg.experiment
                    )
                spec = chooser(feature_memo[template], depth, deadline)
            else:
                spec = self.policy.choose(depth, deadline)
            slot = slots.get((template, spec))
            if slot is None:
                job = pipeline_job(pool[template], spec, cfg.experiment)
                key = job.key()
                jobs.setdefault(key, job)
                slot = slots[(template, spec)] = len(records.keys)
                records.instances.append(job.instance_name)
                records.specs.append(spec)
                records.keys.append(key)
                records.costs.append(float("nan"))
                nodes = len(job.dag_data.get("nodes", ()))
                miss_time.append(cfg.service_time_scale * nodes * spec_weight(spec))
            key = records.keys[slot]
            cache_hit = key in hot
            if cache_hit:
                service_time = cfg.cache_hit_time
            else:
                service_time = miss_time[slot]
                hot.add(key)
            start = max(arrival, heappop(free))
            finish = start + service_time
            heappush(free, finish)
            heappush(in_system, finish)
            start_column(start)
            finish_column(finish)
            depth_column(depth)
            hit_column(cache_hit)
            job_column(slot)
        return records, jobs

    def _execute(self, jobs: Dict[str, "ExperimentJob"]):
        """Phase 2: run the distinct jobs (first-appearance order) as one
        plan through the session; disk-cached keys replay without solving."""
        if not jobs:
            return {}
        plan = RunPlan.from_jobs(list(jobs.values()))
        results = self.session.run(plan)
        return dict(zip(jobs.keys(), results))
