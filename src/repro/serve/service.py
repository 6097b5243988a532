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
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.exec import RunPlan, Session, pipeline_job
from repro.experiments.runner import ExperimentConfig
from repro.serve.arrivals import ArrivalConfig, generate_requests, request_pool
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
        if self.servers < 1:
            raise ConfigurationError("service needs at least 1 virtual server")
        if self.cache_hit_time <= 0 or self.service_time_scale <= 0:
            raise ConfigurationError(
                "cache_hit_time and service_time_scale must be positive"
            )


@dataclass
class RequestRecord:
    """Per-request telemetry: one line of the service's request log."""

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


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (deterministic)."""
    if not sorted_values:
        return 0.0
    rank = int(q * len(sorted_values) + 99) // 100  # ceil(q * n / 100)
    rank = min(len(sorted_values), max(1, rank))
    return sorted_values[rank - 1]


@dataclass
class ServiceReport:
    """Everything one service run produced: telemetry + real results."""

    config: ServiceConfig
    records: List[RequestRecord]
    results: Dict[str, "InstanceResult"]
    jobs: Dict[str, "ExperimentJob"]

    def slo_summary(self) -> Dict[str, object]:
        """The SLO summary: a pure function of the seed (no wall clock).

        Floats are rounded to 9 decimals so the JSON rendering is stable
        enough to diff byte-for-byte (the CI determinism gate).
        """
        records = self.records
        n = len(records)
        latencies = sorted(r.latency for r in records)
        makespan = max((r.finish for r in records), default=0.0)
        specs: Dict[str, int] = {}
        for r in records:
            specs[r.spec] = specs.get(r.spec, 0) + 1
        return {
            "requests": n,
            "distinct_jobs": len(self.results),
            "virtual_makespan": round(makespan, 9),
            "throughput_rps": round(n / makespan, 9) if makespan else 0.0,
            "latency_p50": round(_percentile(latencies, 50), 9),
            "latency_p99": round(_percentile(latencies, 99), 9),
            "deadline_miss_rate": round(
                sum(1 for r in records if r.deadline_miss) / n, 9
            ) if n else 0.0,
            "cache_hit_rate": round(
                sum(1 for r in records if r.cache_hit) / n, 9
            ) if n else 0.0,
            "spec_requests": {spec: specs[spec] for spec in sorted(specs)},
        }

    def trace_digest(self) -> str:
        """sha256 over the per-request virtual trace (spec choices, times,
        hit/miss flags): two replays are bit-identical iff digests match."""
        payload = [
            [
                r.index,
                r.template,
                r.spec,
                round(r.arrival, 9),
                round(r.start, 9),
                round(r.finish, 9),
                r.queue_depth,
                r.cache_hit,
                r.deadline_miss,
            ]
            for r in self.records
        ]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

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
                for record in records:
                    result = results[record.key]
                    record.cost = result.extra_costs.get(
                        "member_cost", result.ilp_cost
                    )
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
        touching the telemetry.
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
        free = [0.0] * cfg.servers
        heapq.heapify(free)
        in_system: List[float] = []
        job_memo: Dict[tuple, tuple] = {}
        jobs: Dict[str, "ExperimentJob"] = {}
        hot: set = set()
        records: List[RequestRecord] = []
        for request in requests:
            while in_system and in_system[0] <= request.arrival:
                heapq.heappop(in_system)
            depth = len(in_system)
            if chooser is not None:
                if request.template not in feature_memo:
                    feature_memo[request.template] = instance_features(
                        pool[request.template], cfg.experiment
                    )
                spec = chooser(
                    feature_memo[request.template], depth, request.deadline
                )
            else:
                spec = self.policy.choose(depth, request.deadline)
            memo_key = (request.template, spec)
            if memo_key not in job_memo:
                job = pipeline_job(pool[request.template], spec, cfg.experiment)
                job_memo[memo_key] = (job, job.key())
            job, key = job_memo[memo_key]
            if key not in jobs:
                jobs[key] = job
            cache_hit = key in hot
            if cache_hit:
                service_time = cfg.cache_hit_time
            else:
                nodes = len(job.dag_data.get("nodes", ()))
                service_time = cfg.service_time_scale * nodes * spec_weight(spec)
                hot.add(key)
            earliest = heapq.heappop(free)
            start = max(request.arrival, earliest)
            finish = start + service_time
            heapq.heappush(free, finish)
            heapq.heappush(in_system, finish)
            records.append(
                RequestRecord(
                    index=request.index,
                    instance=job.instance_name,
                    template=request.template,
                    spec=spec,
                    key=key,
                    arrival=request.arrival,
                    deadline=request.deadline,
                    queue_depth=depth,
                    cache_hit=cache_hit,
                    start=start,
                    finish=finish,
                )
            )
        return records, jobs

    def _execute(self, jobs: Dict[str, "ExperimentJob"]):
        """Phase 2: run the distinct jobs (first-appearance order) as one
        plan through the session; disk-cached keys replay without solving."""
        if not jobs:
            return {}
        plan = RunPlan.from_jobs(list(jobs.values()))
        results = self.session.run(plan)
        return dict(zip(jobs.keys(), results))
