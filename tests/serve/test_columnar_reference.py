"""Differential test: the columnar service against the list-based original.

``generate_requests`` draws the trace into ``array`` columns,
``ScheduleService._simulate`` appends per-request columns instead of
building one ``RequestRecord`` per request, the join writes one cost per
job slot, and ``slo_summary``/``trace_digest`` read the columns (the
digest in chunks).  Every output must stay byte-identical to the
list-based service the library used to have.  Its pieces are kept below,
verbatim, as the reference implementation: ``generate_requests``,
``ScheduleService._simulate``, the join of ``ScheduleService.run``,
``RequestRecord`` with ``to_dict``, and ``ServiceReport.slo_summary``,
``trace_digest`` and ``write_requests_jsonl``.

Hypothesis draws the seed, 1-400 requests, the arrival rate, the deadline
window, 1-3 virtual servers, a 1-3 template pool, the policy thresholds
and the virtual service times, either the load-adaptive policy or a
duck-typed ``choose_for`` policy, and the digest's chunk size.  One hand-built report pins a finish time
whose 9-decimal rounding differs between numpy and Python floats.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.exec import Session, pipeline_job
from repro.serve import (
    AdaptivePolicy,
    ArrivalConfig,
    PolicyConfig,
    RequestRecords,
    RequestTrace,
    ScheduleService,
    ServeRequest,
    ServiceConfig,
    ServiceReport,
    generate_requests,
    request_pool,
    spec_weight,
)
from repro.serve import service as service_module

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import InstanceResult


# ----------------------------------------------------------------------
# the list-based service, verbatim
# ----------------------------------------------------------------------
def reference_generate_requests(config: ArrivalConfig, pool_size: int) -> List[ServeRequest]:
    config.validate()
    if pool_size < 1:
        raise ConfigurationError("request pool is empty")
    rng = random.Random(config.seed)
    requests: List[ServeRequest] = []
    clock = 0.0
    for index in range(config.requests):
        clock += rng.expovariate(config.rate)
        deadline = rng.uniform(config.deadline_min, config.deadline_max)
        template = rng.randrange(pool_size)
        requests.append(
            ServeRequest(
                index=index, arrival=clock, deadline=deadline, template=template
            )
        )
    return requests


@dataclass
class ReferenceRecord:
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
    if not sorted_values:
        return 0.0
    rank = int(q * len(sorted_values) + 99) // 100  # ceil(q * n / 100)
    rank = min(len(sorted_values), max(1, rank))
    return sorted_values[rank - 1]


@dataclass
class ReferenceReport:
    records: List[ReferenceRecord]
    results: Dict[str, "InstanceResult"]

    def slo_summary(self) -> Dict[str, object]:
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
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def reference_simulate(self, pool, requests):
    cfg = self.config
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
    records: List[ReferenceRecord] = []
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
            ReferenceRecord(
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


def reference_join(records: List[ReferenceRecord], results) -> None:
    for record in records:
        result = results[record.key]
        record.cost = result.extra_costs.get(
            "member_cost", result.ilp_cost
        )


# ----------------------------------------------------------------------
class FeatureKeyedPolicy:
    """A duck-typed policy with ``choose_for`` only: the tier follows the
    instance's first feature, the queue depth and the slack."""

    def __init__(self, specs, slack_threshold: float) -> None:
        self.specs = specs
        self.slack_threshold = slack_threshold

    def choose_for(self, features, queue_depth: int, slack: float) -> str:
        pick = int(features.values[0]) + queue_depth + (slack > self.slack_threshold)
        return self.specs[pick % len(self.specs)]


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One cache for every example: the drawn jobs repeat across examples."""
    return Session(cache_dir=tmp_path_factory.mktemp("columnar-cache"))


def _jsonl_lines(report, path) -> List[bytes]:
    report.write_requests_jsonl(path)
    return path.read_bytes().splitlines(keepends=True)


def _record_lines(records) -> List[str]:
    return [json.dumps(record.to_dict(), sort_keys=True) for record in records]


def assert_reports_match(report, reference: ReferenceReport, workdir) -> None:
    # per-line comparisons keep a failure's report (and hypothesis's
    # shrinking) cheap: pytest diffs two long strings character by character
    assert json.dumps(report.slo_summary(), sort_keys=True) == json.dumps(
        reference.slo_summary(), sort_keys=True
    )
    assert report.trace_digest() == reference.trace_digest()
    assert _record_lines(report.records) == _record_lines(reference.records)
    assert _jsonl_lines(report, workdir / "columnar.jsonl") == \
        _jsonl_lines(reference, workdir / "reference.jsonl")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    requests=st.integers(1, 400),
    rate=st.floats(0.05, 60.0),
    deadline_min=st.floats(0.01, 4.0),
    deadline_width=st.floats(0.0, 8.0),
    servers=st.integers(1, 3),
    templates=st.integers(1, 3),
    idle_depth=st.integers(0, 3),
    pressure_gap=st.integers(1, 6),
    tight_slack=st.floats(0.0, 6.0),
    cache_hit_time=st.sampled_from([0.05, 0.3, 1.7]),
    service_time_scale=st.sampled_from([0.02, 0.25]),
    duck_typed=st.booleans(),
    digest_chunk=st.integers(1, 64),
)
def test_columnar_service_matches_the_list_based_service(
    session, tmp_path_factory, seed, requests, rate, deadline_min,
    deadline_width, servers, templates, idle_depth, pressure_gap, tight_slack,
    cache_hit_time, service_time_scale, duck_typed, digest_chunk,
):
    policy_config = PolicyConfig(
        pressure_depth=idle_depth + pressure_gap,
        tight_slack=tight_slack,
        idle_depth=idle_depth,
    )
    config = ServiceConfig(
        arrivals=ArrivalConfig(
            seed=seed,
            requests=requests,
            rate=rate,
            deadline_min=deadline_min,
            deadline_max=deadline_min + deadline_width,
            limit=templates,
        ),
        policy=policy_config,
        servers=servers,
        cache_hit_time=cache_hit_time,
        service_time_scale=service_time_scale,
    )
    policy = (
        FeatureKeyedPolicy(AdaptivePolicy(policy_config).specs, tight_slack)
        if duck_typed else None
    )
    service = ScheduleService(config, session=session, policy=policy)
    report = service.run()

    pool = request_pool(config.arrivals)
    trace = reference_generate_requests(config.arrivals, len(pool))
    assert generate_requests(config.arrivals, len(pool)) == trace
    records, jobs = reference_simulate(service, pool, trace)
    assert list(jobs) == list(report.jobs)
    reference_join(records, report.results)
    reference = ReferenceReport(records, report.results)
    # short digest chunks put chunk boundaries inside the drawn traces
    with mock.patch.object(service_module, "DIGEST_CHUNK", digest_chunk):
        assert_reports_match(report, reference, tmp_path_factory.mktemp("jsonl"))
    # indexing (negative and sliced) agrees with iteration
    assert report.records[-1] == list(report.records)[-1]
    assert report.records[1:3] == list(report.records)[1:3]


def test_rounding_follows_python_floats(tmp_path):
    """29267.8355345365 rounds to ...537 as a Python float but to ...536
    as a numpy float64: every summary and digest value must take the
    Python path."""
    finish = 29267.8355345365
    rows = [
        # index, template, spec, key, arrival, deadline, depth, hit, start, finish
        (0, 1, "baseline", "k0", 0.0, 3.5, 0, False, 0.0, finish),
        (1, 0, "bspg+clairvoyant", "k1", 2.25, 0.5, 1, True, 2.5, 2.875),
    ]
    reference = ReferenceReport(
        [
            ReferenceRecord(
                index=index, instance=f"dag{template}", template=template,
                spec=spec, key=key, arrival=arrival, deadline=deadline,
                queue_depth=depth, cache_hit=hit, start=start, finish=end,
                cost=7.0 + index,
            )
            for index, template, spec, key, arrival, deadline, depth, hit,
            start, end in rows
        ],
        results={"k0": None, "k1": None},
    )
    records = RequestRecords(
        RequestTrace(
            [row[4] for row in rows], [row[5] for row in rows],
            [row[1] for row in rows],
        )
    )
    for index, template, spec, key, _, _, depth, hit, start, end in rows:
        records.start.append(start)
        records.finish.append(end)
        records.queue_depth.append(depth)
        records.cache_hit.append(hit)
        records.job.append(index)
        records.instances.append(f"dag{template}")
        records.specs.append(spec)
        records.keys.append(key)
        records.costs.append(7.0 + index)
    report = ServiceReport(
        config=ServiceConfig(), records=records, results=reference.results, jobs={}
    )
    for chunk in (1, service_module.DIGEST_CHUNK):
        with mock.patch.object(service_module, "DIGEST_CHUNK", chunk):
            assert_reports_match(report, reference, tmp_path)
    assert report.slo_summary()["virtual_makespan"] == 29267.835534537
