"""Service-loop tests, including the serve golden gates:

* every schedule the service emits is valid and costs no more than the
  ``baseline`` member's cost on the same instance;
* a fixed-seed run replays bit-identically (same spec choices, same
  winners, same SLO summary) across ``workers=1`` and ``workers=4``.
"""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.exec import Session
from repro.model import validate_schedule
from repro.pipeline import run_member
from repro.serve import (
    ArrivalConfig,
    PolicyConfig,
    ScheduleService,
    ServiceConfig,
    spec_weight,
)


def _member_cost(result):
    return result.extra_costs.get("member_cost", result.ilp_cost)


def _service_config(seed=3, requests=40, rate=8.0, limit=3, **kwargs):
    return ServiceConfig(
        arrivals=ArrivalConfig(seed=seed, requests=requests, rate=rate, limit=limit),
        **kwargs,
    )


class TestSpecWeight:
    def test_tiers_are_ordered_by_cost(self):
        assert spec_weight("baseline") == 1.0
        assert (
            spec_weight("baseline")
            < spec_weight("bspg+clairvoyant|refine")
            < spec_weight("baseline|ilp(warm=objective)")
        )

    def test_race_branches_each_count(self):
        assert spec_weight("baseline|race(ilp@bnb,ilp@scipy)") > spec_weight(
            "baseline|ilp(warm=objective)"
        )


class TestWorkerEquivalence:
    def test_fixed_seed_replays_bit_identically(self, tmp_path):
        config = _service_config()
        reports = {}
        for workers in (1, 4):
            session = Session(
                workers=workers, cache_dir=tmp_path / f"cache-w{workers}"
            )
            reports[workers] = ScheduleService(config, session=session).run()
        one, four = reports[1], reports[4]
        assert one.trace_digest() == four.trace_digest()
        assert one.slo_summary() == four.slo_summary()
        # the full per-request telemetry (costs included) matches
        assert [r.to_dict() for r in one.records] == [
            r.to_dict() for r in four.records
        ]
        # same winners: every distinct job's deterministic result matches
        assert one.results.keys() == four.results.keys()
        for key in one.results:
            assert one.results[key].fingerprint() == four.results[key].fingerprint()


class TestGoldenSchedules:
    def test_costs_never_exceed_baseline_and_schedules_validate(self):
        config = _service_config(requests=30)
        report = ScheduleService(config).run()
        session = Session()
        assert report.results  # the trace produced real work
        for key, result in report.results.items():
            job = report.jobs[key]
            spec = str(dict(job.params)["member"])
            dag = job.dag()
            cost = _member_cost(result)
            baseline = _member_cost(run_member(dag, config.experiment, "baseline"))
            assert cost <= baseline + 1e-9, (job.instance_name, spec)
            # the reported cost is a real, valid schedule's cost
            pipeline_result = session.run_pipeline(spec, dag, config.experiment)
            assert pipeline_result.schedule is not None
            validate_schedule(pipeline_result.schedule, require_all_computed=False)
            assert _member_cost(pipeline_result.to_instance_result()) == \
                pytest.approx(cost)


class TestCacheBehaviour:
    def test_repeats_are_cache_hot(self, tmp_path):
        config = _service_config(requests=200, limit=2)
        session = Session(cache_dir=tmp_path / "cache")
        report = ScheduleService(config, session=session).run()
        summary = report.slo_summary()
        assert summary["distinct_jobs"] <= 6  # 2 templates x 3 policy tiers
        assert summary["cache_hit_rate"] >= 0.9
        # the first occurrence of every key is a miss on a cold cache
        first_seen = set()
        for record in report.records:
            if record.key not in first_seen:
                assert not record.cache_hit
                first_seen.add(record.key)
            else:
                assert record.cache_hit
        assert session.stats.executed == summary["distinct_jobs"]

    def test_warm_disk_cache_replays_identically_without_solving(self, tmp_path):
        config = _service_config(requests=60)
        first = ScheduleService(
            config, session=Session(cache_dir=tmp_path / "cache")
        ).run()
        warm_session = Session(cache_dir=tmp_path / "cache")
        second = ScheduleService(config, session=warm_session).run()
        # the virtual timeline never consults the disk cache: a warm rerun
        # is byte-identical telemetry, it just skips every solver call
        assert second.slo_summary() == first.slo_summary()
        assert second.trace_digest() == first.trace_digest()
        assert warm_session.stats.executed == 0
        assert warm_session.stats.cache_hits == len(first.results)
        for key, result in first.results.items():
            assert second.results[key].fingerprint() == result.fingerprint()


class TestAdaptivity:
    def test_idle_service_runs_rich_pipelines(self):
        config = ServiceConfig(
            arrivals=ArrivalConfig(
                seed=5, requests=50, rate=0.2, limit=3, deadline_min=2.0
            )
        )
        report = ScheduleService(config).run()
        specs = report.slo_summary()["spec_requests"]
        policy = ScheduleService(config).policy
        assert policy.cheap not in specs
        assert specs.get(policy.rich, 0) > 0

    def test_overloaded_service_falls_back_to_cheap_pipelines(self):
        config = _service_config(seed=5, requests=200, rate=50.0)
        report = ScheduleService(config).run()
        specs = report.slo_summary()["spec_requests"]
        policy = ScheduleService(config).policy
        assert specs.get(policy.cheap, 0) / len(report.records) > 0.5


class TestTelemetry:
    def test_request_log_is_replayable_jsonl(self, tmp_path):
        config = _service_config(requests=25)
        report = ScheduleService(config).run()
        path = tmp_path / "requests.jsonl"
        report.write_requests_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        rows = [json.loads(line) for line in lines]
        assert [row["index"] for row in rows] == list(range(25))
        for row in rows:
            assert row["arrival"] <= row["start"] <= row["finish"]
            assert row["latency"] >= 0
            assert row["cost"] > 0

    def test_distinct_jobs_stream_to_the_plan_ordered_log(self, tmp_path):
        from repro.exec import iter_jsonl_records

        config = _service_config(requests=30)
        session = Session(
            cache_dir=tmp_path / "cache", results_path=tmp_path / "results.jsonl"
        )
        report = ScheduleService(config, session=session).run()
        logged = [
            r["key"] for r in iter_jsonl_records(tmp_path / "results.jsonl")
        ]
        # one record per distinct job, in first-appearance (plan) order
        assert logged == list(report.jobs.keys())


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"servers": 0},
            {"cache_hit_time": 0.0},
            {"service_time_scale": -1.0},
            {"cache_hit_time": float("nan")},
            {"service_time_scale": float("inf")},
            {"servers": 2.5},
            {"servers": float("nan")},
        ],
    )
    def test_invalid_service_configs_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScheduleService(_service_config(**kwargs))

    def test_policy_config_is_validated_through_the_service(self):
        config = _service_config(policy=PolicyConfig(pressure_depth=0))
        with pytest.raises(ConfigurationError):
            ScheduleService(config)
