"""Unit tests for the unified execution core (repro.exec).

Fast two-stage jobs exercise the plan/session machinery end to end: plan
validation, event streaming, cache/resume services, and equivalence of the
job-list and plan forms of a batch.
"""

import inspect

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.exec import (
    PlanNode,
    ResultEvent,
    RunPlan,
    Session,
    as_plan,
    branch_slots,
    pipeline_job,
    plan_pipelines,
    slot_scope,
)
from repro.experiments.parallel import ExperimentJob
from repro.experiments.reporting import read_jsonl
from repro.experiments.runner import ExperimentConfig


def _dags(count=3):
    dags = []
    for seed in range(1, count + 1):
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    return dags


CFG = ExperimentConfig(name="exec-test", num_processors=2, ilp_time_limit=1.0)


def _fast_jobs(dags=None, member="bspg+clairvoyant"):
    return [
        ExperimentJob.make(dag, CFG, member=member)
        for dag in (dags or _dags())
    ]


class TestRunPlan:
    def test_from_jobs_preserves_order(self):
        jobs = _fast_jobs()
        plan = RunPlan.from_jobs(jobs)
        assert len(plan) == len(jobs)
        assert [node.job for node in plan] == jobs

    def test_duplicate_id_rejected(self):
        job = _fast_jobs()[0]
        plan = RunPlan()
        plan.add(job, id="a")
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan.add(job, id="a")

    def test_as_plan_coerces_jobs_and_plans(self):
        jobs = _fast_jobs()
        assert len(as_plan(jobs)) == 3
        assert len(as_plan(jobs[0])) == 1
        plan = RunPlan.from_jobs(jobs)
        assert as_plan(plan) is plan

    def test_plan_pipelines_is_instance_major(self):
        dags = _dags(2)
        plan = plan_pipelines(["bspg+clairvoyant", "cilk+lru"], dags, CFG)
        names = [node.job.instance_name for node in plan]
        assert names == ["spmv_1", "spmv_1", "spmv_2", "spmv_2"]

    @pytest.mark.parametrize("prune_gap", [None, 0.0, 0.05])
    def test_plan_pipelines_builds_pipeline_jobs(self, prune_gap):
        dags = _dags(2)
        specs = ["bspg+clairvoyant", "cilk+lru|refine", "bspg+clairvoyant|refine|ilp"]
        plan = plan_pipelines(specs, dags, CFG, prune_gap)
        expected = [
            pipeline_job(dag, spec, CFG, prune_gap).key() for dag in dags for spec in specs
        ]
        assert [node.job.key() for node in plan] == expected
        # each DAG is serialized once, its jobs share the plain-dict form
        first, *rest = [node.job for node in plan][: len(specs)]
        assert all(job.dag_data is first.dag_data for job in rest)


class TestSession:
    def test_run_matches_engine_bit_for_bit(self):
        """A bare job list and its edge-free plan are the same batch."""
        jobs = _fast_jobs()
        list_results = Session(workers=1).run(jobs)
        session_results = Session(workers=1).run(RunPlan.from_jobs(jobs))
        assert [r.fingerprint() for r in session_results] == [
            r.fingerprint() for r in list_results
        ]

    def test_parallel_identical_to_serial(self):
        jobs = _fast_jobs()
        serial = Session(workers=1).run(jobs)
        parallel = Session(workers=4).run(jobs)
        assert [r.fingerprint() for r in parallel] == [
            r.fingerprint() for r in serial
        ]

    def test_stream_yields_one_event_per_node(self):
        jobs = _fast_jobs()
        events = list(Session(workers=1).stream(RunPlan.from_jobs(jobs)))
        assert sorted(event.index for event in events) == [0, 1, 2]
        assert all(isinstance(event, ResultEvent) for event in events)
        assert all(event.source == "executed" for event in events)
        assert [events[i].instance for i in range(3)] == [
            "spmv_1", "spmv_2", "spmv_3"
        ]

    def test_stats_accumulate_across_runs(self):
        session = Session(workers=1)
        session.run(_fast_jobs())
        session.run(_fast_jobs())
        assert session.stats.total == 6
        assert session.stats.executed == 6
        assert "6 jobs" in session.stats.describe()

    def test_cache_hits_skip_execution_and_are_flagged(self, tmp_path):
        jobs = _fast_jobs()
        Session(workers=1, cache_dir=tmp_path / "cache").run(jobs)
        warm = Session(workers=1, cache_dir=tmp_path / "cache")
        events = list(warm.stream(RunPlan.from_jobs(jobs)))
        assert warm.stats.cache_hits == len(jobs)
        assert warm.stats.executed == 0
        assert all(event.source == "cache" for event in events)

    def test_resume_from_results_log(self, tmp_path):
        path = tmp_path / "results.jsonl"
        jobs = _fast_jobs()
        Session(workers=1, results_path=path).run(jobs)
        resumed = Session(workers=1, results_path=path, resume=True)
        events = list(resumed.stream(RunPlan.from_jobs(jobs)))
        assert resumed.stats.resumed == len(jobs)
        assert all(event.source == "resumed" for event in events)
        assert len(read_jsonl(path)) == len(jobs)

    def test_jsonl_is_plan_ordered_even_with_workers(self, tmp_path):
        from repro.experiments.reporting import iter_jsonl_records

        jobs = _fast_jobs()
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        Session(workers=1, results_path=serial_path).run(jobs)
        Session(workers=4, results_path=parallel_path).run(jobs)
        serial = [
            (r["key"], r["instance"]) for r in iter_jsonl_records(serial_path)
        ]
        parallel = [
            (r["key"], r["instance"]) for r in iter_jsonl_records(parallel_path)
        ]
        assert serial == parallel

    def test_resume_without_results_path_warns(self):
        with pytest.warns(UserWarning, match="resume") as record:
            line = inspect.currentframe().f_lineno + 1
            Session(workers=1, resume=True)
        # the warning points at the caller's line, not into the library
        assert record[0].filename == __file__
        assert record[0].lineno == line

    def test_abandoned_threaded_stream_cancels_remaining_jobs(self):
        """Breaking out of session.stream under a running loop must stop
        the plan (the drain task is cancelled between jobs) instead of
        silently executing every remaining node."""
        import asyncio

        config = CFG.variant(ilp_time_limit=1.0)
        jobs = [
            ExperimentJob.make(dag, config, member="ilp")
            for dag in _dags(4)  # ~1s each: slow enough to observe the cancel
        ]

        async def abandon():
            session = Session(workers=1)
            for _ in session.stream(RunPlan.from_jobs(jobs)):
                break
            await asyncio.sleep(1.5)  # give an (incorrect) runaway time to show
            return session.stats.executed

        assert asyncio.run(abandon()) <= 2

    def test_sync_facades_work_inside_a_running_event_loop(self):
        """Jupyter/async callers: session.run / stream must not crash on
        'asyncio.run() cannot be called from a running event loop' (batch
        execution used to be plain sync code and worked everywhere)."""
        import asyncio

        jobs = _fast_jobs(_dags(1))
        reference = Session(workers=1).run(jobs)[0].fingerprint()

        async def under_loop():
            ran = Session(workers=1).run(RunPlan.from_jobs(jobs))[0]
            streamed = list(Session(workers=1).stream(as_plan(jobs)))[0]
            return [r.fingerprint() for r in (ran, streamed.result)]

        assert asyncio.run(under_loop()) == [reference] * 2

    def test_run_pipeline_returns_stage_telemetry(self):
        dag = _dags(1)[0]
        session = Session(workers=2)
        result = session.run_pipeline("bspg+clairvoyant|refine", dag, CFG)
        assert result.applicable
        assert [stage.stage for stage in result.stages] == [
            "bspg+clairvoyant", "refine"
        ]


class TestSlotScope:
    def test_default_is_one_slot(self):
        assert branch_slots() == 1

    def test_scope_grants_and_restores(self):
        with slot_scope(4):
            assert branch_slots() == 4
            with slot_scope(2):
                assert branch_slots() == 2
            assert branch_slots() == 4
        assert branch_slots() == 1

    def test_non_positive_clamps_to_one(self):
        with slot_scope(0):
            assert branch_slots() == 1


def test_plan_node_is_frozen():
    job = _fast_jobs()[0]
    node = PlanNode(id="x", job=job)
    with pytest.raises(AttributeError):
        node.id = "y"
