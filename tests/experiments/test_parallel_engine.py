"""Unit tests for batches of experiment jobs executed on a Session.

Fast jobs (two-stage pipelines) exercise the pool, cache, JSONL stream and
resume logic; a single short ILP pipeline keeps the solver path covered end
to end.
"""

import inspect
import json

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import fork_join_dag, spmv
from repro.exec import (
    ExperimentJob,
    RunPlan,
    Session,
    SessionStats,
    pipeline_job,
    plan_pipelines,
)
from repro.experiments.reporting import read_jsonl
from repro.pipeline import ExperimentConfig, InstanceResult
from repro.experiments.tables import ILP_SPEC


def _dags(count=3):
    dags = []
    for seed in range(1, count + 1):
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    return dags


CFG = ExperimentConfig(name="engine-test", num_processors=2, ilp_time_limit=1.0)

# For jobs that actually solve ILPs, bound the solver by branch-and-bound
# *nodes* instead of wall clock: node-limited solves return the same
# incumbent on a loaded CI machine as on a fast laptop, so the
# serial-vs-parallel equality below cannot flake on solver noise.
ILP_CFG = CFG.variant(ilp_time_limit=10.0, ilp_node_limit=50, step_cap=6)


def _fast_jobs(dags=None, member="bspg+clairvoyant"):
    return [
        ExperimentJob.make(dag, CFG, member=member)
        for dag in (dags or _dags())
    ]


class TestExperimentJob:
    def test_key_is_stable_across_rebuilds(self):
        job1 = _fast_jobs()[0]
        job2 = _fast_jobs()[0]
        assert job1.key() == job2.key()

    def test_key_distinguishes_dags_configs_and_params(self):
        dags = _dags()
        base = ExperimentJob.make(dags[0], CFG, member="bspg+clairvoyant")
        other_dag = ExperimentJob.make(dags[1], CFG, member="bspg+clairvoyant")
        other_cfg = ExperimentJob.make(
            dags[0], CFG.variant(num_processors=4), member="bspg+clairvoyant"
        )
        other_member = ExperimentJob.make(dags[0], CFG, member="cilk+lru")
        other_params = ExperimentJob.make(
            dags[0], CFG, member="bspg+clairvoyant", prune_gap=0.0
        )
        keys = {j.key() for j in (base, other_dag, other_cfg, other_member, other_params)}
        assert len(keys) == 5

    def test_dag_roundtrip(self):
        dag = _dags(1)[0]
        job = ExperimentJob.make(dag, CFG, member="bspg+clairvoyant")
        rebuilt = job.dag()
        assert rebuilt.name == dag.name
        assert set(rebuilt.edges()) == set(dag.edges())
        assert job.instance_name == dag.name


class TestEngineExecution:
    def test_serial_results_in_submission_order(self):
        jobs = _fast_jobs()
        results = Session(workers=1).run(RunPlan.from_jobs(jobs))
        assert [r.instance_name for r in results] == [j.instance_name for j in jobs]

    def test_parallel_identical_to_serial(self):
        jobs = _fast_jobs() + _fast_jobs(member="cilk+lru")
        serial = Session(workers=1).run(RunPlan.from_jobs(jobs))
        parallel = Session(workers=3).run(RunPlan.from_jobs(jobs))
        assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]

    def test_parallel_ilp_identical_to_serial(self):
        dag = fork_join_dag(width=3, stages=1)
        assign_random_memory_weights(dag, seed=3)
        dag.name = "fj"
        jobs = [pipeline_job(dag, ILP_SPEC, ILP_CFG) for _ in range(2)]
        serial = Session(workers=1).run(RunPlan.from_jobs(jobs))
        parallel = Session(workers=2).run(RunPlan.from_jobs(jobs))
        assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]

    def test_stats_accumulate(self):
        session = Session(workers=1)
        session.run(RunPlan.from_jobs(_fast_jobs()))
        session.run(RunPlan.from_jobs(_fast_jobs()))
        assert session.stats.total == 6
        assert session.stats.executed == 6
        assert "6 jobs" in session.stats.describe()


class TestEngineCache:
    def test_second_run_hits_cache_with_zero_executions(self, tmp_path):
        jobs = _fast_jobs()
        first = Session(workers=1, cache_dir=tmp_path)
        r1 = first.run(RunPlan.from_jobs(jobs))
        assert first.stats.executed == len(jobs)
        second = Session(workers=2, cache_dir=tmp_path)
        r2 = second.run(RunPlan.from_jobs(jobs))
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(jobs)
        assert [r.fingerprint() for r in r1] == [r.fingerprint() for r in r2]

    def test_config_change_misses_cache(self, tmp_path):
        dag = _dags(1)[0]
        job = ExperimentJob.make(dag, CFG, member="bspg+clairvoyant")
        other = ExperimentJob.make(
            dag, CFG.variant(cache_factor=5.0), member="bspg+clairvoyant"
        )
        session = Session(workers=1, cache_dir=tmp_path)
        session.run(RunPlan.from_jobs([job]))
        session.run(RunPlan.from_jobs([other]))
        assert session.stats.executed == 2
        assert session.stats.cache_hits == 0

    def test_corrupt_cache_entry_is_re_executed(self, tmp_path):
        jobs = _fast_jobs()[:1]
        session = Session(workers=1, cache_dir=tmp_path)
        session.run(RunPlan.from_jobs(jobs))
        cache_file = tmp_path / f"{jobs[0].key()}.json"
        assert cache_file.is_file()
        cache_file.write_text("{not json")
        again = Session(workers=1, cache_dir=tmp_path)
        results = again.run(RunPlan.from_jobs(jobs))
        assert again.stats.executed == 1
        assert results[0].instance_name == "spmv_1"


class TestResultsStreamAndResume:
    def test_jsonl_stream_records_every_execution(self, tmp_path):
        path = tmp_path / "results.jsonl"
        jobs = _fast_jobs()
        Session(workers=1, results_path=path).run(RunPlan.from_jobs(jobs))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(jobs)
        assert {r["key"] for r in records} == {j.key() for j in jobs}
        assert all(r["kind"] == "portfolio" for r in records)
        loaded = read_jsonl(path)
        assert [r.instance_name for r in loaded] == [j.instance_name for j in jobs]

    def test_resume_skips_recorded_jobs(self, tmp_path):
        path = tmp_path / "results.jsonl"
        jobs = _fast_jobs()
        Session(workers=1, results_path=path).run(RunPlan.from_jobs(jobs[:2]))
        resumed = Session(workers=1, results_path=path, resume=True)
        results = resumed.run(RunPlan.from_jobs(jobs))
        assert resumed.stats.resumed == 2
        assert resumed.stats.executed == 1
        fresh = Session(workers=1).run(RunPlan.from_jobs(jobs))
        assert [r.fingerprint() for r in results] == [r.fingerprint() for r in fresh]

    def test_cache_hits_are_streamed_to_results_file(self, tmp_path):
        """The results file records the whole batch, even when every job is
        served from the disk cache."""
        jobs = _fast_jobs()
        Session(workers=1, cache_dir=tmp_path / "cache").run(RunPlan.from_jobs(jobs))
        path = tmp_path / "late.jsonl"
        session = Session(workers=1, cache_dir=tmp_path / "cache", results_path=path)
        session.run(RunPlan.from_jobs(jobs))
        assert session.stats.cache_hits == len(jobs)
        assert len(read_jsonl(path)) == len(jobs)

    def test_resume_populates_disk_cache(self, tmp_path):
        """Results restored from the JSONL file become cache entries too, so
        a later cache-only run does not re-execute anything."""
        path = tmp_path / "results.jsonl"
        jobs = _fast_jobs()
        Session(workers=1, results_path=path).run(RunPlan.from_jobs(jobs))
        cache = tmp_path / "cache"
        resumed = Session(workers=1, results_path=path, resume=True, cache_dir=cache)
        resumed.run(RunPlan.from_jobs(jobs))
        assert resumed.stats.resumed == len(jobs)
        cache_only = Session(workers=1, cache_dir=cache)
        cache_only.run(RunPlan.from_jobs(jobs))
        assert cache_only.stats.cache_hits == len(jobs)
        assert cache_only.stats.executed == 0

    def test_rerun_against_same_results_file_does_not_duplicate(self, tmp_path):
        """Cache-served re-runs must not append records already in the file
        (read_jsonl would double-count every instance otherwise)."""
        path = tmp_path / "results.jsonl"
        cache = tmp_path / "cache"
        jobs = _fast_jobs()
        Session(workers=1, cache_dir=cache, results_path=path).run(RunPlan.from_jobs(jobs))
        Session(workers=1, cache_dir=cache, results_path=path).run(RunPlan.from_jobs(jobs))
        assert len(read_jsonl(path)) == len(jobs)

    def test_resume_without_results_path_warns(self):
        with pytest.warns(UserWarning, match="resume") as record:
            line = inspect.currentframe().f_lineno + 1
            Session(workers=1, resume=True)
        # the warning points at the caller's line, not into the library
        assert record[0].filename == __file__
        assert record[0].lineno == line

    def test_resume_tolerates_truncated_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        jobs = _fast_jobs()
        Session(workers=1, results_path=path).run(RunPlan.from_jobs(jobs))
        with open(path, "a") as handle:
            handle.write('{"key": "truncat')  # simulated crash mid-write
        resumed = Session(workers=1, results_path=path, resume=True)
        results = resumed.run(RunPlan.from_jobs(jobs))
        assert resumed.stats.resumed == 3
        assert len(results) == 3


class TestRunDatasetIntegration:
    def test_run_dataset_serial_equals_parallel(self):
        dags = _dags(2)
        plan = plan_pipelines([ILP_SPEC], dags, ILP_CFG)
        serial = Session(workers=1).run(plan)
        parallel = Session(workers=2).run(plan)
        assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]

    def test_run_dataset_uses_cache(self, tmp_path):
        dags = _dags(2)
        plan = plan_pipelines([ILP_SPEC], dags, ILP_CFG)
        Session(cache_dir=tmp_path).run(plan)
        session = Session(workers=1, cache_dir=tmp_path)
        session.run(plan)
        assert session.stats.executed == 0
        assert session.stats.cache_hits == 2

    def test_instance_result_roundtrip(self):
        result = InstanceResult(
            instance_name="x", num_nodes=5, baseline_cost=10.0, ilp_cost=8.0,
            solver_status="ok", solve_time=1.25, extra_costs={"weak": 12.0},
        )
        rebuilt = InstanceResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert "solve_time" not in result.fingerprint()


def test_engine_stats_dataclass_defaults():
    stats = SessionStats()
    assert (stats.total, stats.executed, stats.cache_hits, stats.resumed) == (0, 0, 0, 0)
