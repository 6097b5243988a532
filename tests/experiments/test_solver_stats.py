"""Per-job solver telemetry attached by ``execute_job`` on a Session."""

import contextvars
import json
import sys
import threading

import pytest

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.exec import ExperimentJob, RunPlan, Session, pipeline_job
from repro.pipeline import ExperimentConfig, InstanceResult
from repro.experiments.tables import ILP_SPEC


def _dag(seed=1):
    dag = spmv(3, seed=seed)
    assign_random_memory_weights(dag, seed=7)
    return dag


CFG = ExperimentConfig(name="stats-test", ilp_time_limit=1.0, ilp_node_limit=40,
                       step_cap=4)


class TestMeterRecord:
    def test_reports_calls_and_times_per_backend(self):
        with obs.Meter() as meter:
            obs.Meter.record_solve("scipy", 0.5)
            obs.Meter.record_solve("bnb", 0.5)
            obs.Meter.record_solve("scipy", 0.5)
        stats = meter.solver_stats()
        assert stats == {
            "solver_calls": 3.0,
            "solver_time": 1.5,
            "solver_calls[scipy]": 2.0,
            "solver_calls[bnb]": 1.0,
            "solver_time[scipy]": 1.0,
            "solver_time[bnb]": 0.5,
        }

    def test_zero_solves_write_float_zeros(self):
        # a cache replay reads every value back as a float; a fresh
        # zero-solve record must serialize the same way
        with obs.Meter() as meter:
            pass
        stats = meter.solver_stats()
        assert stats == {"solver_calls": 0.0, "solver_time": 0.0}
        assert json.dumps(stats) == '{"solver_calls": 0.0, "solver_time": 0.0}'

    def test_concurrent_branch_threads_lose_no_solve(self):
        threads, solves = 8, 2000

        def branch():
            for _ in range(solves):
                obs.Meter.record_solve("bnb", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.Meter() as meter:
                workers = [
                    threading.Thread(target=contextvars.copy_context().run,
                                     args=(branch,))
                    for _ in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert meter.solver_calls == threads * solves
        assert meter.solver_stats()["solver_calls[bnb]"] == threads * solves


class TestEngineAttachesSolverStats:
    def test_instance_job_records_one_solve(self):
        result = Session().run(
            RunPlan.from_jobs([pipeline_job(_dag(), ILP_SPEC, CFG)])
        )[0]
        assert result.solver_stats["solver_calls"] == 1.0
        assert result.solver_stats[f"solver_calls[{CFG.ilp_backend}]"] == 1.0
        assert result.solver_stats["solver_time"] > 0

    def test_pruned_portfolio_job_records_zero_solves(self):
        result = Session().run(RunPlan.from_jobs([
            ExperimentJob.make(
                chain_dag(5),
                CFG.variant(num_processors=1),
                member="ilp", prune_gap=0.0,
            )
        ]))[0]
        assert result.solver_stats["solver_calls"] == 0.0

    def test_stats_reach_the_jsonl_results_file(self, tmp_path):
        results_path = tmp_path / "results.jsonl"
        Session(results_path=results_path).run(
            RunPlan.from_jobs([pipeline_job(_dag(), ILP_SPEC, CFG)])
        )
        record = json.loads(results_path.read_text().splitlines()[0])
        assert record["result"]["solver_stats"]["solver_calls"] == 1.0
        assert "solver_time" in record["result"]["solver_stats"]

    def test_stats_survive_the_result_roundtrip_but_not_the_fingerprint(self):
        result = InstanceResult(
            instance_name="x", num_nodes=3, baseline_cost=5.0, ilp_cost=4.0,
            solver_stats={"solver_calls": 2.0, "solver_time": 0.5},
        )
        rebuilt = InstanceResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert "solver_stats" not in result.fingerprint()

    def test_parallel_and_serial_fingerprints_still_agree(self):
        dags = [_dag(seed=1), _dag(seed=2)]
        jobs = [pipeline_job(dag, ILP_SPEC, CFG) for dag in dags]
        serial = Session(workers=1).run(RunPlan.from_jobs(jobs))
        parallel = Session(workers=2).run(RunPlan.from_jobs(jobs))
        assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]
        # telemetry is attached in both execution modes, and the job's
        # meter counts the same solves inline and in a pool worker
        calls = [r.solver_stats["solver_calls"] for r in serial]
        assert calls == [r.solver_stats["solver_calls"] for r in parallel]
        assert all(count >= 1 for count in calls)
