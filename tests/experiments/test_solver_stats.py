"""Per-job solver telemetry attached by ``execute_job`` on a Session."""

import json

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.exec import RunPlan, Session, pipeline_job
from repro.experiments.parallel import ExperimentJob
from repro.experiments.runner import ExperimentConfig, InstanceResult
from repro.experiments.tables import ILP_SPEC
from repro.ilp.backends import SolverCallStats


def _dag(seed=1):
    dag = spmv(3, seed=seed)
    assign_random_memory_weights(dag, seed=7)
    return dag


CFG = ExperimentConfig(name="stats-test", ilp_time_limit=1.0, ilp_node_limit=40,
                       step_cap=4)


class TestSolverCallStatsDelta:
    def test_delta_since_reports_calls_and_times_per_backend(self):
        before = SolverCallStats()
        after = SolverCallStats(
            total=3, by_backend={"scipy": 2, "bnb": 1},
            time_total=1.5, time_by_backend={"scipy": 1.0, "bnb": 0.5},
        )
        delta = after.delta_since(before)
        assert delta["solver_calls"] == 3.0
        assert delta["solver_calls[scipy]"] == 2.0
        assert delta["solver_calls[bnb]"] == 1.0
        assert delta["solver_time"] == pytest.approx(1.5)
        assert delta["solver_time[scipy]"] == pytest.approx(1.0)

    def test_snapshot_is_independent(self):
        stats = SolverCallStats()
        snap = stats.snapshot()
        stats.record("scipy")
        stats.record_time("scipy", 0.25)
        assert snap.total == 0 and not snap.by_backend
        delta = stats.delta_since(snap)
        assert delta["solver_calls"] == 1.0
        assert delta["solver_time[scipy]"] == pytest.approx(0.25)


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
        # telemetry is attached in both execution modes
        assert all(r.solver_stats["solver_calls"] >= 1 for r in serial)
        assert all(r.solver_stats["solver_calls"] >= 1 for r in parallel)
