"""End-to-end instrumentation tests: spans across Session / pipeline /
solver, per-branch race telemetry, and the no-observable-difference
guarantee (traced results fingerprint-identical to untraced ones)."""

from __future__ import annotations

import math

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exec import ExperimentJob, RunPlan, Session
from repro.pipeline import ExperimentConfig, describe_stage_table
from repro.obs.export import span_tree_errors
from repro.pipeline.stage import StageResult

RACE_SPEC = "baseline|race(ilp@bnb,ilp@scipy)"


def _dag(seed=1):
    dag = spmv(3, seed=seed)
    assign_random_memory_weights(dag, seed=seed)
    dag.name = f"spmv_{seed}"
    return dag


def _config(**kwargs):
    return ExperimentConfig(
        name="obs-test", num_processors=2, ilp_time_limit=1.0, **kwargs
    )


def _run_race(traced: bool, workers: int = 2):
    session = Session(workers=workers)
    if traced:
        with obs.trace_scope():
            result = session.run_pipeline(RACE_SPEC, _dag(), _config())
            spans = obs.get_tracer().drain()
        return result, spans
    return session.run_pipeline(RACE_SPEC, _dag(), _config()), []


class TestRacePipelineSpans:
    def test_traced_race_records_every_layer_with_correct_nesting(self):
        result, spans = _run_race(traced=True)
        assert result.applicable
        names = {span.name for span in spans}
        assert {"pipeline", "stage", "race.branch", "ilp.solve"} <= names
        categories = {span.category for span in spans}
        assert {"pipeline", "solver"} <= categories
        assert span_tree_errors(spans) == []
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        # both race branches ran, each with its own solver span under it
        branches = by_name["race.branch"]
        assert len(branches) == 2
        branch_ids = {span.span_id for span in branches}
        solves = by_name["ilp.solve"]
        assert {span.parent_id for span in solves} <= branch_ids
        for span in solves:
            assert span.attrs["backend"] in ("bnb", "scipy")
        # stage spans carry the cost flow
        stage_spans = by_name["stage"]
        assert any("cost_out" in span.attrs for span in stage_spans)

    def test_session_run_records_job_lifecycle_spans(self):
        config = _config()
        jobs = [
            ExperimentJob.make(_dag(seed), config, member="bspg+clairvoyant")
            for seed in (1, 2)
        ]
        with obs.trace_scope():
            Session(workers=1).run(RunPlan.from_jobs(jobs))
            spans = obs.get_tracer().drain()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (session_span,) = by_name["session.run"]
        assert session_span.attrs["jobs"] == 2
        assert session_span.attrs["executed"] == 2
        job_spans = by_name["session.job"]
        assert len(job_spans) == 2
        assert all(
            span.parent_id == session_span.span_id for span in job_spans
        )
        assert {span.attrs["instance"] for span in job_spans} == {
            "spmv_1", "spmv_2",
        }

    def test_untraced_run_records_nothing(self):
        result, _ = _run_race(traced=False)
        assert result.applicable
        assert obs.get_tracer().drain() == []


class TestNoObservableDifference:
    def test_traced_and_untraced_fingerprints_are_identical(self):
        traced_result, _ = _run_race(traced=True)
        untraced_result, _ = _run_race(traced=False)
        traced = traced_result.to_instance_result()
        untraced = untraced_result.to_instance_result()
        assert traced.fingerprint() == untraced.fingerprint()

    def test_job_keys_ignore_tracing_state(self):
        job = ExperimentJob.make(_dag(), _config(), member="bspg+clairvoyant")
        key_untraced = job.key()
        with obs.trace_scope():
            key_traced = job.key()
        assert key_traced == key_untraced


class TestRaceBranchTelemetry:
    def test_branches_carry_solver_attribution_and_outcome(self):
        result, _ = _run_race(traced=False)
        race_stage = result.stages[-1]
        branches = race_stage.telemetry["race_branches"]
        assert set(branches) == {"ilp@bnb", "ilp@scipy"}
        winners = 0
        for telemetry in branches.values():
            assert {
                "wall_time", "solver_calls", "solver_time",
                "cancel_reason", "cancelled", "winner", "started",
            } <= set(telemetry)
            winners += bool(telemetry["winner"])
            if telemetry["started"] and not telemetry["cancelled"]:
                assert telemetry["solver_calls"] >= 1
                assert telemetry["solver_time"] >= 0.0
        assert winners == 1

    def test_sequential_fallback_marks_skipped_branches(self):
        # workers=1 runs branches sequentially; once a branch wins, the
        # rest are recorded as not started with the winner-decided reason
        result = Session(workers=1).run_pipeline(
            "baseline|race(bspg+clairvoyant,ilp@scipy)", _dag(), _config()
        )
        branches = result.stages[-1].telemetry["race_branches"]
        skipped = [b for b in branches.values() if not b["started"]]
        for telemetry in skipped:
            assert telemetry["cancel_reason"] == "race winner decided"
            assert telemetry["solver_calls"] == 0


class TestDescribeStageTable:
    def test_skipped_stage_renders_dashes_not_zero_seconds(self):
        stages = [
            StageResult(stage="baseline", schedule=None, cost=10.0,
                        status="schedule:abc",
                        telemetry={"wall_time": 0.5, "solver_calls": 0.0}),
            StageResult(stage="ilp", schedule=None, cost=10.0,
                        status="skipped", skipped=True),
        ]
        lines = describe_stage_table(stages)
        skipped_line = lines[1]
        assert "skipped (bound pruning)" in skipped_line
        assert "-" in skipped_line
        assert "0.00s" not in skipped_line
        assert "cost 10 -> 10" in skipped_line

    def test_composite_row_uses_canonical_token_and_branch_subrows(self):
        token = "race(ilp@bnb,ilp@scipy)"
        stages = [
            StageResult(stage="baseline", schedule=None, cost=12.0,
                        telemetry={"wall_time": 0.1, "solver_calls": 0.0}),
            StageResult(
                stage=token, schedule=None, cost=9.0,
                status="race[ilp@bnb] optimal",
                telemetry={
                    "wall_time": 1.0,
                    "solver_calls": 2.0,
                    "race_branches": {
                        "ilp@bnb": {
                            "cost": 9.0, "wall_time": 0.9, "winner": True,
                            "started": True, "cancelled": False,
                            "solver_calls": 1, "cancel_reason": "",
                        },
                        "ilp@scipy": {
                            "cost": math.inf, "wall_time": 0.4,
                            "winner": False, "started": True,
                            "cancelled": True, "solver_calls": 1,
                            "cancel_reason": "race winner decided",
                        },
                    },
                },
            ),
        ]
        lines = describe_stage_table(stages)
        # the composite row shows the canonical token, sized to fit
        assert any(line.strip().startswith(token) for line in lines)
        subrows = [line for line in lines if line.startswith("    - ")]
        assert len(subrows) == 2
        winner_row = next(line for line in subrows if "ilp@bnb" in line)
        loser_row = next(line for line in subrows if "ilp@scipy" in line)
        assert "winner" in winner_row
        assert "cancelled: race winner decided" in loser_row
        assert "cost -" in loser_row  # infinite cost renders as '-'

    def test_not_started_branch_renders_reason(self):
        stages = [
            StageResult(
                stage="race(a,b)", schedule=None, cost=5.0,
                telemetry={
                    "wall_time": 0.2, "solver_calls": 0.0,
                    "race_branches": {
                        "a": {"cost": 5.0, "wall_time": 0.2, "winner": True,
                              "started": True, "cancelled": False,
                              "solver_calls": 0},
                        "b": {"cost": math.inf, "wall_time": 0.0,
                              "winner": False, "started": False,
                              "cancelled": True, "solver_calls": 0,
                              "cancel_reason": "race winner decided"},
                    },
                },
            ),
        ]
        lines = describe_stage_table(stages)
        assert any("not started: race winner decided" in line for line in lines)
