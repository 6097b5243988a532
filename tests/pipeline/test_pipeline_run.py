"""Behavioral tests for the generic pipeline runner (repro.pipeline.Pipeline)."""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.exceptions import ConfigurationError
from repro.pipeline import ExperimentConfig, Pipeline, run_pipeline, stage_reuse_scope
from repro.refine import RefineConfig


def _dag(size=3, seed=1, name="spmv_t"):
    dag = spmv(size, seed=seed)
    assign_random_memory_weights(dag, seed=11)
    dag.name = name
    return dag


CFG = ExperimentConfig(name="pipeline-test", num_processors=2, ilp_time_limit=1.0,
                       refine=RefineConfig(budget=300))


def _reuse_scope_active():
    """Whether a shared-prefix reuse scope is active in this process."""
    from repro.pipeline import pipeline

    return pipeline._ACTIVE_CACHE is not None


class TestBasicExecution:
    def test_single_stage_matches_two_stage_runner(self):
        from repro.core.two_stage import run_two_stage

        dag = _dag()
        result = run_pipeline("bspg+clairvoyant", dag, CFG)
        reference = run_two_stage(
            CFG.instance_for(dag), scheduler="bspg", policy="clairvoyant", seed=0
        )
        assert result.cost == reference.cost
        assert result.baseline_cost == reference.cost
        assert result.status().startswith("schedule:")

    def test_incumbent_threads_between_stages(self):
        dag = _dag()
        base = run_pipeline("bspg+clairvoyant", dag, CFG)
        refined = run_pipeline("bspg+clairvoyant|refine", dag, CFG)
        assert refined.cost <= base.cost
        assert [s.stage for s in refined.stages] == ["bspg+clairvoyant", "refine"]
        # the refine stage saw the two-stage schedule as its incumbent
        assert refined.stages[1].telemetry["cost_in"] == base.cost
        assert refined.stages[1].telemetry["cost_out"] == refined.cost

    def test_per_stage_telemetry_recorded(self):
        result = run_pipeline("bspg+clairvoyant|refine", _dag(), CFG)
        for stage in result.stages:
            assert "wall_time" in stage.telemetry
            assert "solver_calls" in stage.telemetry
        assert "refine" in result.describe()

    def test_inapplicable_pipeline_reports_infinite_cost(self):
        result = run_pipeline("dfs+clairvoyant", _dag(), CFG)  # dfs needs P=1
        assert not result.applicable
        assert math.isinf(result.cost)
        instance_result = result.to_instance_result()
        assert instance_result.solver_status.startswith("inapplicable")
        assert math.isinf(instance_result.extra_costs["member_cost"])

    def test_incumbent_required_without_producer(self):
        pipeline = Pipeline("baseline|refine")
        # bypass the spec-level auto-prepend by cutting the stages directly
        pipeline.stages = pipeline.stages[1:]
        pipeline._tokens = pipeline._tokens[1:]
        with pytest.raises(ConfigurationError, match="incumbent"):
            pipeline.run(_dag(), CFG)

    def test_dag_or_instance_required(self):
        with pytest.raises(ConfigurationError, match="dag or an instance"):
            Pipeline("baseline").run()

    def test_misconfiguration_propagates_instead_of_inapplicable(self):
        """Only two-stage heuristics may declare themselves inapplicable; a
        genuinely broken configuration (here: an invalid ILP step cap) must
        fail loudly, not become an infinitely expensive member."""
        from repro.pipeline import run_member

        with pytest.raises(ConfigurationError, match="max_steps"):
            run_member(_dag(), CFG.variant(step_cap=0), "ilp")


class TestPruning:
    P1 = ExperimentConfig(name="pipeline-prune", num_processors=1,
                          ilp_time_limit=5.0, ilp_node_limit=40, step_cap=4)

    def test_bound_tight_instance_skips_prunable_stages(self):
        result = run_pipeline("baseline|refine|ilp(warm=objective)|refine",
                              chain_dag(5), self.P1, prune_gap=0.0)
        skipped = [s for s in result.stages if s.skipped]
        assert len(skipped) == 3  # refine, ilp, refine — all pruned
        assert result.pruned
        status = result.status()
        assert status.startswith("skipped:")
        assert status.count("skipped:") == 1  # one skip message, not three
        assert "refinement pruned" in status  # the first skipped stage names it
        instance_result = result.to_instance_result()
        assert instance_result.extra_costs["pruned"] == 1.0
        assert instance_result.extra_costs["lower_bound"] == pytest.approx(result.cost)

    def test_loose_instance_runs_all_stages(self):
        result = run_pipeline("bspg+clairvoyant|refine", _dag(), CFG, prune_gap=0.0)
        assert not result.pruned

    def test_prune_disabled_by_default(self):
        result = run_pipeline("baseline|refine", chain_dag(5), self.P1)
        assert not result.pruned


class TestSharedPrefixReuse:
    def test_prefix_reused_within_scope(self):
        dag = _dag()
        with stage_reuse_scope() as cache:
            first = run_pipeline("bspg+clairvoyant", dag, CFG)
            second = run_pipeline("bspg+clairvoyant|refine", dag, CFG)
        assert cache.stats.stages_reused == 1
        assert cache.stats.prefix_hits == 1
        assert second.stages_reused == 1
        assert second.stages[0].cost == first.cost

    def test_reuse_does_not_change_results(self):
        dag = _dag()
        plain = run_pipeline("bspg+clairvoyant|refine", dag, CFG)
        with stage_reuse_scope():
            run_pipeline("bspg+clairvoyant", dag, CFG)
            reused = run_pipeline("bspg+clairvoyant|refine", dag, CFG)
        plain_result = plain.to_instance_result()
        reused_result = reused.to_instance_result()
        assert plain_result.fingerprint() == reused_result.fingerprint()

    def test_different_configs_do_not_share(self):
        dag = _dag()
        with stage_reuse_scope() as cache:
            run_pipeline("bspg+clairvoyant", dag, CFG)
            run_pipeline("bspg+clairvoyant", dag, CFG.variant(num_processors=4))
        assert cache.stats.stages_reused == 0

    def test_no_reuse_outside_scope(self):
        dag = _dag()
        result = run_pipeline("bspg+clairvoyant", dag, CFG)
        assert result.stages_reused == 0
        assert "pipeline_stages_reused" not in result.to_instance_result().solver_stats

    def test_forked_workers_start_without_the_scope(self):
        """A fork-context pool opened inside a scope must not hand its
        workers a copy of the parent's cache: reuse would then depend on
        which worker runs which job, unseen by the parent's statistics."""
        context = multiprocessing.get_context("fork")
        with stage_reuse_scope():
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                assert pool.submit(_reuse_scope_active).result() is False


class TestWarmStartSolutionChaining:
    """The tentpole acceptance: a three-stage spec feeds the refined schedule
    to the holistic ILP as a full warm-start *solution*."""

    SPEC = "bspg+clairvoyant|refine|ilp"

    def _config(self, backend):
        return ExperimentConfig(
            name="warm-start-chain",
            num_processors=2,
            ilp_time_limit=30.0,
            ilp_node_limit=10,
            ilp_backend=backend,
            refine=RefineConfig(budget=300),
        )

    def test_bnb_installs_the_chained_incumbent(self):
        result = run_pipeline(self.SPEC, _dag(), self._config("bnb"))
        ilp_stage = result.stages[-1]
        # the encoder produced a full assignment and the solver accepted it
        assert ilp_stage.extras["warm_started"] == 1.0
        assert ilp_stage.telemetry["warm_start"] == "solution"
        assert "warm-start solution" in ilp_stage.telemetry["solver_message"]
        # a true solution warm start: even a node-limited bnb run *has* a
        # solution (the installed incumbent), instead of NO_SOLUTION
        assert ilp_stage.status in ("optimal", "feasible")
        # the chained incumbent is the refined schedule's cost, and the ILP
        # can only keep or improve it
        refined_cost = result.stages[1].cost
        assert result.cost <= refined_cost

    def test_scipy_derives_the_cutoff_row(self):
        result = run_pipeline(self.SPEC, _dag(), self._config("scipy"))
        ilp_stage = result.stages[-1]
        assert ilp_stage.extras["warm_started"] == 1.0
        assert ilp_stage.telemetry["warm_start"] == "solution"
        refined_cost = result.stages[1].cost
        assert result.cost <= refined_cost

    def test_legacy_objective_mode_sets_no_warm_flag(self):
        result = run_pipeline("ilp", _dag(), self._config("bnb"))
        ilp_stage = result.stages[-1]
        assert "warm_started" not in ilp_stage.extras
        assert ilp_stage.telemetry["warm_start"] == "objective"
