"""Unit tests for the composite pipeline stages: race(...) and budget=<s>s.

Solver-backed runs are node-limited and step-capped, so every comparison
here is exact and reproducible under load (the same convention as the
golden equivalence suite).
"""

import math

import pytest

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.exceptions import ConfigurationError
from repro.exec import RunPlan, Session, pipeline_job, slot_scope
from repro.experiments.parallel import ExperimentJob
from repro.experiments.runner import ExperimentConfig
from repro.pipeline import (
    EXAMPLE_RACE_SPECS,
    Pipeline,
    canonicalize,
    expand_spec,
    parse,
    with_default_budget,
)
from repro.pipeline.composite import splice_option
from repro.portfolio import is_prunable_member, run_member


def _dag():
    dag = spmv(3, seed=1)
    assign_random_memory_weights(dag, seed=11)
    dag.name = "spmv_race"
    return dag


CFG = ExperimentConfig(
    name="composite-test",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=20,
    step_cap=4,
)


class TestRaceSpec:
    def test_branches_canonicalize_sorted(self):
        a = canonicalize("baseline|race(ilp@scipy,ilp@bnb)")
        b = canonicalize("baseline|race(ilp@bnb,ilp@scipy)")
        assert a == b == "baseline|race(ilp@bnb,ilp@scipy)"

    def test_canonical_is_fixed_point(self):
        for spec in EXAMPLE_RACE_SPECS.values():
            canonical = canonicalize(spec)
            assert canonicalize(canonical) == canonical

    def test_baseline_auto_prepended_for_incumbent_branches(self):
        spec = parse("race(ilp@bnb,ilp@scipy)")
        assert spec.stages[0].name == "baseline"

    def test_multi_stage_branches_parse(self):
        canonical = canonicalize("baseline|race(refine|ilp, ilp@bnb)")
        assert canonical == "baseline|race(ilp@bnb,refine|ilp)"

    def test_too_few_branches_rejected(self):
        with pytest.raises(ConfigurationError, match="two branches"):
            parse("baseline|race(ilp@bnb)")
        with pytest.raises(ConfigurationError, match="two branches"):
            parse("baseline|race()")

    def test_unknown_branch_stage_rejected_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline stage"):
            parse("baseline|race(ilp@bnb,quantum)")

    def test_unknown_backend_rejected_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="backend"):
            parse("baseline|race(ilp@bnb,ilp@copt)")

    def test_positional_args_only_for_composites(self):
        with pytest.raises(ConfigurationError, match="positional"):
            parse("refine(hill)")

    def test_race_of_prunable_stages_is_prunable(self):
        assert is_prunable_member("baseline|race(ilp@bnb,ilp@scipy)")
        assert not is_prunable_member("baseline|race(ilp@bnb,dac)")


class TestRaceExecution:
    def test_winner_deterministic_across_branch_order_and_slots(self):
        dag = _dag()
        results = []
        for spec in ("baseline|race(ilp@scipy,ilp@bnb)",
                     "baseline|race(ilp@bnb,ilp@scipy)"):
            results.append(run_member(dag, CFG, spec))
            with slot_scope(4):
                results.append(run_member(dag, CFG, spec))
        fingerprints = [r.fingerprint() for r in results]
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])
        assert results[0].solver_status.startswith("race[")

    def test_winner_cost_never_worse_than_either_branch(self):
        dag = _dag()
        race = run_member(dag, CFG, "baseline|race(ilp@bnb,ilp@scipy)")
        scipy_only = run_member(dag, CFG, "baseline|ilp@scipy")
        bnb_only = run_member(dag, CFG, "baseline|ilp@bnb")
        assert race.ilp_cost <= min(scipy_only.ilp_cost, bnb_only.ilp_cost) + 1e-9

    def test_anneal_seed_race_runs(self):
        dag = _dag()
        result = run_member(dag, CFG, EXAMPLE_RACE_SPECS["anneal-seed race"])
        assert math.isfinite(result.ilp_cost)
        assert result.solver_status.startswith("race[refine(")

    def test_inapplicable_branch_competes_with_infinite_cost(self):
        # dfs requires P = 1; on a P = 2 instance that branch is out and the
        # two-stage branch must win
        dag = _dag()
        result = run_member(
            dag, CFG, "race(dfs+clairvoyant,bspg+clairvoyant)"
        )
        reference = run_member(dag, CFG, "bspg+clairvoyant")
        assert result.ilp_cost == reference.ilp_cost

    def test_all_branches_inapplicable_reports_infinite_cost(self):
        dag = _dag()  # P = 2: every dfs branch is inapplicable
        result = run_member(
            dag, CFG, "race(dfs+clairvoyant,dfs+lru)"
        )
        assert math.isinf(result.ilp_cost)
        assert "no branch applicable" in result.solver_status

    def test_sequential_race_skips_all_losers_once_decided(self):
        # on a P = 1 chain the baseline matches the theory lower bound, so
        # after the first branch the winner is provably decided and *every*
        # remaining branch is cancelled before it starts (no extra solves —
        # a skipped loser must not un-decide the race for the next one)
        dag = chain_dag(5)
        config = CFG.variant(num_processors=1)
        branches = ",".join(
            f"refine(seed={seed})|ilp(warm=objective)" for seed in (1, 2, 3)
        )
        with obs.Meter() as meter:
            result = run_member(dag, config, f"baseline|race({branches})")
        assert math.isfinite(result.ilp_cost)
        # only the first branch dispatched solver calls
        assert meter.solver_calls <= 1


BACKEND_RACE = "baseline|race(ilp@bnb,ilp@scipy)"


class TestRaceMeters:
    """Race branches count into the meters of the stage and job around them."""

    @pytest.mark.parametrize("slots", [1, 2])
    def test_stage_counts_the_solves_of_its_branches(self, slots):
        # with two slots the branches run on pool threads, each in a copy
        # of the stage's context
        with slot_scope(slots), obs.Meter() as meter:
            result = Pipeline(BACKEND_RACE).run(_dag(), CFG)
        race = result.stages[-1]
        calls = [b["solver_calls"] for b in race.telemetry["race_branches"].values()]
        assert calls == [1, 1] and all(type(c) is int for c in calls)
        assert race.telemetry["solver_calls"] == 2.0
        assert type(race.telemetry["solver_calls"]) is float
        assert sorted(backend for backend, _ in meter.solves) == ["bnb", "scipy"]

    def test_pool_session_job_counts_both_branches(self):
        # one job on a two-worker session runs inline with two slots
        (result,) = Session(workers=2).run(
            RunPlan.from_jobs([pipeline_job(_dag(), BACKEND_RACE, CFG)])
        )
        stats = result.solver_stats
        assert stats["solver_calls"] == 2.0
        assert stats["solver_calls[bnb]"] == stats["solver_calls[scipy]"] == 1.0


class TestBudgets:
    def test_budget_token_canonical_and_hash_relevant(self):
        token = canonicalize("ilp(budget=2s,warm=objective)")
        assert token == "baseline|ilp(budget=2s,warm=objective)"
        assert canonicalize(token) == token
        # different budgets are different jobs (and cache keys)
        dag = _dag()
        key_a = ExperimentJob.make(dag, CFG, member=canonicalize("ilp(budget=2s)")).key()
        key_b = ExperimentJob.make(dag, CFG, member=canonicalize("ilp(budget=3s)")).key()
        assert key_a != key_b

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="microsecond"):
            parse("ilp(budget=0s)")

    def test_generous_budgets_never_render_scientific(self):
        # "%g" would emit '1e+06s', which the grammar cannot re-parse
        spec = canonicalize("ilp(budget=1000000s,warm=objective)")
        assert spec == "baseline|ilp(budget=1000000s,warm=objective)"
        assert canonicalize(spec) == spec
        precise = canonicalize("refine(budget=500)|ilp(budget=123456.789s)")
        assert "budget=123456.789s" in precise
        assert canonicalize(precise) == precise

    def test_plain_integer_budget_still_means_proposals_for_refine(self):
        spec = canonicalize("refine(budget=500)")
        assert spec == "baseline|refine(budget=500)"

    def test_budget_on_stage_without_that_option_needs_the_suffix(self):
        with pytest.raises(ConfigurationError, match="budget=2s"):
            parse("ilp(budget=2)")

    def test_generous_budget_preserves_results(self):
        dag = _dag()
        plain = run_member(dag, CFG, "baseline|ilp(warm=objective)")
        budgeted = run_member(dag, CFG, "baseline|ilp(budget=60s,warm=objective)")
        # a budget that does not bind changes nothing but the spec token
        assert budgeted.ilp_cost == plain.ilp_cost
        assert budgeted.solver_status == plain.solver_status

    def test_budget_telemetry_recorded(self):
        dag = _dag()
        result = Pipeline("baseline|ilp(budget=60s,warm=objective)").run(dag, CFG)
        stage = result.stages[-1]
        assert stage.telemetry["budget"] == 60.0
        assert stage.telemetry["budget_expired"] is False

    def test_cache_hit_replays_budgeted_outcome(self, tmp_path):
        from repro.exec import Session, plan_pipelines

        dag = _dag()
        spec = "baseline|ilp(budget=60s,warm=objective)"
        plan = plan_pipelines([spec], [dag], CFG)
        first = Session(cache_dir=tmp_path).run(plan)
        warm_session = Session(cache_dir=tmp_path)
        second = warm_session.run(plan_pipelines([spec], [dag], CFG))
        assert warm_session.stats.cache_hits == 1
        assert second[0].fingerprint() == first[0].fingerprint()

    def test_with_default_budget_respects_explicit_budgets(self):
        spec = with_default_budget("baseline|ilp(budget=9s,warm=objective)", 2.0)
        assert spec == "baseline(budget=2s)|ilp(budget=9s,warm=objective)"
        with pytest.raises(ConfigurationError, match="positive"):
            with_default_budget("baseline", 0.0)


class TestSweepExpansion:
    def test_single_sweep_expands(self):
        assert expand_spec("dac(max_part_size={2,4,8})") == [
            "dac(max_part_size=2)",
            "dac(max_part_size=4)",
            "dac(max_part_size=8)",
        ]

    def test_cartesian_product(self):
        specs = expand_spec("refine(seed={1,2},strategy={hill,anneal})")
        assert len(specs) == 4
        assert "baseline|refine(seed=1,strategy=anneal)" in specs

    def test_sweep_free_spec_canonicalizes(self):
        assert expand_spec("ilp") == ["baseline|ilp(warm=objective)"]

    def test_duplicate_expansions_deduplicated(self):
        assert expand_spec("refine(seed={1,1})") == ["baseline|refine(seed=1)"]

    def test_malformed_sweeps_rejected(self):
        with pytest.raises(ConfigurationError, match="unbalanced"):
            expand_spec("dac(max_part_size={2,4)")
        with pytest.raises(ConfigurationError, match="empty sweep"):
            expand_spec("dac(max_part_size={})")

    def test_parse_rejects_unexpanded_sweeps(self):
        with pytest.raises(ConfigurationError, match="expand"):
            parse("dac(max_part_size={2,4})")


class TestSpliceOption:
    def test_without_parens(self):
        assert splice_option("refine", "budget", "2s") == "refine(budget=2s)"

    def test_options_stay_sorted(self):
        assert splice_option(
            "ilp(warm=objective)", "budget", "2s"
        ) == "ilp(budget=2s,warm=objective)"

    def test_args_keep_their_order(self):
        assert splice_option(
            "race(ilp@bnb,ilp@scipy)", "budget", "1s"
        ) == "race(ilp@bnb,ilp@scipy,budget=1s)"
