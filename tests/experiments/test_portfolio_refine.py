"""Refined portfolio members: naming, pruning, and the golden improvement test.

The acceptance bar for the refinement subsystem: on the tiny dataset, adding
``"bspg+clairvoyant+refine"`` to the default portfolio strictly improves the
best cost on at least one instance, while the total portfolio wall time
stays within 2x of the unrefined run (refinement costs milliseconds; the ILP
member dominates both runs).
"""

import math
import time

import pytest

from repro import obs
from repro.dag.generators import chain_dag
from repro.experiments.datasets import tiny_dataset
from repro.pipeline import (
    REFINE_SUFFIX,
    ExperimentConfig,
    is_pruned,
    is_prunable_member,
    legacy_member_names,
    parse,
    run_member,
)
from repro.portfolio import DEFAULT_MEMBERS, Portfolio
from repro.refine import RefineConfig


CFG = ExperimentConfig(name="portfolio-refine-test", num_processors=2,
                       ilp_time_limit=1.0)


def _tiny_dag():
    return tiny_dataset(limit=1)[0]


class TestRefinedMemberNaming:
    def test_every_base_member_has_a_refined_variant(self):
        members = legacy_member_names()
        refined = [m for m in members if m.endswith(REFINE_SUFFIX)]
        base = [m for m in members if not m.endswith(REFINE_SUFFIX)]
        assert len(refined) == len(base)
        assert set(m[: -len(REFINE_SUFFIX)] for m in refined) == set(base)

    def test_refined_member_predicates(self):
        # a refined legacy name parses to a pipeline whose last stage is a
        # refine pass (what `portfolio --refine` checks before adding one)
        assert parse("bspg+clairvoyant+refine").stages[-1].name == "refine"
        assert parse("ilp+refine").stages[-1].name == "refine"
        assert parse("bspg+clairvoyant").stages[-1].name != "refine"
        assert is_prunable_member("ilp")
        assert is_prunable_member("dac+refine")
        assert is_prunable_member("bspg+clairvoyant+refine")
        assert not is_prunable_member("bspg+clairvoyant")
        assert not is_prunable_member("dac")


class TestRefinedMemberExecution:
    def test_two_stage_refined_member_never_worse_than_base(self):
        dag = _tiny_dag()
        base = run_member(dag, CFG, "bspg+clairvoyant")
        refined = run_member(dag, CFG, "bspg+clairvoyant+refine")
        assert refined.ilp_cost <= base.ilp_cost + 1e-9
        assert refined.extra_costs["member_cost"] == refined.ilp_cost
        assert refined.extra_costs["unrefined_cost"] == pytest.approx(base.ilp_cost)
        assert refined.solver_status.startswith("schedule:")
        assert refined.baseline_cost == pytest.approx(base.ilp_cost)

    def test_refined_member_is_deterministic(self):
        dag = _tiny_dag()
        first = run_member(dag, CFG, "bspg+clairvoyant+refine")
        second = run_member(dag, CFG, "bspg+clairvoyant+refine")
        assert first.fingerprint() == second.fingerprint()

    def test_refine_budget_threads_through_config(self):
        dag = _tiny_dag()
        no_budget = run_member(
            dag, CFG.variant(refine=RefineConfig(budget=0)),
            "bspg+clairvoyant+refine",
        )
        assert no_budget.extra_costs["refine_proposals"] == 0.0
        assert no_budget.ilp_cost == pytest.approx(
            no_budget.extra_costs["unrefined_cost"]
        )
        full = run_member(dag, CFG, "bspg+clairvoyant+refine")
        assert full.extra_costs["refine_proposals"] > 0

    def test_inapplicable_refined_member_reports_infinite_cost(self):
        result = run_member(_tiny_dag(), CFG, "dfs+clairvoyant+refine")
        assert math.isinf(result.extra_costs["member_cost"])
        assert result.solver_status.startswith("inapplicable")

    def test_ilp_refined_member_never_worse_than_refined_baseline(self):
        dag = _tiny_dag()
        plain = run_member(dag, CFG, "bspg+clairvoyant+refine")
        seeded = run_member(dag, CFG, "ilp+refine")
        assert seeded.ilp_cost <= plain.ilp_cost + 1e-9

    def test_dac_runner_honours_config_refine_enabled(self):
        """`experiment --table 2 --refine` routes through here: the dac
        table pipeline must post-optimize when config.refine.enabled."""
        from repro.exec import Session, plan_pipelines
        from repro.experiments.tables import experiment_spec

        dag = _tiny_dag()
        # node-limited solves keep both runs deterministic under load, so the
        # cross-run cost comparison cannot flake on solver wall time
        cfg = CFG.variant(ilp_time_limit=30.0, ilp_node_limit=50)
        refined_cfg = cfg.variant(refine=RefineConfig(enabled=True))
        (plain,) = Session().run(
            plan_pipelines([experiment_spec("dac", cfg)], [dag], cfg)
        )
        (refined,) = Session().run(
            plan_pipelines([experiment_spec("dac", refined_cfg)], [dag], refined_cfg)
        )
        assert refined.ilp_cost <= refined.extra_costs["unrefined_cost"] + 1e-9
        assert refined.extra_costs["unrefined_cost"] == pytest.approx(plain.ilp_cost)
        assert refined.extra_costs["refine_proposals"] > 0
        assert "unrefined_cost" not in plain.extra_costs

    def test_dac_refined_member_runs(self):
        dag = _tiny_dag()
        result = run_member(dag, CFG, "dac+refine")
        assert math.isfinite(result.ilp_cost)
        assert result.ilp_cost <= result.extra_costs["unrefined_cost"] + 1e-9
        assert "parts" in result.extra_costs


class TestRefinedMemberPruning:
    P1 = ExperimentConfig(name="prune-refine", num_processors=1, ilp_time_limit=5.0,
                          ilp_node_limit=40, step_cap=4)

    def test_bound_tight_instance_prunes_refinement(self):
        result = run_member(chain_dag(5), self.P1, "bspg+clairvoyant+refine",
                            prune_gap=0.0)
        assert is_pruned(result)
        assert result.extra_costs["pruned"] == 1.0
        assert result.extra_costs["lower_bound"] == pytest.approx(result.ilp_cost)
        assert "refinement pruned" in result.solver_status

    def test_ilp_refined_member_pruned_skips_the_solve(self):
        with obs.Meter() as meter:
            result = run_member(chain_dag(5), self.P1, "ilp+refine", prune_gap=0.0)
        assert is_pruned(result)
        assert meter.solver_calls == 0

    def test_pruning_is_cost_neutral_at_gap_zero(self):
        for member in ("bspg+clairvoyant+refine", "ilp+refine"):
            pruned = run_member(chain_dag(5), self.P1, member, prune_gap=0.0)
            plain = run_member(chain_dag(5), self.P1, member, prune_gap=None)
            assert pruned.ilp_cost == pytest.approx(plain.ilp_cost, abs=1e-9)

    def test_loose_instance_not_pruned(self):
        result = run_member(_tiny_dag(), CFG, "bspg+clairvoyant+refine",
                            prune_gap=0.0)
        assert not is_pruned(result)


class TestGoldenRefinedPortfolio:
    """The acceptance criterion of the refinement subsystem (see module doc)."""

    # the first 6 tiny instances include several where local search strictly
    # beats every default member under the tier-1 solver budget
    LIMIT = 6

    def test_refined_member_strictly_improves_tiny_portfolio_within_2x_time(self):
        dags = tiny_dataset(limit=self.LIMIT)
        config = ExperimentConfig(name="refine-golden", ilp_time_limit=1.0)

        start = time.perf_counter()
        plain_rows = Portfolio(config=config).run(list(DEFAULT_MEMBERS), dags)
        plain_time = time.perf_counter() - start

        start = time.perf_counter()
        refined_rows = Portfolio(config=config).run(
            list(DEFAULT_MEMBERS) + ["bspg+clairvoyant+refine"], dags
        )
        refined_time = time.perf_counter() - start

        improved = []
        for plain, refined in zip(plain_rows, refined_rows):
            # the refined portfolio is a superset: never worse anywhere
            assert refined.best_cost <= plain.best_cost + 1e-9
            if refined.best_cost < plain.best_cost - 1e-9:
                assert refined.best_member == "bspg+clairvoyant+refine"
                improved.append(refined.instance_name)
        assert improved, "refinement should strictly win on >= 1 tiny instance"
        # wall-time acceptance bar: within 2x of the unrefined portfolio
        assert refined_time <= 2.0 * plain_time + 1.0
