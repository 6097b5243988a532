"""Tests for the scheduler portfolio (repro.portfolio)."""

import math

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import iterated_spmv, spmv
from repro.exceptions import ConfigurationError
from repro.exec import Session
from repro.pipeline import (
    ExperimentConfig,
    legacy_member_names,
    run_member,
    schedule_digest,
)
from repro.portfolio import DEFAULT_MEMBERS, Portfolio, format_portfolio_table

FAST_MEMBERS = ["bspg+clairvoyant", "cilk+lru"]


def _dags():
    out = []
    for name, dag in [
        ("spmv_a", spmv(3, seed=1)),
        ("spmv_b", spmv(4, seed=2)),
        ("exp_a", iterated_spmv(3, 2, seed=3)),
    ]:
        assign_random_memory_weights(dag, seed=11)
        dag.name = name
        out.append(dag)
    return out


CFG = ExperimentConfig(name="portfolio-test", num_processors=2, ilp_time_limit=1.0)


class TestMembers:
    def test_legacy_member_names_cover_defaults(self):
        members = legacy_member_names()
        assert set(DEFAULT_MEMBERS) <= set(members)
        assert "ilp" in members and "dac" in members
        assert "dfs+clairvoyant" in members

    def test_two_stage_member_reports_cost_and_digest(self):
        dag = _dags()[0]
        result = run_member(dag, CFG, "bspg+clairvoyant")
        assert result.baseline_cost == result.ilp_cost > 0
        assert result.extra_costs["member_cost"] == result.ilp_cost
        assert result.solver_status.startswith("schedule:")

    def test_inapplicable_member_reports_infinite_cost(self):
        dag = _dags()[0]
        result = run_member(dag, CFG, "dfs+clairvoyant")  # dfs needs P = 1
        assert math.isinf(result.extra_costs["member_cost"])
        assert result.solver_status.startswith("inapplicable")

    def test_dfs_member_applies_on_single_processor(self):
        dag = _dags()[0]
        result = run_member(dag, CFG.variant(num_processors=1), "dfs+clairvoyant")
        assert math.isfinite(result.ilp_cost) and result.ilp_cost > 0

    def test_ilp_member(self):
        dag = _dags()[0]
        result = run_member(dag, CFG, "ilp")
        assert result.ilp_cost <= result.baseline_cost + 1e-9
        assert result.extra_costs["member_cost"] == result.ilp_cost

    def test_malformed_member_rejected(self):
        with pytest.raises(ConfigurationError):
            run_member(_dags()[0], CFG, "quantum")


class TestPortfolio:
    def test_picks_cheapest_member_per_instance(self):
        rows = Portfolio(config=CFG).run(FAST_MEMBERS, _dags())
        assert len(rows) == 3
        for row in rows:
            assert set(row.member_costs) == set(FAST_MEMBERS)
            assert row.best_cost == min(row.member_costs.values())
            assert row.member_costs[row.best_member] == row.best_cost
            assert row.ranking[0] == row.best_member

    def test_parallel_run_identical_to_serial(self):
        dags = _dags()
        serial = Portfolio(config=CFG).run(FAST_MEMBERS, dags, workers=1)
        parallel = Portfolio(config=CFG).run(FAST_MEMBERS, dags, workers=3)
        for left, right in zip(serial, parallel):
            assert left.member_costs == right.member_costs
            assert left.member_status == right.member_status  # incl. digests
            assert left.best_member == right.best_member

    def test_inapplicable_member_never_wins(self):
        rows = Portfolio(config=CFG).run(FAST_MEMBERS + ["dfs+clairvoyant"], _dags())
        for row in rows:
            assert row.best_member != "dfs+clairvoyant"
            assert math.isinf(row.member_costs["dfs+clairvoyant"])

    def test_unknown_member_rejected(self):
        with pytest.raises(ConfigurationError):
            Portfolio(config=CFG).run(["warp-drive"], _dags())

    def test_empty_member_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Portfolio(config=CFG).run([], _dags())

    def test_cached_rerun_executes_nothing(self, tmp_path):
        dags = _dags()
        first_session = Session(workers=1, cache_dir=tmp_path)
        first = Portfolio(config=CFG).run(FAST_MEMBERS, dags, session=first_session)
        second_session = Session(workers=2, cache_dir=tmp_path)
        second = Portfolio(config=CFG).run(FAST_MEMBERS, dags, session=second_session)
        assert second_session.stats.executed == 0
        assert second_session.stats.cache_hits == len(dags) * len(FAST_MEMBERS)
        for left, right in zip(first, second):
            assert left.member_costs == right.member_costs
            assert left.best_member == right.best_member

    def test_format_portfolio_table(self):
        rows = Portfolio(config=CFG).run(FAST_MEMBERS, _dags()[:2])
        text = format_portfolio_table(rows)
        for member in FAST_MEMBERS:
            assert member in text
        assert "winner" in text
        assert "spmv_a" in text


def test_schedule_digest_is_stable_and_sensitive():
    from repro.cache.conversion import two_stage_schedule
    from repro.cache.policies import ClairvoyantPolicy, LruPolicy
    from repro.bsp.greedy import greedy_bsp_schedule
    from repro.model.instance import make_instance

    dag = _dags()[0]
    instance = make_instance(dag, num_processors=2, cache_factor=1.0, g=1.0, L=10.0)
    bsp = greedy_bsp_schedule(dag, 2)
    clair = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
    clair_again = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
    lru = two_stage_schedule(bsp, instance, LruPolicy())
    assert schedule_digest(clair) == schedule_digest(clair_again)
    assert schedule_digest(clair) != schedule_digest(lru)
