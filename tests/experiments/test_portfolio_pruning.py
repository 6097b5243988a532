"""Golden-cost regression tests for bound-aware portfolio pruning.

Pruning with the default gap ``0.0`` skips an ILP member's solve only when
the two-stage baseline provably matches the theory lower bound, so a
portfolio run with pruning on and off must report *identical* best costs —
the pruned run just performs fewer solver calls.  These tests pin that
equivalence (and the exact skip counts) on a deterministic seed set: two
provably-optimal single-processor instances (chain, fork-join) and one
instance where the bound is not tight and the ILP must still run.  All ILP
solves are node-limited, so the costs are reproducible under load.
"""

import math

import pytest

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, fork_join_dag, spmv
from repro.experiments.runner import ExperimentConfig
from repro.portfolio import (
    DEFAULT_MEMBERS,
    PRUNED_STATUS_PREFIX,
    Portfolio,
    format_portfolio_table,
    is_pruned,
    run_member,
)
from repro.theory.bounds import instance_lower_bound


def _seed_dags():
    """Deterministic instances: two bound-tight at P=1, one that is not."""
    dags = [chain_dag(5), fork_join_dag(width=2, stages=1)]
    weighted = spmv(3, seed=1)
    assign_random_memory_weights(weighted, seed=7)
    dags.append(weighted)
    return dags


# node-limited ILP budgets keep the unpruned runs exactly reproducible; the
# step cap keeps the unpruned models small enough for a fast tier-1 run
CFG = ExperimentConfig(
    name="pruning-test",
    num_processors=1,
    ilp_time_limit=30.0,
    ilp_node_limit=40,
    step_cap=4,
)

#: Instances of :func:`_seed_dags` whose baseline provably hits the bound.
EXPECTED_PRUNED = {"chain_5": True, "forkjoin_w2_s1": True, "spmv_N3": False}


def test_seed_instances_cover_both_pruning_outcomes():
    """The fixture is meaningful: some baselines hit the bound, some do not."""
    from repro.core.two_stage import baseline_schedule

    for dag in _seed_dags():
        instance = CFG.instance_for(dag)
        bound = instance_lower_bound(instance, synchronous=True)
        base = baseline_schedule(instance, synchronous=True, seed=CFG.seed)
        assert base.cost >= bound - 1e-9  # the bound is valid
        tight = base.cost <= bound + 1e-9
        assert tight == EXPECTED_PRUNED[dag.name]


class TestPruningGoldenEquivalence:
    def test_pruning_on_off_identical_best_costs_with_expected_skips(self):
        dags = _seed_dags()
        pruned_rows = Portfolio(config=CFG, prune_gap=0.0).run(["ilp"], dags)
        plain_rows = Portfolio(config=CFG, prune_gap=None).run(["ilp"], dags)

        for with_pruning, without in zip(pruned_rows, plain_rows):
            assert with_pruning.best_cost == pytest.approx(without.best_cost, abs=1e-9)
            assert with_pruning.best_member == without.best_member
            expected = EXPECTED_PRUNED[with_pruning.instance_name]
            assert (with_pruning.num_pruned == 1) == expected
            assert without.num_pruned == 0
        assert sum(row.num_pruned for row in pruned_rows) == 2

    def test_pruned_run_makes_strictly_fewer_solver_calls(self):
        dags = _seed_dags()
        with obs.Meter() as pruned:
            Portfolio(config=CFG, prune_gap=0.0).run(["ilp"], dags)
        with obs.Meter() as unpruned:
            Portfolio(config=CFG, prune_gap=None).run(["ilp"], dags)
        pruned_calls, unpruned_calls = pruned.solver_calls, unpruned.solver_calls
        assert pruned_calls < unpruned_calls
        assert unpruned_calls == len(dags)  # one holistic solve per instance
        assert pruned_calls == sum(1 for tight in EXPECTED_PRUNED.values() if not tight)

    def test_default_members_prune_only_the_ilp_member(self):
        dags = _seed_dags()[:2]
        rows = Portfolio(config=CFG, prune_gap=0.0).run(list(DEFAULT_MEMBERS), dags)
        for row in rows:
            assert row.pruned_members == ["ilp"]
            # two-stage members are never bound-pruned
            assert not row.member_status["cilk+lru"].startswith(PRUNED_STATUS_PREFIX)
            # on a provably optimal instance the pruned ILP member still wins
            # or ties the two-stage members
            assert row.member_costs["ilp"] == pytest.approx(row.best_cost)

    def test_skip_reason_recorded_in_results(self):
        dag = _seed_dags()[0]
        result = run_member(dag, CFG, "ilp", prune_gap=0.0)
        assert is_pruned(result)
        assert result.solver_status.startswith(PRUNED_STATUS_PREFIX)
        assert "lower bound" in result.solver_status
        assert result.extra_costs["pruned"] == 1.0
        assert result.extra_costs["lower_bound"] == pytest.approx(result.baseline_cost)
        assert result.ilp_cost == result.baseline_cost

    def test_dac_member_is_never_pruned(self):
        """dac reports its schedule as-is, so pruning would change results."""
        dag = _seed_dags()[0]
        result = run_member(dag, CFG, "dac", prune_gap=0.0)
        assert not is_pruned(result)
        assert result.solver_status == "divide-and-conquer"

    def test_unpruned_member_has_no_skip_markers(self):
        dag = _seed_dags()[2]
        result = run_member(dag, CFG, "ilp", prune_gap=0.0)
        assert not is_pruned(result)
        assert "pruned" not in result.extra_costs

    def test_negative_or_none_gap_disables_pruning(self):
        dag = _seed_dags()[0]
        for gap in (None, -0.5):
            result = run_member(dag, CFG, "ilp", prune_gap=gap)
            assert not is_pruned(result)

    def test_wide_gap_prunes_everything(self):
        dags = _seed_dags()
        with obs.Meter() as meter:
            rows = Portfolio(config=CFG, prune_gap=100.0).run(["ilp"], dags)
        assert meter.solver_calls == 0
        assert all(row.num_pruned == 1 for row in rows)
        # the member then reports exactly the baseline cost everywhere
        for row in rows:
            assert math.isfinite(row.best_cost)

    def test_table_annotates_pruned_cells(self):
        rows = Portfolio(config=CFG, prune_gap=0.0).run(["ilp"], _seed_dags()[:2])
        text = format_portfolio_table(rows)
        assert "*" in text
        assert "skipped by bound pruning" in text

    def test_pruning_parallel_run_identical_to_serial(self):
        dags = _seed_dags()
        serial = Portfolio(config=CFG, prune_gap=0.0).run(["ilp"], dags, workers=1)
        parallel = Portfolio(config=CFG, prune_gap=0.0).run(["ilp"], dags, workers=3)
        for left, right in zip(serial, parallel):
            assert left.member_costs == right.member_costs
            assert left.member_status == right.member_status
            assert left.pruned_members == right.pruned_members
