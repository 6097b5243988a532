"""Property-based tests of the refinement invariants (hypothesis).

For random instances and any baseline pipeline the refinement engine must:

* never increase :func:`~repro.model.cost.schedule_cost`,
* always return a schedule passing the strict model validator,
* be deterministic for a fixed seed (identical schedules, not just costs),
* keep its incremental cost bookkeeping consistent with the exact evaluator.

The fast variants run small budgets in tier 1; the large-budget variants are
marked ``slow`` and run nightly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.two_stage import baseline_schedule
from repro.dag.generators import random_layered_dag
from repro.model.cost import synchronous_cost
from repro.model.instance import make_instance
from repro.model.validation import validate_schedule
from repro.pipeline import schedule_digest
from repro.refine import RefineConfig, Refiner, refine_schedule


@st.composite
def refinable_instances(draw):
    """A feasible instance plus its two-stage baseline schedule."""
    layers = draw(st.integers(min_value=2, max_value=4))
    width = draw(st.integers(min_value=1, max_value=4))
    prob = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    dag = random_layered_dag(layers, width, edge_probability=prob, seed=seed)
    procs = draw(st.integers(min_value=1, max_value=4))
    factor = draw(st.floats(min_value=1.5, max_value=4.0))
    instance = make_instance(dag, num_processors=procs, cache_factor=factor,
                             g=1.0, L=10.0)
    return instance, baseline_schedule(instance, synchronous=True, seed=0)


class TestRefinementInvariants:
    @given(refinable_instances(), st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_never_increases_cost_and_stays_valid(self, pair, budget):
        _instance, base = pair
        result = refine_schedule(base.mbsp_schedule, budget=budget, seed=0)
        # never worse than the input under the exact evaluator
        assert result.final_cost <= base.cost + 1e-9
        assert result.final_cost == pytest.approx(
            synchronous_cost(result.schedule), abs=1e-6
        )
        # always passes the strict model validation
        validate_schedule(result.schedule)

    @given(refinable_instances(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_for_fixed_seed(self, pair, seed):
        _instance, base = pair
        first = refine_schedule(base.mbsp_schedule, budget=300, seed=seed)
        second = refine_schedule(base.mbsp_schedule, budget=300, seed=seed)
        assert first.final_cost == second.final_cost
        assert schedule_digest(first.schedule) == schedule_digest(second.schedule)

    @given(refinable_instances())
    @settings(max_examples=15, deadline=None)
    def test_annealing_contract_matches_hill_climbing_contract(self, pair):
        _instance, base = pair
        config = RefineConfig(strategy="anneal", budget=300, seed=5)
        result = Refiner(config).refine(base.mbsp_schedule)
        assert result.final_cost <= base.cost + 1e-9
        validate_schedule(result.schedule)
        assert result.final_cost == pytest.approx(
            synchronous_cost(result.schedule), abs=1e-6
        )


@pytest.mark.slow
class TestRefinementInvariantsLargeBudget:
    """Nightly variants with production-sized budgets."""

    @given(refinable_instances())
    @settings(max_examples=20, deadline=None)
    def test_large_budget_never_increases_cost_and_stays_valid(self, pair):
        _instance, base = pair
        result = refine_schedule(base.mbsp_schedule, budget=5000, seed=0)
        assert result.final_cost <= base.cost + 1e-9
        validate_schedule(result.schedule)

    @given(refinable_instances())
    @settings(max_examples=10, deadline=None)
    def test_large_budget_deterministic(self, pair):
        _instance, base = pair
        first = refine_schedule(base.mbsp_schedule, budget=5000, seed=42)
        second = refine_schedule(base.mbsp_schedule, budget=5000, seed=42)
        assert schedule_digest(first.schedule) == schedule_digest(second.schedule)

    @given(refinable_instances())
    @settings(max_examples=10, deadline=None)
    def test_large_budget_annealing(self, pair):
        _instance, base = pair
        config = RefineConfig(strategy="anneal", budget=5000, seed=7)
        result = Refiner(config).refine(base.mbsp_schedule)
        assert result.final_cost <= base.cost + 1e-9
        validate_schedule(result.schedule)
