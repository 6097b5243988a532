"""Property-based backend-equivalence matrix for the ILP solver registry.

For hypothesis-generated models and tiny DAG scheduling problems, every
registered backend (scipy/HiGHS, the pure-Python branch and bound, and the
``auto`` dispatcher) must agree:

* on feasibility — either all backends report a solution or none does;
* on the optimal objective value (the solutions themselves may differ when
  the optimum is degenerate, the *value* may not);
* every reported solution must actually be feasible: all constraints hold
  and all integer variables take integral values.

The model-level matrix runs in tier 1; the scheduler-level equivalence
(driving the full MBSP and BSP ILPs through each backend) is solver-heavy
and carries the ``slow`` marker.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.generators import chain_dag, fork_join_dag, random_layered_dag
from repro.ilp import (
    IlpModel,
    SolutionStatus,
    SolverOptions,
    available_backends,
    solve,
)

ALL_BACKENDS = tuple(available_backends())  # ("auto", "bnb", "scipy")

#: Exact solves: no early gap-based stops, generous wall clock.
EXACT = SolverOptions(time_limit=60.0, mip_rel_gap=0.0)


def assert_solution_is_feasible(model: IlpModel, solution, tolerance: float = 1e-5):
    """Replay all rows, bounds and integrality of the compiled model
    against ``solution``."""
    compiled = model.compile()
    x = np.asarray(solution.values, dtype=float)
    rows = compiled.A @ x
    assert np.all(rows >= compiled.con_lb - tolerance)
    assert np.all(rows <= compiled.con_ub + tolerance)
    assert np.all(x >= compiled.var_lb - tolerance)
    assert np.all(x <= compiled.var_ub + tolerance)
    integers = x[compiled.integrality == 1]
    assert np.all(np.abs(integers - np.round(integers)) <= tolerance)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_milp_models(draw):
    """A random small MILP over binaries: knapsack-like rows, random senses."""
    n = draw(st.integers(min_value=2, max_value=6))
    model = IlpModel("prop_milp")
    xs = model.add_variables("x", n, 0, 1, is_integer=True)

    num_rows = draw(st.integers(min_value=1, max_value=3))
    for _ in range(num_rows):
        coeffs = draw(
            st.lists(st.integers(min_value=-4, max_value=6), min_size=n, max_size=n)
        )
        rhs = draw(st.integers(min_value=-3, max_value=12))
        model.add_rows([xs], [coeffs], upper=rhs)

    objective_coeffs = draw(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        model.maximize(xs, objective_coeffs)
    else:
        model.minimize(xs, objective_coeffs)
    return model


@st.composite
def small_mixed_models(draw):
    """A random model mixing bounded integers and continuous variables."""
    model = IlpModel("prop_mixed")
    num_int = draw(st.integers(min_value=1, max_value=3))
    num_cont = draw(st.integers(min_value=1, max_value=2))
    ints = [
        model.add_variables(f"i{k}", 1, 0, draw(st.integers(2, 6)), is_integer=True)[0]
        for k in range(num_int)
    ]
    conts = list(model.add_variables("c", num_cont, 0, 10))
    xs = ints + conts

    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeffs = draw(
            st.lists(st.integers(min_value=-3, max_value=5), min_size=len(xs), max_size=len(xs))
        )
        rhs = draw(st.integers(min_value=0, max_value=20))
        model.add_rows([xs], [coeffs], upper=rhs)

    coeffs = draw(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=len(xs), max_size=len(xs))
    )
    constant = draw(st.integers(min_value=-5, max_value=5))
    model.maximize(xs, coeffs, constant=constant)
    return model


def solve_with_all_backends(model: IlpModel):
    return {backend: solve(model, EXACT, backend=backend) for backend in ALL_BACKENDS}


def assert_backends_agree(model: IlpModel, solutions):
    solvable = {name: sol.has_solution for name, sol in solutions.items()}
    assert len(set(solvable.values())) == 1, f"feasibility disagreement: {solvable}"
    if not any(solvable.values()):
        return
    objectives = {name: sol.objective for name, sol in solutions.items()}
    reference = objectives[ALL_BACKENDS[0]]
    for name, objective in objectives.items():
        assert objective == pytest.approx(reference, abs=1e-5), (
            f"objective disagreement: {objectives}"
        )
    for name, solution in solutions.items():
        assert_solution_is_feasible(model, solution)


# ----------------------------------------------------------------------
# model-level equivalence (tier 1)
# ----------------------------------------------------------------------
class TestModelLevelEquivalence:
    @given(small_milp_models())
    @settings(max_examples=25, deadline=None)
    def test_binary_models_agree_across_backends(self, model):
        assert_backends_agree(model, solve_with_all_backends(model))

    @given(small_mixed_models())
    @settings(max_examples=20, deadline=None)
    def test_mixed_integer_models_agree_across_backends(self, model):
        assert_backends_agree(model, solve_with_all_backends(model))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_infeasible_models_rejected_by_all_backends(self, lower, width):
        model = IlpModel("prop_infeasible")
        xs = model.add_variables("x", width, 0, 1, is_integer=True)
        model.add_rows([xs], 1.0, lower=width + lower)  # impossible for binaries
        model.minimize(xs, 1.0)
        for backend in ALL_BACKENDS:
            solution = solve(model, EXACT, backend=backend)
            assert not solution.has_solution
            assert solution.status in (
                SolutionStatus.INFEASIBLE,
                SolutionStatus.NO_SOLUTION,
            )


# ----------------------------------------------------------------------
# scheduler-level equivalence (solver-heavy -> slow marker)
# ----------------------------------------------------------------------
@st.composite
def tiny_scheduling_dags(draw):
    """A tiny DAG whose full MBSP ILP stays tractable for pure-Python B&B."""
    kind = draw(st.sampled_from(["chain", "forkjoin", "layered"]))
    if kind == "chain":
        return chain_dag(draw(st.integers(min_value=3, max_value=4)))
    if kind == "forkjoin":
        return fork_join_dag(width=2, stages=1)
    return random_layered_dag(
        2, 2, edge_probability=0.8, seed=draw(st.integers(min_value=0, max_value=50))
    )


@pytest.mark.slow
class TestSchedulerLevelEquivalence:
    @given(tiny_scheduling_dags())
    @settings(max_examples=4, deadline=None)
    def test_bsp_ilp_scheduler_costs_agree_across_backends(self, dag):
        from repro.bsp.cost import bsp_cost
        from repro.bsp.ilp import BspIlpConfig, IlpBspScheduler

        costs = {}
        for backend in ALL_BACKENDS:
            scheduler = IlpBspScheduler(
                BspIlpConfig(solver_options=EXACT, backend=backend)
            )
            schedule = scheduler.schedule(dag, num_processors=2, g=1.0, L=2.0)
            schedule.validate()
            costs[backend] = bsp_cost(schedule, g=1.0, L=2.0)
        reference = costs[ALL_BACKENDS[0]]
        assert all(
            cost == pytest.approx(reference, abs=1e-6) for cost in costs.values()
        ), f"BSP ILP cost disagreement: {costs}"

    @given(tiny_scheduling_dags())
    @settings(max_examples=3, deadline=None)
    def test_full_mbsp_scheduler_costs_agree_across_backends(self, dag):
        from repro.core.full_ilp import MbspIlpConfig
        from repro.core.scheduler import MbspIlpScheduler
        from repro.model.instance import make_instance
        from repro.model.validation import validate_schedule

        instance = make_instance(dag, num_processors=1, cache_factor=4.0, g=1.0, L=5.0)
        costs = {}
        for backend in ALL_BACKENDS:
            config = MbspIlpConfig(
                synchronous=True,
                max_steps=4,
                solver_options=EXACT,
                backend=backend,
            )
            result = MbspIlpScheduler(config).schedule(instance)
            validate_schedule(result.best_schedule, require_all_computed=False)
            costs[backend] = result.best_cost
        reference = costs[ALL_BACKENDS[0]]
        assert all(
            cost == pytest.approx(reference, abs=1e-6) for cost in costs.values()
        ), f"full MBSP ILP cost disagreement: {costs}"
