"""Unit tests for the ILP model container and the solver backends."""

import doctest

import numpy as np
import pytest

import repro.ilp.model
from repro.exceptions import IlpError
from repro.ilp import (
    IlpModel,
    SolutionStatus,
    SolverOptions,
    solve,
    solve_with_branch_and_bound,
    solve_with_scipy,
)

BACKENDS = ["scipy", "bnb"]


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8, binary -> optimum 14 (x0, x2)."""
    model = IlpModel("knapsack")
    x = model.add_variables("x", 3, 0, 1, is_integer=True)
    model.add_rows([x], [[5, 4, 3]], upper=8)
    model.maximize(x, [10, 6, 4])
    return model, x


class TestModelConstruction:
    def test_variable_kinds_counted(self):
        model = IlpModel()
        model.add_variables("b", 1, 0, 1, is_integer=True)
        model.add_variables("i", 1, 0, 10, is_integer=True)
        model.add_variables("c", 1, 0, 1)
        stats = model.statistics()
        assert stats["variables"] == 3
        assert stats["integers"] == 2
        assert stats["continuous"] == 1

    def test_compile_shapes(self):
        model, x = knapsack_model()
        compiled = model.compile()
        assert compiled.A.shape == (1, 3)
        assert compiled.c.shape == (3,)
        assert list(compiled.integrality) == [1, 1, 1]
        # maximization compiles to negated costs
        assert compiled.c[0] == -10

    def test_nonzeros_statistic_matches_the_compiled_matrix(self):
        """Explicit zero coefficients are not stored, so they are not counted."""
        model = IlpModel()
        x, y = model.add_variables("x", 2, 0, 10)
        model.add_rows([[x, y]], [[0.0, 1.0]], upper=1)
        assert model.compile().A.nnz == 1
        assert model.statistics()["nonzeros"] == 1

    def test_add_rows_appends_a_block_after_single_rows(self):
        model = IlpModel()
        xs = model.add_variables("x", 3, 0.0, 1.0, True)
        z = model.add_variables("z", 1, 0, 5)[0]
        model.add_rows([[z]], 1.0, upper=3.0)
        model.add_rows(
            [[xs[0], xs[1], z], [xs[2], -1, xs[1]]],
            [[1.0, 0.0, -2.0], [3.0, 0.0, 1.0]],
            lower=[-np.inf, 1.0],
            upper=[0.5, np.inf],
        )
        compiled = model.compile()
        assert model.num_constraints == 3
        assert model.statistics()["nonzeros"] == compiled.A.nnz == 5
        assert compiled.A.toarray().tolist() == [
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -2.0],
            [0.0, 1.0, 3.0, 0.0],
        ]
        assert compiled.con_lb.tolist() == [-np.inf, -np.inf, 1.0]
        assert compiled.con_ub.tolist() == [3.0, 0.5, np.inf]
        assert compiled.integrality.tolist() == [1, 1, 1, 0]

    def test_add_rows_rejects_unknown_columns(self):
        model = IlpModel()
        model.add_variables("x", 2)
        with pytest.raises(Exception):
            model.add_rows([[0, 2]], [[1.0, 1.0]], upper=1.0)

    def test_compile_rejects_a_column_named_twice_in_one_row(self):
        """A repeated column would make HiGHS report a model error, which the
        scipy backend reads as an infeasible model."""
        model = IlpModel()
        model.add_variables("x", 1, 0, 10, is_integer=True)
        model.add_rows([[0], [0]], 1.0, upper=3.0)  # adjacent rows may share it
        model.maximize([0], [1.0])
        assert model.compile().A.nnz == 2
        model.add_rows([[0, 0]], [[1.0, 1.0]], upper=3.0)
        with pytest.raises(IlpError, match="row 2 names column 0"):
            model.compile()

    @pytest.mark.parametrize("sense", ["minimize", "maximize"])
    def test_objective_rejects_unknown_and_repeated_columns(self, sense):
        model = IlpModel()
        model.add_variables("x", 2)
        set_objective = getattr(model, sense)
        for cols in ([-1], [2], [0, 1, 0]):
            with pytest.raises(IlpError):
                set_objective(cols, 1.0)

    def test_objective_constant_preserved(self):
        model = IlpModel()
        x = model.add_variables("x", 1, 0, 10)[0]
        model.add_rows([[x]], 1.0, lower=2)
        model.minimize([x], [1.0], constant=7)
        solution = solve_with_scipy(model)
        assert solution.objective == pytest.approx(9.0)

    def test_docstring_example_runs(self):
        results = doctest.testmod(repro.ilp.model)
        assert results.attempted > 0
        assert results.failed == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_knapsack_optimum(self, backend):
        model, x = knapsack_model()
        solution = solve(model, SolverOptions(time_limit=10), backend=backend)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert solution.values[x[0]] == pytest.approx(1.0)
        assert solution.values[x[2]] == pytest.approx(1.0)

    def test_infeasible_detected(self, backend):
        model = IlpModel()
        x = model.add_variables("x", 1, 0, 1, is_integer=True)[0]
        model.add_rows([[x], [x]], 1.0, lower=[1, -np.inf], upper=[np.inf, 0])
        solution = solve(model, SolverOptions(time_limit=5), backend=backend)
        assert solution.status in (SolutionStatus.INFEASIBLE, SolutionStatus.NO_SOLUTION)
        assert not solution.has_solution

    def test_equality_constraints(self, backend):
        model = IlpModel()
        x, y = model.add_variables("xy", 2, 0, 10, is_integer=True)
        model.add_rows([[x, y], [x, y]], [[1, 1], [1, -1]], lower=[7, 1], upper=[7, 1])
        model.minimize([x], [1.0])
        solution = solve(model, SolverOptions(time_limit=5), backend=backend)
        assert solution.values[x] == pytest.approx(4)
        assert solution.values[y] == pytest.approx(3)


class TestBranchAndBoundSpecifics:
    def test_pure_lp_is_solved_without_branching(self):
        model = IlpModel()
        x, y = model.add_variables("xy", 2, 0, 4)
        model.add_rows([[x, y]], 1.0, lower=3)
        model.minimize([x, y], [2, 1])
        solution = solve_with_branch_and_bound(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert solution.node_count == 1

    def test_node_limit_respected(self):
        model, _ = knapsack_model()
        solution = solve_with_branch_and_bound(
            model, SolverOptions(time_limit=10, node_limit=1)
        )
        # one node is not enough to prove optimality of a fractional knapsack
        assert solution.node_count <= 1

    def test_solution_as_dict(self):
        model, _ = knapsack_model()
        solution = solve_with_scipy(model)
        info = solution.as_dict()
        assert info["status"] == "optimal"
        assert "solve_time" in info


class TestSolveDispatch:
    def test_unknown_backend(self):
        model, _ = knapsack_model()
        with pytest.raises(ValueError):
            solve(model, backend="gurobi")
