"""Unit tests for the ILP model container and the solver backends."""

import numpy as np
import pytest

from repro.ilp import (
    IlpModel,
    Sense,
    SolutionStatus,
    SolverOptions,
    lin_sum,
    solve,
    solve_with_branch_and_bound,
    solve_with_scipy,
)

BACKENDS = ["scipy", "bnb"]


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8, binary -> optimum 14 (x0, x2)."""
    model = IlpModel("knapsack")
    x = [model.add_binary(f"x{i}") for i in range(3)]
    model.add_constraint(5 * x[0] + 4 * x[1] + 3 * x[2] <= 8)
    model.maximize(10 * x[0] + 6 * x[1] + 4 * x[2])
    return model, x


class TestModelConstruction:
    def test_variable_kinds_counted(self):
        model = IlpModel()
        model.add_binary("b")
        model.add_integer("i", 0, 10)
        model.add_continuous("c", 0, 1)
        stats = model.statistics()
        assert stats["variables"] == 3
        assert stats["integers"] == 2
        assert stats["continuous"] == 1

    def test_add_constraint_type_checked(self):
        model = IlpModel()
        with pytest.raises(Exception):
            model.add_constraint("not a constraint")

    def test_compile_shapes(self):
        model, x = knapsack_model()
        compiled = model.compile()
        assert compiled.A.shape == (1, 3)
        assert compiled.c.shape == (3,)
        assert list(compiled.integrality) == [1, 1, 1]
        # maximization compiles to negated costs
        assert compiled.c[0] == -10

    def test_compile_folds_constants_into_bounds(self):
        model = IlpModel()
        x = model.add_continuous("x", 0, 10)
        model.add_constraint(x + 5 <= 8)
        compiled = model.compile()
        assert compiled.con_ub[0] == pytest.approx(3.0)

    def test_nonzeros_statistic_matches_the_compiled_matrix(self):
        """Explicit zero coefficients are not stored, so they are not counted."""
        model = IlpModel()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(0 * x + y <= 1)
        assert model.compile().A.nnz == 1
        assert model.statistics()["nonzeros"] == 1

    def test_add_rows_appends_a_block_after_single_rows(self):
        model = IlpModel()
        xs = model.add_variables("x", 3, 0.0, 1.0, True)
        z = model.add_continuous("z", 0, 5)
        model.add_constraint(z + 1 <= 4)
        model.add_rows(
            [[xs[0], xs[1], z.index], [xs[2], -1, xs[1]]],
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
        assert [v.name for v in model.variables] == ["x", "x", "x", "z"]
        assert len(model.constraints) == 1  # block rows carry no Constraint

    def test_add_rows_rejects_unknown_columns(self):
        model = IlpModel()
        model.add_variables("x", 2)
        with pytest.raises(Exception):
            model.add_rows([[0, 2]], [[1.0, 1.0]], upper=1.0)

    def test_objective_constant_preserved(self):
        model = IlpModel()
        x = model.add_continuous("x", 0, 10)
        model.add_constraint(x >= 2)
        model.minimize(x + 7)
        solution = solve_with_scipy(model)
        assert solution.objective == pytest.approx(9.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_knapsack_optimum(self, backend):
        model, x = knapsack_model()
        solution = solve(model, SolverOptions(time_limit=10), backend=backend)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert solution.value(x[0]) == pytest.approx(1.0)
        assert solution.value(x[2]) == pytest.approx(1.0)

    def test_infeasible_detected(self, backend):
        model = IlpModel()
        x = model.add_binary("x")
        model.add_constraint(x >= 1)
        model.add_constraint(x <= 0)
        solution = solve(model, SolverOptions(time_limit=5), backend=backend)
        assert solution.status in (SolutionStatus.INFEASIBLE, SolutionStatus.NO_SOLUTION)
        assert not solution.has_solution

    def test_equality_constraints(self, backend):
        model = IlpModel()
        x = model.add_integer("x", 0, 10)
        y = model.add_integer("y", 0, 10)
        model.add_constraint(x + y == 7)
        model.add_constraint(x - y == 1)
        model.minimize(x)
        solution = solve(model, SolverOptions(time_limit=5), backend=backend)
        assert solution.value(x) == pytest.approx(4)
        assert solution.value(y) == pytest.approx(3)

    def test_expression_value_accessor(self, backend):
        model, x = knapsack_model()
        solution = solve(model, SolverOptions(time_limit=5), backend=backend)
        total_weight = solution.value(lin_sum([5 * x[0], 4 * x[1], 3 * x[2]]))
        assert total_weight <= 8 + 1e-6


class TestBranchAndBoundSpecifics:
    def test_pure_lp_is_solved_without_branching(self):
        model = IlpModel()
        x = model.add_continuous("x", 0, 4)
        y = model.add_continuous("y", 0, 4)
        model.add_constraint(x + y >= 3)
        model.minimize(2 * x + y)
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

    def test_binary_value_helper(self):
        model, x = knapsack_model()
        solution = solve_with_scipy(model)
        assert solution.binary_value(x[0]) is True

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
