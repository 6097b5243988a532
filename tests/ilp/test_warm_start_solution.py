"""True warm-start solutions (not just objective bounds) in the backends."""

import numpy as np
import pytest

from repro.ilp import (
    IlpModel,
    SolutionStatus,
    SolverOptions,
    solve_with_branch_and_bound,
    solve_with_scipy,
)


def _model():
    """min x + y  s.t.  x + y >= 3,  x, y integer in [0, 5]; optimum 3."""
    model = IlpModel("warm-start")
    xy = model.add_variables("xy", 2, lower=0, upper=5, is_integer=True)
    model.add_rows([xy], 1.0, lower=3)
    model.minimize(xy, 1.0)
    return model


class TestCompiledFeasibility:
    def test_feasible_and_infeasible_assignments(self):
        compiled = _model().compile()
        assert compiled.is_feasible([1, 2])
        assert compiled.is_feasible([2.0000001, 2])     # within tolerance
        assert not compiled.is_feasible([0, 0])          # violates the row
        assert not compiled.is_feasible([1.5, 2])        # fractional integer
        assert not compiled.is_feasible([6, 0])          # violates the bound
        assert not compiled.is_feasible([1, 2, 3])       # wrong arity
        assert compiled.objective_value(np.array([1.0, 2.0])) == pytest.approx(3.0)


class TestBranchAndBoundWarmSolution:
    def test_warm_solution_is_improved_when_possible(self):
        solution = solve_with_branch_and_bound(
            _model(), SolverOptions(warm_start_solution=[2, 2])
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)

    def test_optimal_warm_solution_is_returned_as_proven_optimal(self):
        solution = solve_with_branch_and_bound(
            _model(), SolverOptions(warm_start_solution=[1, 2])
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert "warm-start solution proven optimal" in solution.message

    def test_zero_node_limit_returns_the_warm_solution_unimproved(self):
        """The crucial difference to warm_start_objective: with no search
        budget at all the solve still *returns a solution* (the warm one)."""
        solution = solve_with_branch_and_bound(
            _model(), SolverOptions(warm_start_solution=[2, 2], node_limit=0)
        )
        assert solution.status is SolutionStatus.FEASIBLE
        assert solution.objective == pytest.approx(4.0)
        assert solution.values is not None
        assert "warm-start solution kept" in solution.message
        # objective-only warm start finds nothing under the same budget
        bound_only = solve_with_branch_and_bound(
            _model(), SolverOptions(warm_start_objective=4.0, node_limit=0)
        )
        assert bound_only.status is SolutionStatus.NO_SOLUTION

    def test_infeasible_warm_solution_is_ignored(self):
        solution = solve_with_branch_and_bound(
            _model(), SolverOptions(warm_start_solution=[0, 0])
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            solve_with_branch_and_bound(
                _model(), SolverOptions(warm_start_solution=[1, 2, 3])
            )

    def test_tighter_external_objective_keeps_solution_as_fallback(self):
        """An explicit bound tighter than the solution's own objective (the
        scheduler injects the baseline cost like this) prunes the search but
        must not crash — the solution stays as the fallback incumbent, and
        the result is not claimed optimal."""
        solution = solve_with_branch_and_bound(
            _model(),
            SolverOptions(warm_start_solution=[2, 2], warm_start_objective=1.0),
        )
        assert solution.status is SolutionStatus.FEASIBLE
        assert solution.objective == pytest.approx(4.0)
        assert "warm-start solution kept" in solution.message

    def test_solution_beats_looser_explicit_objective(self):
        solution = solve_with_branch_and_bound(
            _model(),
            SolverOptions(warm_start_solution=[1, 2], warm_start_objective=5.0),
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)


class TestScipyWarmSolution:
    def test_solution_derives_the_objective_cutoff(self):
        solution = solve_with_scipy(
            _model(), SolverOptions(warm_start_solution=[2, 2])
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)

    def test_infeasible_solution_is_ignored_and_noted(self):
        solution = solve_with_scipy(
            _model(), SolverOptions(warm_start_solution=[0, 0])
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert "warm-start solution rejected" in solution.message

    def test_wrong_arity_raises_like_branch_and_bound(self):
        with pytest.raises(ValueError):
            solve_with_scipy(_model(), SolverOptions(warm_start_solution=[1, 2, 3]))

    def test_explicit_objective_takes_precedence(self):
        solution = solve_with_scipy(
            _model(),
            SolverOptions(warm_start_solution=[2, 2], warm_start_objective=10.0),
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
