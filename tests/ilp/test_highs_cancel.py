"""Mid-solve cancellation of the HiGHS driver.

With a :class:`CancelToken` in scope, :func:`solve_with_scipy` installs
HiGHS's MIP-interrupt callback, which polls the token; a cancelled solve
stops at the next branch-and-bound poll point and says so in its message.
Around the callback, a scope that is already cancelled refuses to dispatch
at all.
"""

import pytest

from repro.ilp import IlpModel, SolutionStatus, SolverOptions, solve_with_scipy
from repro.ilp.cancellation import CancelToken, cancel_scope

CANCELLED = "cancelled by CancelToken mid-solve"


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8 -> optimum 14."""
    model = IlpModel("knapsack")
    x = model.add_variables("x", 3, 0, 1, is_integer=True)
    model.add_rows([x], [[5, 4, 3]], upper=8)
    model.maximize(x, [10, 6, 4])
    return model


class TripAfterPolls(CancelToken):
    """Reports cancelled from poll ``polls_before_trip + 1`` on.

    The driver polls once before dispatch; every later poll comes from
    the MIP-interrupt callback.  With a model that enters branch and
    bound, the callback is polled many times, so this token makes the
    mid-solve cancellation path deterministic without wall-clock races.
    """

    def __init__(self, polls_before_trip):
        super().__init__()
        self.polls_before_trip = polls_before_trip
        self.polls = 0

    def cancelled(self):
        self.polls += 1
        return self.polls > self.polls_before_trip


def solve_in_scope(model, token, **options):
    with cancel_scope(token):
        return solve_with_scipy(model, SolverOptions(**options))


class TestDirectSolve:
    def test_uncancelled_solve_is_optimal(self):
        model = knapsack_model()
        result = solve_in_scope(model, CancelToken())
        assert result.status is SolutionStatus.OPTIMAL
        assert CANCELLED not in result.message
        # compiled space is minimization with negated costs: -14 == max 14
        assert model.compile().c @ result.values == pytest.approx(-14.0)
        assert result.objective == pytest.approx(14.0)

    def test_matches_plain_backend_objective(self):
        model = knapsack_model()
        plain = solve_with_scipy(model)
        with cancel_scope(CancelToken()):
            with_token = solve_with_scipy(model)
        assert with_token.status == plain.status == SolutionStatus.OPTIMAL
        assert with_token.objective == pytest.approx(plain.objective)

    def test_cutoff_row_prunes_like_milp_path(self):
        # a cutoff above the optimum (max 14) makes the model infeasible
        result = solve_in_scope(
            knapsack_model(), CancelToken(), warm_start_objective=15.0
        )
        assert result.status is SolutionStatus.INFEASIBLE
        assert not result.has_solution

    def test_mid_solve_cancellation_is_deterministic(self, market_split):
        # the pre-dispatch check and the first callback poll pass, the
        # second callback poll trips
        token = TripAfterPolls(2)
        result = solve_in_scope(market_split, token, time_limit=60.0)
        assert token.polls >= 3  # the callback really was consulted
        assert result.status in (SolutionStatus.NO_SOLUTION, SolutionStatus.FEASIBLE)
        assert CANCELLED in result.message

    def test_cancelled_already_token_stops_at_first_poll(self, market_split):
        # cancelled right after dispatch: the first callback poll trips
        token = TripAfterPolls(1)
        result = solve_in_scope(market_split, token, time_limit=60.0)
        assert token.polls >= 2
        assert result.status in (SolutionStatus.NO_SOLUTION, SolutionStatus.FEASIBLE)
        assert CANCELLED in result.message


class TestBackendFallback:
    """The coarse hook around the callback: no dispatch once cancelled."""

    def test_pre_cancelled_scope_refuses_dispatch(self):
        token = CancelToken()
        token.cancel("budget exhausted")
        with cancel_scope(token):
            solution = solve_with_scipy(knapsack_model())
        assert solution.status == SolutionStatus.NO_SOLUTION
        assert "cancelled before dispatch" in solution.message
