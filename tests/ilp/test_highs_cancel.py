"""Mid-solve cancellation through the scipy-vendored HiGHS binding.

The whole module is skipped when the private ``scipy.optimize._highspy``
binding is absent — the backend then falls back to plain ``optimize.milp``
and cancellation stays coarse (pre-dispatch refusal + clamped time limit),
which the last test pins regardless of the binding.
"""

import numpy as np
import pytest

from repro.ilp import IlpModel, SolutionStatus, solve_with_scipy
from repro.ilp.cancellation import CancelToken, cancel_scope
from repro.ilp.highs_cancel import (
    highs_cancellation_available,
    solve_with_highs_callback,
)

needs_highs = pytest.mark.skipif(
    not highs_cancellation_available(),
    reason="scipy-vendored HiGHS binding unavailable",
)


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8 -> optimum 14."""
    model = IlpModel("knapsack")
    x = model.add_variables("x", 3, 0, 1, is_integer=True)
    model.add_rows([x], [[5, 4, 3]], upper=8)
    model.maximize(x, [10, 6, 4])
    return model


def market_split_model(m=3, n=20, seed=7):
    """A small market-split instance: trivially sized knapsacks solve in
    presolve without ever polling the MIP-interrupt callback, this one is
    guaranteed to branch (thousands of polls) yet finishes in ~1s."""
    rng = np.random.RandomState(seed)
    weights = rng.randint(0, 100, (m, n))
    targets = weights.sum(axis=1) // 2
    model = IlpModel("market-split")
    x = model.add_variables("x", n, 0, 1, is_integer=True)
    model.add_rows(np.tile(x, (m, 1)), weights, lower=targets, upper=targets)
    model.minimize(x, 1.0)
    return model


class TripAfterFirstPoll(CancelToken):
    """Reports cancelled from the second poll on.

    With a model that enters branch and bound, the callback is polled
    many times, so this token makes the mid-solve cancellation path
    deterministic without wall-clock races.
    """

    def __init__(self):
        super().__init__()
        self.polls = 0

    def cancelled(self):
        self.polls += 1
        return self.polls > 1


@needs_highs
class TestDirectSolve:
    def test_uncancelled_solve_is_optimal(self):
        compiled = knapsack_model().compile()
        result = solve_with_highs_callback(compiled, CancelToken())
        assert result is not None
        assert result.status == 0  # optimize.milp code space: optimal
        assert not result.cancelled
        # compiled space is minimization with negated costs: -14 == max 14
        assert compiled.c @ result.x == pytest.approx(-14.0)

    def test_matches_plain_backend_objective(self):
        model = knapsack_model()
        plain = solve_with_scipy(model)
        with cancel_scope(CancelToken()):
            with_token = solve_with_scipy(model)
        assert with_token.status == plain.status == SolutionStatus.OPTIMAL
        assert with_token.objective == pytest.approx(plain.objective)

    def test_cutoff_row_prunes_like_milp_path(self):
        compiled = knapsack_model().compile()
        # cutoff below the optimum (-14) makes the model infeasible
        result = solve_with_highs_callback(
            compiled, CancelToken(), cutoff=-15.0
        )
        assert result is not None
        assert result.status == 2  # infeasible

    def test_mid_solve_cancellation_is_deterministic(self):
        compiled = market_split_model().compile()
        token = TripAfterFirstPoll()
        result = solve_with_highs_callback(compiled, token, time_limit=60.0)
        assert result is not None
        assert token.polls >= 2  # the callback really was consulted
        assert result.cancelled
        assert result.status == 1  # limit-like: interrupted
        assert "cancelled by CancelToken mid-solve" in result.message

    def test_cancelled_already_token_stops_at_first_poll(self):
        compiled = market_split_model().compile()
        token = CancelToken()
        token.cancel("race lost")
        result = solve_with_highs_callback(compiled, token, time_limit=60.0)
        assert result is not None
        assert result.cancelled
        assert result.status == 1  # limit-like: interrupted


class TestBackendFallback:
    def test_pre_cancelled_scope_refuses_dispatch(self):
        token = CancelToken()
        token.cancel("budget exhausted")
        with cancel_scope(token):
            solution = solve_with_scipy(knapsack_model())
        assert solution.status == SolutionStatus.NO_SOLUTION
        assert "cancelled before dispatch" in solution.message
