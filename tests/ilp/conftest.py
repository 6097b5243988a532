"""Models shared by the ILP backend tests."""

import numpy as np
import pytest

from repro.ilp import IlpModel


@pytest.fixture
def market_split():
    """A small, infeasible market-split instance (m=3, n=20, seed 7).

    Trivially sized knapsacks solve in HiGHS's presolve without ever
    polling the MIP-interrupt callback.  This one branches (thousands of
    polls, 3,501 HiGHS nodes) yet finishes in about a second, and neither
    backend has an incumbent at its root.
    """
    rng = np.random.RandomState(7)
    weights = rng.randint(0, 100, (3, 20))
    targets = weights.sum(axis=1) // 2
    model = IlpModel("market-split")
    x = model.add_variables("x", 20, 0, 1, is_integer=True)
    model.add_rows(np.tile(x, (3, 1)), weights, lower=targets, upper=targets)
    model.minimize(x, 1.0)
    return model
