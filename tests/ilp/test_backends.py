"""Tests for the pluggable ILP backend registry (repro.ilp.backends)."""

import math

import pytest

from repro import obs
from repro.exceptions import ConfigurationError
from repro.ilp import (
    ENV_BACKEND,
    FunctionBackend,
    IlpModel,
    SolutionStatus,
    SolverOptions,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
    solve,
)
from repro.ilp.backends import AUTO_BNB_MAX_INTEGERS, _ALIASES, _REGISTRY


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8, binary -> optimum 14."""
    model = IlpModel("knapsack")
    x = model.add_variables("x", 3, 0, 1, is_integer=True)
    model.add_rows([x], [[5, 4, 3]], upper=8)
    model.maximize(x, [10, 6, 4])
    return model, x


def big_model(num_binaries=AUTO_BNB_MAX_INTEGERS + 5):
    """A model too large for auto's pure-Python routing threshold."""
    model = IlpModel("big")
    xs = model.add_variables("x", num_binaries, 0, 1, is_integer=True)
    model.add_rows([xs], 1.0, upper=num_binaries // 2)
    model.maximize(xs, 1.0)
    return model


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"scipy", "bnb", "auto"}

    def test_aliases_resolve_to_canonical(self):
        assert get_backend("highs").name == "scipy"
        assert get_backend("branch_and_bound").name == "bnb"
        assert get_backend("branch-and-bound").name == "bnb"
        assert get_backend("SCIPY").name == "scipy"  # case-insensitive

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown ILP backend"):
            get_backend("gurobi")
        with pytest.raises(ValueError):
            resolve_backend_name("copt")

    def test_resolve_none_uses_default(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend_name(None) == "scipy"
        assert resolve_backend_name("") == "scipy"

    def test_register_custom_backend(self):
        calls = []

        def fake_solve(model, options=None):
            calls.append(model.name)
            return solve(model, options, backend="scipy")

        register_backend(FunctionBackend("fake", fake_solve), aliases=("phony",))
        try:
            model, _ = knapsack_model()
            solution = solve(model, backend="phony")
            assert solution.objective == pytest.approx(14.0)
            assert calls == ["knapsack"]
        finally:
            _REGISTRY.pop("fake", None)
            _ALIASES.pop("phony", None)

    def test_alias_cannot_shadow_backend(self):
        with pytest.raises(ValueError, match="shadow"):
            register_backend(
                FunctionBackend("scipy", lambda m, o=None: None), aliases=("bnb",)
            )

    def test_name_cannot_collide_with_existing_alias(self):
        # "highs" is an alias of scipy; a backend *named* highs would be
        # silently shadowed because get_backend resolves aliases first
        with pytest.raises(ValueError, match="already an alias"):
            register_backend(FunctionBackend("highs", lambda m, o=None: None))
        assert get_backend("highs").name == "scipy"

    def test_alias_cannot_repoint_another_backends_alias(self):
        with pytest.raises(ValueError, match="already points"):
            register_backend(
                FunctionBackend("mybackend", lambda m, o=None: None),
                aliases=("highs",),
            )
        assert "mybackend" not in available_backends()  # registry untouched


class TestEnvironmentDefault:
    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "bnb")
        assert default_backend() == "bnb"
        monkeypatch.setenv(ENV_BACKEND, "branch_and_bound")  # aliases work too
        assert default_backend() == "bnb"

    def test_unknown_env_backend_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "gurobi")
        with pytest.warns(UserWarning, match="unknown ILP backend 'gurobi'"):
            assert default_backend() == "scipy"

    def test_empty_env_value_is_default(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "  ")
        assert default_backend() == "scipy"

    def test_solve_uses_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "bnb")
        model, _ = knapsack_model()
        solution = solve(model, SolverOptions(time_limit=10))
        assert solution.objective == pytest.approx(14.0)
        assert "branch-and-bound" in solution.message


class TestAutoBackend:
    def test_small_models_route_to_bnb(self):
        model, _ = knapsack_model()
        assert get_backend("auto").choose(model) == "bnb"
        solution = solve(model, SolverOptions(time_limit=10), backend="auto")
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert solution.message.startswith("auto[bnb]")

    def test_large_models_route_to_scipy(self):
        model = big_model()
        assert get_backend("auto").choose(model) == "scipy"
        solution = solve(model, SolverOptions(time_limit=10), backend="auto")
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.message.startswith("auto[scipy]")


class TestSolveMeter:
    def test_dispatch_counts_calls_per_backend(self):
        model, _ = knapsack_model()
        with obs.Meter() as meter:
            solve(model, SolverOptions(time_limit=10), backend="scipy")
            solve(model, SolverOptions(time_limit=10), backend="scipy")
            solve(model, SolverOptions(time_limit=10), backend="bnb")
        assert [backend for backend, _ in meter.solves] == ["scipy", "scipy", "bnb"]
        assert all(seconds > 0 for _, seconds in meter.solves)
        assert meter.solver_time <= meter.wall_time

    def test_nested_meters_both_count_and_a_bare_solve_counts_nowhere(self):
        model, _ = knapsack_model()
        with obs.Meter() as outer:
            with obs.Meter() as inner:
                solve(model, SolverOptions(time_limit=10), backend="bnb")
            solve(model, SolverOptions(time_limit=10), backend="bnb")
        solve(model, SolverOptions(time_limit=10), backend="bnb")
        assert inner.solver_calls == 1
        assert outer.solver_calls == 2
        assert outer.solves[0] == inner.solves[0]


BACKENDS = ["scipy", "bnb"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestLimitSemantics:
    """node_limit/time_limit semantics aligned across backends."""

    def test_no_limits_means_unlimited_and_optimal(self, backend):
        model, _ = knapsack_model()
        solution = solve(
            model, SolverOptions(time_limit=None, node_limit=None), backend=backend
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_zero_node_limit_explores_no_nodes(self, backend):
        model, _ = knapsack_model()
        solution = solve(
            model, SolverOptions(time_limit=10, node_limit=0), backend=backend
        )
        # neither backend may branch; HiGHS presolve/root heuristics can
        # still produce (and prove) an incumbent, the transparent solver
        # reports that it found nothing
        assert solution.node_count == 0
        if backend == "bnb":
            assert solution.status is SolutionStatus.NO_SOLUTION
            assert not solution.has_solution

    def test_zero_node_limit_without_incumbent_is_no_solution(self, backend, market_split):
        # market split branches: HiGHS has no incumbent at its root, so a
        # node limit of 0 stops both backends with nothing to return
        solution = solve(
            market_split, SolverOptions(time_limit=30, node_limit=0), backend=backend
        )
        assert solution.status is SolutionStatus.NO_SOLUTION
        assert solution.node_count == 0
        assert solution.values is None and solution.objective is None

    def test_negative_node_limit_is_rejected(self, backend):
        model, _ = knapsack_model()
        with pytest.raises(ConfigurationError, match="node_limit must be None or >= 0"):
            solve(model, SolverOptions(time_limit=10, node_limit=-1), backend=backend)

    def test_zero_time_limit_returns_no_solution(self, backend):
        model, _ = knapsack_model()
        solution = solve(
            model, SolverOptions(time_limit=0.0, node_limit=None), backend=backend
        )
        assert solution.status is SolutionStatus.NO_SOLUTION
        assert not solution.has_solution

    def test_generous_node_limit_reaches_optimality(self, backend):
        model, _ = knapsack_model()
        solution = solve(
            model, SolverOptions(time_limit=30, node_limit=10_000), backend=backend
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)


class TestWarmStart:
    def test_bnb_proves_warm_start_unbeatable(self):
        model, _ = knapsack_model()
        solution = solve(
            model,
            SolverOptions(time_limit=10, warm_start_objective=14.0),
            backend="bnb",
        )
        assert solution.status is SolutionStatus.NO_SOLUTION
        assert "warm start" in solution.message

    def test_bnb_improves_on_weaker_warm_start(self):
        model, _ = knapsack_model()
        solution = solve(
            model,
            SolverOptions(time_limit=10, warm_start_objective=13.0),
            backend="bnb",
        )
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_scipy_warm_start_cutoff_keeps_optimum_reachable(self):
        model, _ = knapsack_model()
        solution = solve(
            model,
            SolverOptions(time_limit=10, warm_start_objective=14.0),
            backend="scipy",
        )
        # the cutoff row admits solutions at least as good as the incumbent
        assert solution.has_solution
        assert solution.objective == pytest.approx(14.0)

    def test_warm_start_of_minimization_model(self):
        model = IlpModel("min")
        x, y = model.add_variables("xy", 2, 0, 10, is_integer=True)
        model.add_rows([[x, y]], 1.0, lower=7)
        model.minimize([x, y], [2, 1])  # optimum 7 at x=0, y=7
        for backend in BACKENDS:
            better = solve(
                model,
                SolverOptions(time_limit=10, warm_start_objective=9.0),
                backend=backend,
            )
            assert better.has_solution
            assert better.objective == pytest.approx(7.0)
        tight = solve(
            model, SolverOptions(time_limit=10, warm_start_objective=7.0), backend="bnb"
        )
        assert tight.status is SolutionStatus.NO_SOLUTION
