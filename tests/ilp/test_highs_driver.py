"""The HiGHS driver gives one answer per job.

:func:`solve_with_scipy` is the library's only MILP path.  Two properties
hold it in place:

* a :class:`CancelToken` in scope installs the interrupt callback and
  nothing else: an uncancelled solve returns the same status, vertex bytes,
  objective, node count and message with and without one;
* where ``scipy.optimize.milp`` (a test-local reference on the same
  formulation) reports a solution, the driver returns the same vertex
  bytes, objective and node count, and where milp reports infeasibility,
  so does the driver.

The models are small random MILPs and LPs (every row kind, both senses,
node limits None/0/1/2/5, with and without a cutoff) and MBSP ILPs of the
tiny dataset at P = 2 with five steps.  The first MBSP model runs in tier
1, the other three under ``slow``.  At job level, an ``ilp`` member at
node limit 0 has the same fingerprint inside a token scope and outside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.full_ilp import MbspIlpBuilder, MbspIlpConfig
from repro.core.two_stage import baseline_schedule
from repro.experiments.datasets import tiny_dataset
from repro.experiments.runner import ExperimentConfig
from repro.ilp import (
    INF,
    CancelToken,
    IlpModel,
    Sense,
    SolutionStatus,
    SolverOptions,
    cancel_scope,
    solve_with_scipy,
)
from repro.portfolio import run_member

NODE_LIMITS = (None, 0, 1, 2, 5)
SEEDS = range(30)


def random_model(seed: int) -> IlpModel:
    """A small random model: every fifth seed an LP, the rest MILPs over
    bounded integers.  Rows cycle through <=, >=, two-sided and equality."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    model = IlpModel(f"random-{seed}")
    x = np.asarray(
        model.add_variables("x", n, 0, int(rng.integers(1, 4)), is_integer=seed % 5 != 0)
    )
    for i in range(int(rng.integers(2, 5))):
        coeffs = rng.integers(1, 30, n) * rng.choice([1, 1, 1, -1], n)
        total = int(np.abs(coeffs).sum())
        rhs = int(rng.integers(total // 4, total // 2 + 1))
        kind = (seed + i) % 4
        if kind == 0:
            model.add_rows([x], [coeffs], upper=rhs)
        elif kind == 1:
            model.add_rows([x], [coeffs], lower=rhs)
        elif kind == 2:
            model.add_rows([x], [coeffs], lower=rhs - int(rng.integers(0, 4)), upper=rhs)
        else:
            model.add_rows([x], [coeffs], lower=rhs, upper=rhs)
    objective = rng.integers(-10, 11, n)
    if rng.integers(2):
        model.maximize(x, objective)
    else:
        model.minimize(x, objective)
    return model


def unbounded_model() -> IlpModel:
    """A MILP HiGHS proves unbounded (status ``kUnbounded``, not presolve's
    ``kUnboundedOrInfeasible``) after finding an integer point."""
    model = IlpModel("unbounded")
    x = model.add_variables("x", 4, 0, INF, is_integer=True)
    model.add_rows([x, x], [[5, 9, -9, -7], [9, -5, -4, 7]], upper=[16, 9])
    model.maximize(x, [-1, 4, -1, 0])
    return model


def option_grid(model: IlpModel):
    """Every node limit, without a cutoff and (for a model with an
    optimum) with its optimum as the warm-start cutoff."""
    optimum = solve_with_scipy(model, SolverOptions(time_limit=30.0))
    warm = [None] + ([optimum.objective] if optimum.has_solution else [])
    for node_limit in NODE_LIMITS:
        for objective in warm:
            yield SolverOptions(
                time_limit=30.0, node_limit=node_limit, warm_start_objective=objective
            )


def answer(solution):
    """What a job's result is made of, with the vertex as bytes."""
    values = None if solution.values is None else solution.values.tobytes()
    return (
        solution.status,
        values,
        solution.objective,
        solution.node_count,
        solution.message,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_token_does_not_change_the_answer(seed):
    model = random_model(seed)
    for options in option_grid(model):
        plain = solve_with_scipy(model, options)
        with cancel_scope(CancelToken()):
            scoped = solve_with_scipy(model, options)
        assert answer(scoped) == answer(plain), options
        assert plain.node_count >= 0
        assert plain.has_solution == (plain.values is not None)


def test_unbounded_model_returns_no_values():
    model = unbounded_model()
    plain = solve_with_scipy(model)
    with cancel_scope(CancelToken()):
        scoped = solve_with_scipy(model)
    assert plain.status is SolutionStatus.UNBOUNDED
    assert plain.values is None and plain.objective is None
    assert answer(scoped) == answer(plain)


@pytest.mark.parametrize("member", ["ilp", "bspg+clairvoyant|refine|ilp"])
def test_node_limit_zero_job_gives_one_answer(member):
    """The same job inside a race or budget scope and outside one."""
    config = ExperimentConfig(
        name="one-answer", ilp_node_limit=0, ilp_backend="scipy", ilp_time_limit=60.0
    )
    for dag in tiny_dataset(limit=2):
        plain = run_member(dag, config, member)
        with cancel_scope(CancelToken()):
            scoped = run_member(dag, config, member)
        assert plain.solver_status == "no_solution"
        assert scoped.fingerprint() == plain.fingerprint()


def milp_reference(model: IlpModel, options: SolverOptions):
    """``scipy.optimize.milp`` on the formulation the driver passes HiGHS:
    the compiled rows, the column bounds and, with a warm start, the
    cutoff row ``c @ x <= cutoff``."""
    from scipy import optimize, sparse

    compiled = model.compile()
    constraints = [
        optimize.LinearConstraint(compiled.A.tocsr(), compiled.con_lb, compiled.con_ub)
    ]
    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0
    if options.warm_start_objective is not None:
        cutoff = sign * (options.warm_start_objective - compiled.objective_constant)
        cutoff += 1e-6 * max(1.0, abs(cutoff))
        cut_row = sparse.csr_matrix(compiled.c.reshape(1, -1))
        constraints.append(optimize.LinearConstraint(cut_row, -np.inf, cutoff))
    milp_options = {"disp": False, "mip_rel_gap": options.mip_rel_gap}
    if options.time_limit is not None:
        milp_options["time_limit"] = float(options.time_limit)
    if options.node_limit is not None:
        milp_options["node_limit"] = int(options.node_limit)
    result = optimize.milp(
        c=compiled.c,
        constraints=constraints,
        bounds=optimize.Bounds(compiled.var_lb, compiled.var_ub),
        integrality=compiled.integrality,
        options=milp_options,
    )
    objective = None
    if result.x is not None:
        objective = sign * float(compiled.c @ result.x) + compiled.objective_constant
    return result, objective


def assert_matches_milp(model: IlpModel, options: SolverOptions) -> bool:
    """Check the driver, plain and under a token, against milp wherever
    milp reports a solution or infeasibility; whether it reported one."""
    reference, objective = milp_reference(model, options)
    plain = solve_with_scipy(model, options)
    with cancel_scope(CancelToken()):
        scoped = solve_with_scipy(model, options)
    for solution in (plain, scoped):
        if reference.x is not None:
            assert solution.has_solution, options
            assert solution.values.tobytes() == reference.x.tobytes(), options
            assert solution.objective == objective, options
            # milp reports no node count for an LP
            assert solution.node_count == (reference.mip_node_count or 0), options
        elif reference.status == 2:
            assert solution.status is SolutionStatus.INFEASIBLE, options
            assert solution.values is None
    return reference.x is not None or reference.status == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_driver_matches_milp_on_random_models(seed):
    model = random_model(seed)
    compared = [assert_matches_milp(model, options) for options in option_grid(model)]
    assert any(compared)


#: the first four tiny-dataset DAGs, the cheapest MBSP model first
MBSP_NAMES = ["k-means", "bicgstab", "pregel", "spmv_N6"]


def mbsp_model(name: str):
    """The MBSP ILP of tiny-dataset DAG ``name`` at P = 2 with five steps,
    and its baseline cost."""
    config = ExperimentConfig(name="highs-driver", num_processors=2)
    (dag,) = [dag for dag in tiny_dataset(limit=4) if dag.name == name]
    instance = config.instance_for(dag)
    baseline = baseline_schedule(instance, synchronous=True)
    model, _ = MbspIlpBuilder(instance, MbspIlpConfig(synchronous=True)).build(5)
    return model, baseline.cost


@pytest.mark.parametrize(
    "name",
    MBSP_NAMES[:1] + [pytest.param(name, marks=pytest.mark.slow) for name in MBSP_NAMES[1:]],
)
def test_driver_matches_milp_on_mbsp_models(name):
    model, baseline_cost = mbsp_model(name)
    for node_limit in (1, 3):
        for warm in (None, baseline_cost):
            options = SolverOptions(
                time_limit=120.0, node_limit=node_limit, warm_start_objective=warm
            )
            assert assert_matches_milp(model, options), options
