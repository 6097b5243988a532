"""ILP solver backend based on :func:`scipy.optimize.milp` (HiGHS).

This is the default backend of the library.  It plays the role of the COPT
commercial solver used in the paper: a branch-and-cut MILP solver applied to
exactly the same formulations, with configurable time limits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.ilp.model import IlpModel, Sense
from repro.ilp.solution import IlpSolution, SolutionStatus


@dataclass
class SolverOptions:
    """Options shared by all solver backends.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` for no limit).  Both backends
        treat ``None`` as unlimited and return the best incumbent (status
        ``FEASIBLE``) or ``NO_SOLUTION`` when the limit expires.
    mip_rel_gap:
        Relative optimality gap at which the solver may stop.
    verbose:
        Print solver progress output.
    node_limit:
        Branch-and-bound node limit (``None`` for no limit, ``0`` for no
        branching at all).  Both backends count branch-and-bound nodes, but
        HiGHS additionally runs presolve/root heuristics that may find (and
        even prove) an incumbent before the first node, so a node-limited
        scipy solve can still return ``OPTIMAL`` where the transparent
        pure-Python solver reports ``NO_SOLUTION``.
    warm_start_objective:
        Objective value of a known incumbent (in the *original* objective
        space, e.g. the greedy/ETF baseline cost), restricting the search to
        solutions at least as good.  The scipy backend adds an objective
        cutoff row: an equal-cost solution remains feasible (and may be
        returned as ``OPTIMAL``), while an unbeatable cutoff yields
        ``INFEASIBLE``.  The branch-and-bound backend uses it as the initial
        incumbent bound: only strictly better solutions are found, and a
        solve that cannot improve reports ``NO_SOLUTION``.  Either way a
        caller holding the incumbent keeps it whenever the returned solution
        is not strictly cheaper.
    warm_start_solution:
        A full variable assignment of a known feasible solution (model
        variable order).  The branch-and-bound backend verifies it against
        the compiled model and installs it as the *initial incumbent*: the
        solve can only improve on it, and exhausting the tree returns the
        warm solution itself (status ``OPTIMAL``) instead of
        ``NO_SOLUTION``.  The scipy backend cannot hand HiGHS a starting
        point through ``scipy.optimize.milp``; it derives the solution's
        objective value and applies it as the cutoff row (as if
        ``warm_start_objective`` had been passed).  An infeasible solution
        is ignored (recorded in the result message), never an error; a
        wrong-length one raises ``ValueError`` in both backends.  When both
        warm-start fields are given, the tighter of the two prunes the
        search while the solution remains the fallback incumbent (the
        branch-and-bound backend reports ``FEASIBLE`` instead of claiming
        optimality when a tighter external bound was in play).
    """

    time_limit: Optional[float] = 30.0
    mip_rel_gap: float = 1e-4
    verbose: bool = False
    node_limit: Optional[int] = None
    warm_start_objective: Optional[float] = None
    warm_start_solution: Optional[Sequence[float]] = None


def solve_with_scipy(model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
    """Solve ``model`` with ``scipy.optimize.milp`` and return an :class:`IlpSolution`."""
    from scipy import optimize, sparse

    from repro.ilp.cancellation import clamped_time_limit, current_cancel_token

    options = options or SolverOptions()
    compiled = model.compile()
    start = time.perf_counter()

    # cooperative cancellation: scipy.optimize.milp cannot be interrupted
    # once running, so the hook is coarse — refuse to start when the current
    # scope is already cancelled, and clamp the time limit to the scope's
    # remaining deadline so a wall-clock budget still bounds the solve
    token = current_cancel_token()
    if token is not None and token.cancelled():
        return IlpSolution(
            status=SolutionStatus.NO_SOLUTION,
            solve_time=0.0,
            message="solve cancelled before dispatch",
        )
    effective_time_limit = clamped_time_limit(options.time_limit)

    constraints = []
    if compiled.A.shape[0] > 0:
        constraints.append(
            optimize.LinearConstraint(compiled.A, compiled.con_lb, compiled.con_ub)
        )
    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0
    # cutoff candidates in compiled (minimization) space: the explicit
    # objective and/or a feasible warm-start solution's objective — the
    # tighter one prunes, matching the branch-and-bound backend
    cutoffs = []
    if options.warm_start_objective is not None:
        cutoffs.append(
            sign * (float(options.warm_start_objective) - compiled.objective_constant)
        )
    warm_note = ""
    if options.warm_start_solution is not None:
        # scipy.optimize.milp cannot hand HiGHS a starting point; the best we
        # can do with a warm-start *solution* is derive its objective value
        # and apply it as the cutoff row below (infeasible solutions are
        # noted and ignored, matching the branch-and-bound backend)
        candidate = np.asarray(options.warm_start_solution, dtype=float)
        if candidate.shape != (compiled.c.shape[0],):
            raise ValueError(
                f"warm_start_solution has {candidate.shape} values, model has "
                f"{compiled.c.shape[0]} variables"
            )
        if compiled.is_feasible(candidate):
            cutoffs.append(
                sign * (compiled.objective_value(candidate) - compiled.objective_constant)
            )
        else:
            warm_note = " (warm-start solution rejected: infeasible)"
    cutoff_value = None
    if cutoffs:
        # objective cutoff: only solutions at least as good as the known
        # incumbent are feasible (compiled space is always a minimization)
        cutoff = min(cutoffs)
        tolerance = 1e-6 * max(1.0, abs(cutoff))
        cutoff_value = cutoff + tolerance

    # fine-grained cancellation: with a CancelToken in scope, drive the
    # scipy-vendored HiGHS binding directly so the MIP-interrupt callback
    # can stop the solve at the next poll point instead of at the clamped
    # time limit (a raced branch stops burning CPU once the race has a
    # winner).  Same formulation, same HiGHS, same status mapping; any
    # failure inside the private binding returns None and the plain
    # optimize.milp path below takes over unchanged.
    result = None
    if token is not None:
        from repro.ilp.highs_cancel import solve_with_highs_callback

        result = solve_with_highs_callback(
            compiled,
            token,
            cutoff=cutoff_value,
            time_limit=effective_time_limit,
            node_limit=options.node_limit,
            mip_rel_gap=options.mip_rel_gap,
            verbose=options.verbose,
        )

    if result is None:
        if cutoff_value is not None:
            constraints.append(
                optimize.LinearConstraint(
                    sparse.csr_matrix(compiled.c.reshape(1, -1)), -np.inf, cutoff_value
                )
            )
        constraints = constraints or None
        bounds = optimize.Bounds(compiled.var_lb, compiled.var_ub)

        milp_options = {
            "disp": options.verbose,
            "mip_rel_gap": options.mip_rel_gap,
        }
        if effective_time_limit is not None:
            milp_options["time_limit"] = float(effective_time_limit)
        if options.node_limit is not None:
            milp_options["node_limit"] = int(options.node_limit)

        try:
            result = optimize.milp(
                c=compiled.c,
                constraints=constraints,
                bounds=bounds,
                integrality=compiled.integrality,
                options=milp_options,
            )
        except (ValueError, TypeError, ArithmeticError) as exc:  # pragma: no cover - defensive
            # scipy.optimize.milp rejects malformed inputs with ValueError /
            # TypeError; ArithmeticError covers numerical blowups in HiGHS glue
            raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc

    elapsed = time.perf_counter() - start
    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0

    # scipy.optimize.milp status codes:
    #   0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other
    values = np.asarray(result.x) if result.x is not None else None
    objective = None
    if values is not None:
        objective = sign * float(compiled.c @ values) + compiled.objective_constant

    if result.status == 0:
        status = SolutionStatus.OPTIMAL
    elif result.status == 1:
        status = SolutionStatus.FEASIBLE if values is not None else SolutionStatus.NO_SOLUTION
    elif result.status == 2:
        status = SolutionStatus.INFEASIBLE
    elif result.status == 3:
        status = SolutionStatus.UNBOUNDED
    else:
        status = SolutionStatus.FEASIBLE if values is not None else SolutionStatus.ERROR

    mip_gap = getattr(result, "mip_gap", None)
    node_count = int(getattr(result, "mip_node_count", 0) or 0)
    return IlpSolution(
        status=status,
        objective=objective,
        values=values,
        mip_gap=None if mip_gap is None else float(mip_gap),
        solve_time=elapsed,
        message=str(getattr(result, "message", "")) + warm_note,
        node_count=node_count,
    )
