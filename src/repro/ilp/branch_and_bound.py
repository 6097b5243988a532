"""A pure-Python branch-and-bound MILP solver.

This backend exists because its behaviour is fully transparent: tests and
the node-limited benchmark runs can follow every node.  It solves LP
relaxations with HiGHS and branches on the most fractional integer
variable, using best-first search with incumbent pruning.  The relaxation
is the exact LP that ``scipy.optimize.linprog(method="highs")`` would
build, assembled once per model from the compiled CSR arrays in numpy and
passed to scipy's vendored HiGHS binding
(:func:`repro.ilp.scipy_backend.highs_binding`), so neither
``scipy.optimize`` nor ``scipy.sparse`` is imported; each node only swaps
in its column bounds and solves on a fresh HiGHS instance, so every vertex
(and hence every tree) is the one per-node ``linprog`` calls would produce.
Limits mean what they mean for the scipy backend: ``node_limit=0``
explores no node, and a negative limit is rejected by
:class:`~repro.ilp.scipy_backend.SolverOptions`.

It is intended for *small* models only (up to a few hundred integer
variables); the main experiments use the :mod:`repro.ilp.scipy_backend`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.ilp.cancellation import current_cancel_token
from repro.ilp.model import CompiledModel, IlpModel, Sense, index_dtype
from repro.ilp.scipy_backend import SolverOptions, highs_binding
from repro.ilp.solution import IlpSolution, SolutionStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    Relaxation = Callable[[np.ndarray, np.ndarray], Optional[Tuple[np.ndarray, float]]]

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: extra variable bounds on top of the root LP."""

    bound: float
    counter: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


def _split_constraints(compiled: CompiledModel):
    """The rows of ``linprog``'s ``A_ub`` / ``A_eq`` form of the two-sided
    rows: the indices of the ``<=`` rows, of the ``>=`` rows (negated, they
    follow the ``<=`` rows in ``A_ub``) and of the equality rows."""
    import numpy as np

    lb, ub = compiled.con_lb, compiled.con_ub
    eq_mask = np.isfinite(lb) & np.isfinite(ub) & (np.abs(ub - lb) < 1e-12)
    return (
        np.flatnonzero(np.isfinite(ub) & ~eq_mask),
        np.flatnonzero(np.isfinite(lb) & ~eq_mask),
        np.flatnonzero(eq_mask),
    )


#: linprog's feasibility check of a returned vertex: ``_check_result``
#: scales its default ``tol=1e-9`` to ``sqrt(tol) * 10``
_VERTEX_TOL = math.sqrt(1e-9) * 10


def _relaxation(compiled: CompiledModel) -> Relaxation:
    """The LP relaxation of ``compiled`` as ``solve(lower, upper)``.

    ``solve`` returns the optimal vertex and objective under the given
    column bounds, or ``None`` for an infeasible or failed LP (the node is
    pruned).  The LP is prepared once per model.
    """
    return _PreparedLp(compiled).solve


def _replace_inf(values: np.ndarray) -> np.ndarray:
    """``values`` with every infinity replaced by HiGHS's own (as linprog does)."""
    import numpy as np

    out = np.array(values, dtype=float)
    infinite = np.isinf(out)
    out[infinite] = np.sign(out[infinite]) * highs_binding().kHighsInf
    return out


class _PreparedLp:
    """The ``HighsLp`` that ``linprog(method="highs")`` builds, built once.

    Rows are the ``<=`` rows, then the negated ``>=`` rows, then the
    equality rows (:func:`_split_constraints`), gathered from the CSR arrays
    of ``compiled.A`` and turned into one CSC matrix by a stable sort on the
    column, so each column lists its rows in order, as scipy's conversion
    does.  Each node passes only its column bounds to a fresh HiGHS instance
    with linprog's option set, so every vertex equals the one
    ``optimize.linprog`` returns for the same node.
    """

    def __init__(self, compiled: CompiledModel) -> None:
        import numpy as np

        _highs = highs_binding()
        A = compiled.A
        n = int(compiled.c.shape[0])
        ub_rows, lb_rows, eq_rows = _split_constraints(compiled)
        rows = np.concatenate((ub_rows, lb_rows, eq_rows))
        b_ub = np.concatenate((compiled.con_ub[ub_rows], -compiled.con_lb[lb_rows]))
        b_eq = compiled.con_ub[eq_rows]
        # the stored entries of the gathered rows, row by row
        counts = A.indptr[rows + 1] - A.indptr[rows]
        dtype = index_dtype(int(counts.sum()), len(rows), n)
        row = np.repeat(np.arange(len(rows), dtype=dtype), counts)
        entries = np.arange(len(row)) + (A.indptr[rows] - (np.cumsum(counts) - counts))[row]
        values = A.data[entries].astype(float)
        negated = (row >= len(ub_rows)) & (row < len(ub_rows) + len(lb_rows))
        np.negative(values, out=values, where=negated)
        cols = A.indices[entries]
        order = np.argsort(cols, kind="stable")
        start = np.zeros(n + 1, dtype=dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
        self.num_ub = len(b_ub)
        self.rhs = _replace_inf(np.concatenate((b_ub, b_eq)))
        lp = _highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(rows)
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = len(rows)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.col_cost_ = np.array(compiled.c, dtype=float)
        lp.row_lower_ = _replace_inf(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
        lp.row_upper_ = self.rhs
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = row[order]
        lp.a_matrix_.value_ = values[order]
        self.lp = lp
        self.options = _highs.HighsOptions()
        self.options.presolve = "on"
        self.options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
        self.options.log_to_console = False
        self.options.output_flag = False
        strategies = _highs.simplex_constants.SimplexStrategy
        self.options.simplex_strategy = strategies.kSimplexStrategyDual

    def solve(self, lower: np.ndarray, upper: np.ndarray):
        import numpy as np

        _highs = highs_binding()
        upper = np.where(np.isfinite(upper), upper, np.inf)
        self.lp.col_lower_ = _replace_inf(lower)
        self.lp.col_upper_ = _replace_inf(upper)
        highs = _highs._Highs()
        if highs.passOptions(self.options) == _highs.HighsStatus.kError:
            return None
        if highs.passModel(self.lp) == _highs.HighsStatus.kError:
            return None
        if highs.run() == _highs.HighsStatus.kError:
            return None
        if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            return None
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        fun = highs.getInfo().objective_function_value
        slack = self.rhs - np.array(solution.row_value)
        # linprog's _check_result: a vertex off its rows or bounds is status 4
        tol = _VERTEX_TOL
        if (
            np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or np.any(x < lower - tol) or np.any(x > upper + tol)
            or np.any(slack[: self.num_ub] < -tol)
            or np.any(np.abs(slack[self.num_ub:]) > tol)
        ):
            return None
        return x, float(fun)


def _most_fractional(values: np.ndarray, int_idx: np.ndarray) -> Optional[int]:
    """Index of the integer variable farthest from integral (first on ties)."""
    import numpy as np

    if int_idx.size == 0:
        return None
    frac = np.abs(values[int_idx] - np.round(values[int_idx]))
    best = int(np.argmax(frac))
    return int(int_idx[best]) if frac[best] > _INT_TOL else None


def solve_with_branch_and_bound(
    model: IlpModel, options: Optional[SolverOptions] = None
) -> IlpSolution:
    """Solve ``model`` by LP-based branch and bound.

    Returns the best incumbent found within the time/node limits; the status
    is ``OPTIMAL`` only when the search tree was exhausted.  Limit semantics
    match the scipy backend: ``time_limit=None`` and ``node_limit=None`` mean
    unlimited, ``node_limit=0`` forbids exploring any node, and hitting a
    limit yields ``FEASIBLE`` with an incumbent or ``NO_SOLUTION`` without
    one.  A ``warm_start_objective`` becomes the initial incumbent bound:
    only strictly better solutions are searched for, and exhausting the tree
    without finding one reports ``NO_SOLUTION`` (the warm start stands).
    Nodes whose LP bound is within ``mip_rel_gap`` of the incumbent are
    pruned, mirroring the gap-based early stop of the scipy backend.

    A ``warm_start_solution`` (a full, feasible variable assignment) becomes
    the *initial incumbent*: the search can only improve on it, and when the
    tree is exhausted without an improvement the warm solution itself is
    returned with status ``OPTIMAL`` — a true solution warm start, unlike
    the objective-only bound.  Infeasible warm solutions are ignored (noted
    in the result message).
    """
    import numpy as np

    options = options or SolverOptions()
    compiled = model.compile()
    start = time.perf_counter()
    deadline = None if options.time_limit is None else start + options.time_limit
    # a cancellation scope (race branches, budgeted stages) tightens the
    # deadline and is additionally polled per node, so cancel() interrupts
    # even a solve submitted without any time limit
    cancel_token = current_cancel_token()
    if cancel_token is not None:
        token_remaining = cancel_token.remaining()
        if token_remaining is not None:
            token_deadline = start + max(token_remaining, 0.0)
            deadline = token_deadline if deadline is None else min(deadline, token_deadline)
    node_limit = math.inf if options.node_limit is None else int(options.node_limit)

    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0
    int_idx = np.nonzero(compiled.integrality)[0]

    # the incumbent bound lives in compiled space (minimize c @ x, constant
    # excluded); a warm start is converted from the original objective space
    warm_bound = math.inf
    if options.warm_start_objective is not None:
        warm_bound = sign * (float(options.warm_start_objective) - compiled.objective_constant)

    # a true warm-start *solution* becomes the initial incumbent (after a
    # feasibility check): the search can only improve on it, and an exhausted
    # tree returns it as proven optimal instead of NO_SOLUTION
    warm_incumbent: Optional[np.ndarray] = None
    warm_incumbent_obj = math.inf
    warm_note = ""
    if options.warm_start_solution is not None:
        candidate = np.asarray(options.warm_start_solution, dtype=float)
        if candidate.shape != (compiled.c.shape[0],):
            raise ValueError(
                f"warm_start_solution has {candidate.shape} values, model has "
                f"{compiled.c.shape[0]} variables"
            )
        if compiled.is_feasible(candidate):
            warm_incumbent = candidate.copy()
            warm_incumbent[int_idx] = np.round(warm_incumbent[int_idx])
            warm_incumbent_obj = float(compiled.c @ warm_incumbent)
        else:
            warm_note = " (warm-start solution rejected: infeasible)"

    def prune_tolerance(bound_value: float) -> float:
        """Prune margin under the incumbent: at least 1e-9, at most the gap."""
        if not math.isfinite(bound_value):
            return 1e-9
        return max(1e-9, options.mip_rel_gap * abs(bound_value))

    # ``incumbent``/``incumbent_obj`` always describe a real solution (or
    # none); ``cutoff_obj`` is the pruning threshold, which may be tighter
    # than the incumbent when an explicit warm_start_objective says a better
    # solution is known elsewhere (e.g. the scheduler injects the two-stage
    # baseline cost while the caller supplied a weaker warm solution)
    incumbent: Optional[np.ndarray] = warm_incumbent
    incumbent_obj = warm_incumbent_obj
    cutoff_obj = min(warm_bound, warm_incumbent_obj)
    counter = itertools.count()
    explored = 0
    exhausted = True

    relaxation = _relaxation(compiled)

    root = _Node(
        bound=-math.inf,
        counter=next(counter),
        lower=compiled.var_lb.astype(float).copy(),
        upper=compiled.var_ub.astype(float).copy(),
    )
    heap: List[_Node] = [root]

    while heap:
        if deadline is not None and time.perf_counter() > deadline:
            exhausted = False
            break
        if cancel_token is not None and cancel_token.cancel_requested:
            exhausted = False
            break
        if explored >= node_limit:
            exhausted = False
            break
        node = heapq.heappop(heap)
        if node.bound >= cutoff_obj - prune_tolerance(cutoff_obj):
            continue
        solved = relaxation(node.lower, node.upper)
        explored += 1
        if solved is None:
            continue  # infeasible or failed subproblem: prune
        x, lp_obj = solved
        if lp_obj >= cutoff_obj - prune_tolerance(cutoff_obj):
            continue
        branch_var = _most_fractional(x, int_idx)
        if branch_var is None:
            # integral solution: new incumbent
            values = x.copy()
            values[int_idx] = np.round(values[int_idx])
            if lp_obj < cutoff_obj:
                incumbent = values
                incumbent_obj = lp_obj
                cutoff_obj = lp_obj
            continue
        value = x[branch_var]
        # branch down
        down = _Node(
            bound=lp_obj,
            counter=next(counter),
            lower=node.lower.copy(),
            upper=node.upper.copy(),
        )
        down.upper[branch_var] = math.floor(value)
        # branch up
        up = _Node(
            bound=lp_obj,
            counter=next(counter),
            lower=node.lower.copy(),
            upper=node.upper.copy(),
        )
        up.lower[branch_var] = math.ceil(value)
        if down.lower[branch_var] <= down.upper[branch_var]:
            heapq.heappush(heap, down)
        if up.lower[branch_var] <= up.upper[branch_var]:
            heapq.heappush(heap, up)

    elapsed = time.perf_counter() - start
    if incumbent is None:
        if math.isfinite(warm_bound):
            # not infeasible: the warm-start incumbent was simply not beaten
            status = SolutionStatus.NO_SOLUTION
            message = (
                "branch-and-bound proved the warm start cannot be improved"
                if exhausted
                else "branch-and-bound hit its limits without improving the warm start"
            )
        else:
            status = SolutionStatus.INFEASIBLE if exhausted else SolutionStatus.NO_SOLUTION
            message = "branch-and-bound finished without an incumbent"
        return IlpSolution(
            status=status,
            solve_time=elapsed,
            node_count=explored,
            message=message + warm_note,
        )
    objective = sign * incumbent_obj + compiled.objective_constant
    # an exhausted tree proves nothing cheaper than ``cutoff_obj`` exists;
    # that proves the incumbent optimal only when the explicit warm bound was
    # not tighter than the incumbent's own objective
    proven = exhausted and incumbent_obj <= cutoff_obj + prune_tolerance(cutoff_obj)
    status = SolutionStatus.OPTIMAL if proven else SolutionStatus.FEASIBLE
    message = "branch-and-bound"
    if incumbent is warm_incumbent:
        message += (
            " (warm-start solution proven optimal)"
            if proven
            else " (warm-start solution kept)"
        )
    return IlpSolution(
        status=status,
        objective=objective,
        values=incumbent,
        solve_time=elapsed,
        node_count=explored,
        message=message + warm_note,
    )
