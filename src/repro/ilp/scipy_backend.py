"""ILP solver backend: HiGHS branch and cut through scipy's vendored binding.

This is the default backend of the library.  It plays the role of the COPT
commercial solver used in the paper: a branch-and-cut MILP solver applied to
exactly the same formulations, with configurable time and node limits.

:func:`solve_with_scipy` is the library's one MILP driver.  It passes the
compiled model to the HiGHS binding that ships inside scipy
(``scipy.optimize._highspy._core``, loaded on first use by
:func:`highs_binding` without importing ``scipy.optimize``) as a row-wise
``HighsLp`` built from the model's CSR arrays, plus an objective cutoff row
when a warm start is known, and maps HiGHS's model status straight to a
:class:`~repro.ilp.solution.SolutionStatus`.  With a
:class:`~repro.ilp.cancellation.CancelToken` in scope, HiGHS's MIP-interrupt
callback polls the token, so a cancelled race branch or budgeted stage stops
at the next branch-and-bound poll point instead of at its time limit.  The
token only decides when to stop: an uncancelled solve returns the same
answer with or without one.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import threading
import time
from dataclasses import dataclass
from importlib.machinery import PathFinder
from typing import TYPE_CHECKING, Optional, Sequence

from repro.exceptions import ConfigurationError, SolverError
from repro.ilp.model import CompiledModel, IlpModel, Sense
from repro.ilp.solution import IlpSolution, SolutionStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


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
        Branch-and-bound node limit: ``None`` for no limit, ``0`` for no
        branching at all; a negative limit raises
        :class:`~repro.exceptions.ConfigurationError`.  Both backends stop
        after that many nodes and report ``FEASIBLE`` with an incumbent or
        ``NO_SOLUTION`` without one.  HiGHS additionally runs presolve and
        root heuristics that may find (and even prove) an incumbent before
        the first node, so a node-limited scipy solve can still return
        ``OPTIMAL`` where the transparent pure-Python solver reports
        ``NO_SOLUTION``.
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
        ``NO_SOLUTION``.  The scipy backend derives the solution's
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

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 0:
            raise ConfigurationError(
                f"node_limit must be None or >= 0, got {self.node_limit}"
            )


#: the canonical name of the HiGHS binding vendored with scipy
BINDING = "scipy.optimize._highspy._core"
_BINDING_LOCK = threading.Lock()


def _load_binding():
    """Load ``_core`` from scipy's install under its canonical name without
    running ``scipy/optimize/__init__.py`` (the ``_highspy`` package's own
    ``__init__`` is empty).  A later ``import scipy.optimize`` adopts the
    registered module: ``from scipy.optimize._highspy import _core``
    returns it, though the ``_highspy`` package, imported after it, holds
    no ``_core`` attribute.  :class:`ImportError` if it cannot be loaded."""
    import scipy  # the wheel's _distributor_init; loads no scipy.optimize

    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = PathFinder.find_spec(BINDING, [directory])
    if spec is None:
        raise ImportError(f"no {BINDING} under {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[BINDING]
        raise
    return module


@functools.cache
def highs_binding():
    """The HiGHS binding vendored with scipy, loaded on the first call.

    An already imported binding is returned as is.  Otherwise it is loaded
    straight from scipy's install, which leaves ``scipy.optimize`` and
    ``scipy.sparse`` unimported; if that fails, through the package import
    (``scipy.optimize`` included).  :class:`SolverError` if neither loads.
    The first load holds a lock: race branches solve on threads, and the
    extension must be initialized once.
    """
    with _BINDING_LOCK:
        module = sys.modules.get(BINDING)
        if module is not None:
            return module
        try:
            return _load_binding()
        except ImportError:
            pass
        try:
            from scipy.optimize._highspy import _core
        except ImportError as exc:
            raise SolverError(f"scipy's vendored HiGHS binding is unavailable: {exc}") from exc
        return _core


def _status(model_status, has_values: bool) -> SolutionStatus:
    """The :class:`SolutionStatus` of a finished HiGHS solve."""
    s = highs_binding().HighsModelStatus
    if model_status == s.kOptimal:
        return SolutionStatus.OPTIMAL
    if model_status == s.kInfeasible:
        return SolutionStatus.INFEASIBLE
    if model_status == s.kUnbounded:
        return SolutionStatus.UNBOUNDED
    if model_status in (
        s.kTimeLimit,
        s.kIterationLimit,
        s.kSolutionLimit,  # mip_max_nodes
        s.kInterrupt,  # the CancelToken callback
        s.kHighsInterrupt,
        s.kObjectiveBound,
        s.kObjectiveTarget,
    ):
        return SolutionStatus.FEASIBLE if has_values else SolutionStatus.NO_SOLUTION
    # kUnboundedOrInfeasible, load/solve errors, anything new
    return SolutionStatus.ERROR


def _highs_lp(compiled: CompiledModel, cutoff: Optional[float]):
    """``compiled`` as a row-wise ``HighsLp`` taken from the CSR arrays of
    ``compiled.A``; with ``cutoff``, one more row ``c @ x <= cutoff``
    (compiled space, tolerance already applied) that holds ``c``'s nonzeros
    (a ``-0.0`` of a negated objective is zero too)."""
    import numpy as np

    _highs = highs_binding()
    A = compiled.A
    num_rows = int(A.shape[0])
    start, index, value = A.indptr, A.indices, A.data
    con_lb = np.asarray(compiled.con_lb, dtype=float)
    con_ub = np.asarray(compiled.con_ub, dtype=float)
    if cutoff is not None:
        cut = np.flatnonzero(compiled.c)
        start = np.append(start, start[-1] + len(cut))
        index = np.concatenate((index, cut))
        value = np.concatenate((value, compiled.c[cut]))
        num_rows += 1
        con_lb = np.append(con_lb, -np.inf)
        con_ub = np.append(con_ub, float(cutoff))

    inf = float(_highs.kHighsInf)
    clip = lambda a: np.clip(np.asarray(a, dtype=float), -inf, inf)
    lp = _highs.HighsLp()
    lp.num_col_ = int(compiled.c.shape[0])
    lp.num_row_ = num_rows
    lp.col_cost_ = np.asarray(compiled.c, dtype=float)
    lp.col_lower_ = clip(compiled.var_lb)
    lp.col_upper_ = clip(compiled.var_ub)
    lp.row_lower_ = clip(con_lb)
    lp.row_upper_ = clip(con_ub)
    if num_rows:
        matrix = lp.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kRowwise
        matrix.start_ = np.asarray(start, dtype=np.int32)
        matrix.index_ = np.asarray(index, dtype=np.int32)
        matrix.value_ = np.asarray(value, dtype=float)
    lp.integrality_ = np.array(
        [
            _highs.HighsVarType.kInteger if flag else _highs.HighsVarType.kContinuous
            for flag in np.asarray(compiled.integrality).astype(bool)
        ]
    )
    return lp


def solve_with_scipy(model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
    """Solve ``model`` with HiGHS and return an :class:`IlpSolution`.

    Values are returned only with ``OPTIMAL`` or ``FEASIBLE``; a node, time
    or cancellation limit reached without an incumbent is ``NO_SOLUTION``.
    A failure inside the binding raises :class:`SolverError` (so ``auto``
    can fall back to branch and bound).
    """
    import numpy as np

    from repro.ilp.cancellation import clamped_time_limit, current_cancel_token

    options = options or SolverOptions()
    compiled = model.compile()
    start = time.perf_counter()

    # a scope that is already cancelled gets no solve at all; a scope
    # deadline also clamps the time limit, which bounds presolve and the
    # root LP, where the interrupt callback is not polled
    token = current_cancel_token()
    if token is not None and token.cancelled():
        return IlpSolution(
            status=SolutionStatus.NO_SOLUTION,
            solve_time=0.0,
            message="solve cancelled before dispatch",
        )
    time_limit = clamped_time_limit(options.time_limit)

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
        # HiGHS gets no starting point: a warm-start *solution* contributes
        # its objective value to the cutoff row (infeasible solutions are
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
    cutoff = None
    if cutoffs:
        # only solutions at least as good as the known incumbent are feasible
        tightest = min(cutoffs)
        cutoff = tightest + 1e-6 * max(1.0, abs(tightest))

    _highs = highs_binding()
    solver = _highs._Highs()
    settings = {
        "output_flag": bool(options.verbose),
        "log_to_console": bool(options.verbose),
        "mip_rel_gap": float(options.mip_rel_gap),
    }
    if time_limit is not None:
        settings["time_limit"] = float(time_limit)
    if options.node_limit is not None:
        settings["mip_max_nodes"] = int(options.node_limit)
    for name, value in settings.items():
        if solver.setOptionValue(name, value) == _highs.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected option {name}={value!r}")
    if solver.passModel(_highs_lp(compiled, cutoff)) == _highs.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected model {model.name!r}")

    cancelled = False
    if token is not None:

        def _interrupt(callback_type, message, data_out, data_in, user_data):
            # polled by HiGHS at its MIP interrupt points; the token read
            # is lock-free and monotonic (cancel() only ever sets it)
            nonlocal cancelled
            if token.cancelled():
                cancelled = True
                data_in.user_interrupt = True

        if solver.setCallback(_interrupt, None) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the cancellation callback")
        solver.startCallbackInt(int(_highs.cb.HighsCallbackType.kCallbackMipInterrupt))
    solver.run()

    model_status = solver.getModelStatus()
    solution = solver.getSolution()
    info = solver.getInfo()
    status = _status(model_status, bool(solution.value_valid))
    values = objective = None
    if status.has_solution:
        values = np.asarray(solution.col_value, dtype=float)
        objective = sign * float(compiled.c @ values) + compiled.objective_constant
    message = f"HiGHS model status: {model_status.name}"
    if cancelled:
        message += " (cancelled by CancelToken mid-solve)"
    gap = float(info.mip_gap)
    return IlpSolution(
        status=status,
        objective=objective,
        values=values,
        mip_gap=gap if np.isfinite(gap) else None,
        solve_time=time.perf_counter() - start,
        message=message + warm_note,
        # HiGHS reports -1 nodes for a model without integer columns
        node_count=max(0, int(info.mip_node_count)),
    )
