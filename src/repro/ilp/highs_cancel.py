"""Direct HiGHS solves with cooperative mid-solve cancellation.

:func:`scipy.optimize.milp` cannot be interrupted once dispatched: the
cancellation hook in :mod:`repro.ilp.scipy_backend` used to be coarse —
refuse to start when already cancelled, clamp the time limit to the
scope's remaining budget — so a raced ILP branch kept burning CPU until
its clamped limit expired even after the race had a winner.

This module drives the scipy-*vendored* HiGHS binding
(``scipy.optimize._highspy._core``) directly: the same compiled model,
bounds, integrality, objective-cutoff row and options as the
``optimize.milp`` path, plus HiGHS's MIP-interrupt callback polling the
scope's :class:`~repro.ilp.cancellation.CancelToken` — a cancelled solve
stops at the next branch-and-bound poll point instead of at the time
limit.  The race stage installs tokens in both its sequential and
threaded branches, so the callback path behaves identically across
worker counts.

The binding is a private scipy API, so everything is gated twice: the
import is optional and happens on first use (:func:`highs_binding`,
:func:`highs_cancellation_available`), and
:func:`solve_with_highs_callback` returns ``None`` on any failure inside
the binding — the caller falls back to the plain ``optimize.milp`` path,
which remains byte-identical for uncancelled solves (same formulation,
same HiGHS under the hood).  The result object mimics the
``optimize.milp`` result surface (``status``/``x``/``message``/
``mip_gap``/``mip_node_count``) so the backend's status mapping is
shared between both paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ilp.cancellation import CancelToken
    from repro.ilp.model import CompiledModel


@functools.cache
def highs_binding():
    """The scipy-vendored HiGHS binding, imported on the first call (which
    loads ``scipy.optimize``); ``None`` when it does not import."""
    try:  # pragma: no cover - exercised indirectly via availability gates
        from scipy.optimize._highspy import _core
    except Exception:  # repro: lint-ignore[REP-C02] — any private-API breakage
        return None
    return _core


def highs_cancellation_available() -> bool:
    """Whether the scipy-vendored HiGHS binding imports."""
    return highs_binding() is not None


@dataclass
class HighsCallbackResult:
    """``optimize.milp``-shaped result of a direct HiGHS solve.

    ``status`` uses the ``optimize.milp`` code space (0 optimal, 1 limit
    reached, 2 infeasible, 3 unbounded, 4 other) so
    :func:`repro.ilp.scipy_backend.solve_with_scipy` maps both solve
    paths with one table; ``cancelled`` records that the MIP-interrupt
    callback stopped the solve.
    """

    status: int
    x: Optional[np.ndarray]
    message: str
    mip_gap: Optional[float]
    mip_node_count: int
    cancelled: bool = False


def _status_code(model_status, value_valid: bool) -> int:
    """Map a ``HighsModelStatus`` to the ``optimize.milp`` code space."""
    s = highs_binding().HighsModelStatus
    if model_status == s.kOptimal:
        return 0
    if model_status == s.kInfeasible:
        return 2
    if model_status == s.kUnbounded:
        return 3
    if model_status in (
        s.kTimeLimit,
        s.kIterationLimit,
        s.kSolutionLimit,
        s.kInterrupt,
        s.kHighsInterrupt,
        s.kObjectiveBound,
        s.kObjectiveTarget,
    ):
        return 1
    # kUnboundedOrInfeasible, solve/model errors, anything new: "other",
    # unless HiGHS still produced a usable incumbent (then a limit-like 1)
    return 1 if value_valid else 4


def solve_with_highs_callback(
    compiled: "CompiledModel",
    token: "CancelToken",
    cutoff: Optional[float] = None,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    mip_rel_gap: float = 1e-4,
    verbose: bool = False,
) -> Optional[HighsCallbackResult]:
    """Solve ``compiled`` directly through HiGHS, polling ``token``.

    ``cutoff`` is the objective cutoff in the compiled (minimization)
    space — the same value the ``optimize.milp`` path encodes as an extra
    ``c @ x <= cutoff`` constraint row, added here identically so both
    paths solve the same formulation.  Returns ``None`` when the binding
    is unavailable or rejects the model; the caller then falls back to
    ``optimize.milp`` (cancellation stays coarse but correctness is
    unaffected).
    """
    _highs = highs_binding()
    if _highs is None:
        return None
    from scipy import sparse

    try:
        lp = _highs.HighsLp()
        num_vars = int(compiled.c.shape[0])
        rows = compiled.A.tocsr() if compiled.A.shape[0] else None
        con_lb = np.asarray(compiled.con_lb, dtype=float)
        con_ub = np.asarray(compiled.con_ub, dtype=float)
        if cutoff is not None:
            # objective cutoff row, bit-for-bit the constraint the milp
            # path appends: c @ x <= cutoff (tolerance already applied by
            # the caller)
            cut_row = sparse.csr_matrix(compiled.c.reshape(1, -1))
            rows = cut_row if rows is None else sparse.vstack(
                [rows, cut_row], format="csr"
            )
            con_lb = np.append(con_lb, -np.inf)
            con_ub = np.append(con_ub, float(cutoff))
        num_rows = 0 if rows is None else int(rows.shape[0])

        inf = float(_highs.kHighsInf)
        clip = lambda a: np.clip(np.asarray(a, dtype=float), -inf, inf)
        lp.num_col_ = num_vars
        lp.num_row_ = num_rows
        lp.col_cost_ = np.asarray(compiled.c, dtype=float)
        lp.col_lower_ = clip(compiled.var_lb)
        lp.col_upper_ = clip(compiled.var_ub)
        lp.row_lower_ = clip(con_lb)
        lp.row_upper_ = clip(con_ub)
        if num_rows:
            matrix = lp.a_matrix_
            matrix.format_ = _highs.MatrixFormat.kRowwise
            matrix.start_ = np.asarray(rows.indptr, dtype=np.int32)
            matrix.index_ = np.asarray(rows.indices, dtype=np.int32)
            matrix.value_ = np.asarray(rows.data, dtype=float)
        lp.integrality_ = np.array(
            [
                _highs.HighsVarType.kInteger if flag else
                _highs.HighsVarType.kContinuous
                for flag in np.asarray(compiled.integrality).astype(bool)
            ]
        )

        solver = _highs._Highs()
        solver.setOptionValue("output_flag", bool(verbose))
        solver.setOptionValue("log_to_console", bool(verbose))
        solver.setOptionValue("mip_rel_gap", float(mip_rel_gap))
        if time_limit is not None:
            solver.setOptionValue("time_limit", float(time_limit))
        if node_limit is not None:
            solver.setOptionValue("mip_max_nodes", int(node_limit))
        if solver.passModel(lp) != _highs.HighsStatus.kOk:
            return None

        cancelled = [False]

        def _interrupt(callback_type, message, data_out, data_in, user_data):
            # polled by HiGHS at its MIP interrupt points; the token read
            # is lock-free and monotonic (cancel() only ever sets it)
            if token.cancelled():
                cancelled[0] = True
                data_in.user_interrupt = True

        if solver.setCallback(_interrupt, None) != _highs.HighsStatus.kOk:
            return None
        solver.startCallbackInt(
            int(_highs.cb.HighsCallbackType.kCallbackMipInterrupt)
        )
        solver.run()

        model_status = solver.getModelStatus()
        solution = solver.getSolution()
        info = solver.getInfo()
        values = (
            np.asarray(solution.col_value, dtype=float)
            if solution.value_valid
            else None
        )
        message = f"HiGHS model status: {model_status.name}"
        if cancelled[0]:
            message += " (cancelled by CancelToken mid-solve)"
        gap = float(info.mip_gap)
        return HighsCallbackResult(
            status=_status_code(model_status, values is not None),
            x=values,
            message=message,
            mip_gap=gap if np.isfinite(gap) else None,
            mip_node_count=int(info.mip_node_count),
            cancelled=cancelled[0],
        )
    except Exception:  # repro: lint-ignore[REP-C02]
        # the private binding changed shape, rejected an array dtype, or
        # died inside HiGHS: never fail the solve over the fast path —
        # the caller falls back to optimize.milp
        return None
