"""Self-contained ILP modeling layer and pluggable solver backends.

An :class:`IlpModel` is built from arrays only: one column path
(:meth:`IlpModel.add_variables`, a block of equally bounded columns), one
row path (:meth:`IlpModel.add_rows`, a block of rows given as
column/coefficient arrays) and an array objective
(:meth:`IlpModel.minimize` / :meth:`IlpModel.maximize`).
:meth:`IlpModel.compile` builds the CSR matrix from the model's row store,
in numpy (:class:`~repro.ilp.model.CsrMatrix`).
Models are solved through :func:`solve`, which dispatches into the backend
registry of :mod:`repro.ilp.backends`: ``"scipy"`` (HiGHS branch and cut,
the default), ``"bnb"`` (the pure-Python branch and bound) or ``"auto"``
(per-model choice by size/structure with error fallback).
``backend=None`` selects the process default — ``REPRO_ILP_BACKEND`` or
``"scipy"``.  Both backends reach HiGHS through one binding, the one
vendored with scipy (``scipy.optimize._highspy``): the ``scipy`` backend
drives its MILP solver (:mod:`repro.ilp.scipy_backend`, the library's one
MILP path), branch and bound its LP solver.

Importing this package loads neither numpy nor scipy.  numpy is imported
by the first call that builds or reads an array (a model's
:meth:`~IlpModel.add_rows`, :meth:`~IlpModel.compile`, the HiGHS
assembly), and a compile imports no scipy.  The first solve loads the
HiGHS binding straight from scipy's install
(:func:`~repro.ilp.scipy_backend.highs_binding`), which runs
``import scipy`` but loads neither ``scipy.optimize`` nor
``scipy.sparse``; only ``CsrMatrix.tocsr()`` imports ``scipy.sparse``.  A
process that never builds an ILP (heuristic pipelines) loads neither
numpy nor scipy, and the serve loop loads no scipy.
"""

from repro.ilp.cancellation import (
    CancelToken,
    cancel_scope,
    clamped_time_limit,
    current_cancel_token,
)
from repro.ilp.model import INF, CompiledModel, IlpModel, Sense
from repro.ilp.solution import IlpSolution, SolutionStatus
from repro.ilp.scipy_backend import SolverOptions, solve_with_scipy
from repro.ilp.branch_and_bound import solve_with_branch_and_bound
from repro.ilp.backends import (
    DEFAULT_BACKEND,
    ENV_BACKEND,
    AutoBackend,
    FunctionBackend,
    SolverBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
    solve_model,
)


def solve(
    model: IlpModel,
    options: SolverOptions | None = None,
    backend: str | None = None,
) -> IlpSolution:
    """Solve ``model`` with the selected backend (``None`` = process default)."""
    return solve_model(model, options, backend)


__all__ = [
    "CancelToken",
    "cancel_scope",
    "clamped_time_limit",
    "current_cancel_token",
    "INF",
    "CompiledModel",
    "IlpModel",
    "Sense",
    "IlpSolution",
    "SolutionStatus",
    "SolverOptions",
    "solve",
    "solve_with_scipy",
    "solve_with_branch_and_bound",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "AutoBackend",
    "FunctionBackend",
    "SolverBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "solve_model",
]
