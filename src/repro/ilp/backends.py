"""Pluggable ILP solver backends: a registry, dispatch, and the ``auto`` policy.

Every MILP in the library (the full MBSP formulation, the BSP first-stage
ILP, the acyclic-bipartition ILP) is solved through :func:`solve_model`,
which looks the backend up in a process-wide registry:

* ``"scipy"`` — :func:`repro.ilp.scipy_backend.solve_with_scipy`
  (HiGHS branch and cut; the default, standing in for the paper's COPT);
* ``"bnb"`` — :func:`repro.ilp.branch_and_bound.solve_with_branch_and_bound`
  (the pure-Python LP-based branch and bound, dependency-light and fully
  transparent);
* ``"auto"`` — picks per model by size/structure: tiny models (few integer
  variables and constraints) go to the transparent ``bnb`` solver, anything
  larger to HiGHS, and a :class:`~repro.exceptions.SolverError` in the
  chosen backend falls back to the other one.

Backend selection threads through the whole stack: ``SolverOptions`` are
shared by all backends (including ``warm_start_objective``, the incumbent
bound used to warm-start a solve), scheduler configurations carry a
``backend`` field, :class:`~repro.pipeline.config.ExperimentConfig`
carries ``ilp_backend`` (so session job hashes cover the backend),
and the CLI exposes ``--backend``.  The process default is ``"scipy"``,
overridable through the ``REPRO_ILP_BACKEND`` environment variable; an
unknown name in the environment warns and falls back to the default
(malformed env knobs never fail hard, matching the other ``REPRO_*``
variables), while an unknown name passed explicitly raises ``ValueError``.

:func:`solve_model` adds every solve, with its backend and duration, to
each :class:`repro.obs.Meter` open in the calling context: that is how
jobs report their ``solver_stats`` and how tests assert that bound-aware
portfolio pruning really avoids solver calls.  Jobs a session fans out to
worker processes count in the worker's meters, not in the parent's.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.exceptions import SolverError
from repro.ilp.branch_and_bound import solve_with_branch_and_bound
from repro.ilp.model import IlpModel
from repro.ilp.scipy_backend import SolverOptions, solve_with_scipy
from repro.ilp.solution import IlpSolution

#: Environment variable selecting the process-wide default backend.
ENV_BACKEND = "REPRO_ILP_BACKEND"

#: The built-in default backend (HiGHS via scipy).
DEFAULT_BACKEND = "scipy"

#: ``auto`` routes models with at most this many integer variables ...
AUTO_BNB_MAX_INTEGERS = 20
#: ... and at most this many constraints to the pure-Python solver.
AUTO_BNB_MAX_CONSTRAINTS = 120


@runtime_checkable
class SolverBackend(Protocol):
    """The protocol every registered solver backend implements."""

    name: str

    def solve(self, model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
        """Solve ``model`` under ``options`` and return an :class:`IlpSolution`."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FunctionBackend:
    """Adapter turning a plain ``solve(model, options)`` function into a backend."""

    name: str
    fn: Callable[[IlpModel, Optional[SolverOptions]], IlpSolution]
    description: str = ""

    def solve(self, model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
        return self.fn(model, options)


class AutoBackend:
    """Structure-aware dispatch: small models to ``bnb``, large ones to HiGHS.

    The pure-Python branch and bound is competitive only on tiny models, but
    there it is fully transparent; everything bigger goes to HiGHS.  If the
    chosen backend raises :class:`SolverError` (e.g. HiGHS rejected the
    model or an option), the other backend is tried before giving up —
    ``auto`` is therefore also the resilient production choice.
    """

    name = "auto"

    def choose(self, model: IlpModel) -> str:
        """Name of the concrete backend ``auto`` would use for ``model``."""
        stats = model.statistics()
        if (
            stats["integers"] <= AUTO_BNB_MAX_INTEGERS
            and stats["constraints"] <= AUTO_BNB_MAX_CONSTRAINTS
        ):
            return "bnb"
        return DEFAULT_BACKEND

    def solve(self, model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
        primary = self.choose(model)
        fallback = DEFAULT_BACKEND if primary != DEFAULT_BACKEND else "bnb"
        try:
            solution = get_backend(primary).solve(model, options)
            chosen = primary
        except SolverError:
            solution = get_backend(fallback).solve(model, options)
            chosen = fallback
        solution.message = f"auto[{chosen}] {solution.message}".rstrip()
        return solution


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SolverBackend] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(backend: SolverBackend, aliases: tuple = ()) -> SolverBackend:
    """Register ``backend`` under its canonical name plus optional aliases.

    Re-registering a name replaces the previous backend (useful in tests);
    an alias may not shadow a different backend's canonical name.
    """
    name = backend.name.lower()
    cleaned = [alias.lower() for alias in aliases]
    # validate before mutating: a rejected registration must leave the
    # registry untouched, and no name/alias may shadow (or be shadowed by)
    # another backend's — get_backend resolves aliases first, so a collision
    # would silently misdispatch
    if _ALIASES.get(name, name) != name:
        raise ValueError(
            f"backend name {name!r} is already an alias of {_ALIASES[name]!r}"
        )
    for alias in cleaned:
        if alias in _REGISTRY and alias != name:
            raise ValueError(f"alias {alias!r} would shadow a registered backend")
        if _ALIASES.get(alias, name) != name:
            raise ValueError(
                f"alias {alias!r} already points to backend {_ALIASES[alias]!r}"
            )
    _REGISTRY[name] = backend
    for alias in cleaned:
        _ALIASES[alias] = name
    return backend


def available_backends() -> List[str]:
    """Sorted canonical names of all registered backends."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> SolverBackend:
    """Look up a backend by canonical name or alias; raise ``ValueError`` if unknown."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown ILP backend {name!r}; available: {available_backends()}"
        ) from None


def default_backend() -> str:
    """The process default backend: ``REPRO_ILP_BACKEND`` or ``"scipy"``.

    An unknown name in the environment emits a :class:`UserWarning` and falls
    back to the built-in default, matching the warn-and-fall-back convention
    of the other ``REPRO_*`` environment knobs.
    """
    value = os.environ.get(ENV_BACKEND)
    if value is None or not value.strip():
        return DEFAULT_BACKEND
    try:
        return get_backend(value.strip()).name
    except ValueError:
        warnings.warn(
            f"ignoring unknown ILP backend {value!r} from environment variable "
            f"{ENV_BACKEND}; available: {available_backends()}; "
            f"using the default {DEFAULT_BACKEND!r}",
            UserWarning,
            stacklevel=2,
        )
        return DEFAULT_BACKEND


def resolve_backend_name(name: Optional[str]) -> str:
    """Canonical backend name for ``name``; ``None``/empty means the default.

    Unknown explicit names raise ``ValueError`` (unlike the environment
    default, which warns and falls back).
    """
    if name is None or not str(name).strip():
        return default_backend()
    return get_backend(name).name


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def solve_model(
    model: IlpModel,
    options: Optional[SolverOptions] = None,
    backend: Optional[str] = None,
) -> IlpSolution:
    """Solve ``model`` with the selected (or default) backend.

    This is the single dispatch point behind :func:`repro.ilp.solve`; every
    call is added to each :class:`repro.obs.Meter` open in the calling
    context, and traced as an ``ilp.solve`` span when :mod:`repro.obs`
    tracing is on.
    """
    from repro import obs
    from repro.ilp.cancellation import current_cancel_token

    impl = get_backend(resolve_backend_name(backend))
    span = obs.NULL_SCOPE
    if obs.tracing_enabled():
        span = obs.trace_span(
            "ilp.solve",
            category="solver",
            backend=impl.name,
            variables=model.num_variables,
            constraints=model.num_constraints,
            node_limit=getattr(options, "node_limit", None),
            time_limit=getattr(options, "time_limit", None),
        )
    meter = obs.Meter()
    try:
        with meter, span:
            solution = impl.solve(model, options)
            span.set(status=solution.status)
            return solution
    finally:
        obs.Meter.record_solve(impl.name, meter.wall_time)
        if obs.tracing_enabled():
            token = current_cancel_token()
            if token is not None and token.cancelled():
                span.set(cancelled=True, cancel_reason=token.cancel_reason())
            obs.observe(f"solver.time[{impl.name}]", meter.wall_time)
            obs.count(f"solver.calls[{impl.name}]")


register_backend(
    FunctionBackend(
        "scipy", solve_with_scipy, "HiGHS branch and cut (scipy's vendored HiGHS binding)"
    ),
    aliases=("highs",),
)
register_backend(
    FunctionBackend("bnb", solve_with_branch_and_bound, "pure-Python LP-based branch and bound"),
    aliases=("branch_and_bound", "branch-and-bound"),
)
register_backend(AutoBackend())
