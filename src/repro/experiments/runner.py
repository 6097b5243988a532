"""Experiment configuration and per-instance results.

:class:`ExperimentConfig` holds the parameters of one experimental
configuration (one column of Figure 4) and :class:`InstanceResult` the costs
one pipeline job reports for one instance.  The experiments themselves are
pipeline specs (:mod:`repro.experiments.tables`): every batch is a
:class:`~repro.exec.plan.RunPlan` run by a :class:`repro.exec.Session`,
which fans jobs out over ``workers`` processes, caches results by job
content hash (``cache_dir``) and streams them to a resumable JSONL file
(``results_path`` / ``resume``).  The same knobs are exposed on the CLI
(``repro experiment --workers N --cache-dir DIR --resume``) and as
environment variables for the benchmark harness.

Environment knobs (respected by the default configuration):

* ``REPRO_ILP_TIME_LIMIT`` — per-ILP-solve time limit in seconds (default 10);
* ``REPRO_ILP_BACKEND`` — ILP solver backend for every solve dispatched by
  the configuration (``scipy``/``bnb``/``auto``; default ``scipy``, see
  :mod:`repro.ilp.backends`);
* ``REPRO_BENCH_SCALE`` — ``default`` or ``paper`` dataset scale;
* ``REPRO_BENCH_LIMIT`` — only run the first N instances of each dataset;
* ``REPRO_BENCH_WORKERS`` — worker processes of the session;
* ``REPRO_CACHE_DIR`` — on-disk result cache directory of the session.

Malformed values of the knobs fall back to their defaults, but emit a
:class:`UserWarning` instead of being silently swallowed.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.dag.graph import ComputationalDag
from repro.ilp import SolverOptions, default_backend
from repro.model.instance import MbspInstance, make_instance
from repro.core.full_ilp import MbspIlpConfig
from repro.refine import RefineConfig


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        warnings.warn(
            f"ignoring malformed value {value!r} of environment variable {name} "
            f"(expected a float); using the default {default!r}",
            UserWarning,
            stacklevel=2,
        )
        return default


def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except (TypeError, ValueError):
        warnings.warn(
            f"ignoring malformed value {value!r} of environment variable {name} "
            f"(expected an integer); using the default {default!r}",
            UserWarning,
            stacklevel=2,
        )
        return default


@dataclass
class ExperimentConfig:
    """Parameters of one experimental configuration (one column of Figure 4).

    The defaults reproduce the paper's base case: ``P = 4``, ``r = 3 * r0``,
    ``g = 1``, ``L = 10``, synchronous cost model.
    """

    name: str = "base"
    num_processors: int = 4
    cache_factor: float = 3.0
    g: float = 1.0
    L: float = 10.0
    synchronous: bool = True
    allow_recomputation: bool = True
    ilp_time_limit: float = field(default_factory=lambda: _env_float("REPRO_ILP_TIME_LIMIT", 10.0))
    ilp_node_limit: Optional[int] = None
    # resolved at construction time (env: REPRO_ILP_BACKEND) so that the
    # session's content-hash job keys cover the backend actually used
    ilp_backend: str = field(default_factory=default_backend)
    step_cap: Optional[int] = None
    seed: int = 0
    # local-search refinement knobs; part of the job hash, so sweeps with
    # different refinement settings never collide in the result cache.
    # ``refine.enabled`` appends a refine stage to the paper's table
    # pipelines (the CLI's ``experiment --refine``); the explicit
    # "<member>+refine" portfolio members refine regardless (using these
    # budget/seed/strategy knobs).
    refine: RefineConfig = field(default_factory=RefineConfig)

    def __post_init__(self) -> None:
        # reject a bad node limit here, before it is hashed into job keys,
        # with the solver options' own check instead of mid-plan
        SolverOptions(node_limit=self.ilp_node_limit)

    def instance_for(self, dag: ComputationalDag) -> MbspInstance:
        return make_instance(
            dag,
            num_processors=self.num_processors,
            cache_factor=self.cache_factor,
            g=self.g,
            L=self.L,
        )

    def ilp_config(self) -> MbspIlpConfig:
        # a node limit (when set) bounds the solve by branch-and-bound nodes
        # instead of wall clock, which keeps time-pressured results
        # deterministic across differently-loaded machines
        return MbspIlpConfig(
            synchronous=self.synchronous,
            allow_recomputation=self.allow_recomputation,
            max_steps=self.step_cap,
            solver_options=SolverOptions(
                time_limit=self.ilp_time_limit, node_limit=self.ilp_node_limit
            ),
            backend=self.ilp_backend,
        )

    def variant(self, **changes) -> "ExperimentConfig":
        """A copy of this configuration with some fields changed."""
        return replace(self, **changes)


@dataclass
class InstanceResult:
    """Costs collected for one benchmark instance under one configuration."""

    instance_name: str
    num_nodes: int
    baseline_cost: float
    ilp_cost: float
    solver_status: str = ""
    solve_time: float = 0.0
    extra_costs: Dict[str, float] = field(default_factory=dict)
    #: per-job solver telemetry (``solver_calls`` / ``solver_time`` totals
    #: plus per-backend breakdowns), attached by ``execute_job``.
    #: Excluded from :meth:`fingerprint`: call counts are deterministic but
    #: the times are wall clock.
    solver_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """ILP cost over baseline cost (<= 1 means the ILP improved)."""
        if self.baseline_cost == 0:
            return 1.0
        return self.ilp_cost / self.baseline_cost

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict representation (JSON-serializable), for the result cache."""
        return {
            "instance_name": self.instance_name,
            "num_nodes": self.num_nodes,
            "baseline_cost": self.baseline_cost,
            "ilp_cost": self.ilp_cost,
            "solver_status": self.solver_status,
            "solve_time": self.solve_time,
            "extra_costs": dict(self.extra_costs),
            "solver_stats": dict(self.solver_stats),
        }

    def fingerprint(self) -> Dict[str, object]:
        """Deterministic part of the result: :meth:`to_dict` without timings.

        Two runs of the same job (serial vs. parallel, fresh vs. cached)
        must produce equal fingerprints; ``solve_time`` and the
        ``solver_stats`` telemetry are wall-clock diagnostics and are
        excluded.
        """
        data = self.to_dict()
        data.pop("solve_time", None)
        data.pop("solver_stats", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InstanceResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            instance_name=str(data["instance_name"]),
            num_nodes=int(data["num_nodes"]),
            baseline_cost=float(data["baseline_cost"]),
            ilp_cost=float(data["ilp_cost"]),
            solver_status=str(data.get("solver_status", "")),
            solve_time=float(data.get("solve_time", 0.0)),
            extra_costs={k: float(v) for k, v in dict(data.get("extra_costs", {})).items()},
            solver_stats={k: float(v) for k, v in dict(data.get("solver_stats", {})).items()},
        )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (1.0 for an empty sequence)."""
    values = [v for v in values if v > 0]
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def dataset_scale() -> str:
    """The dataset scale selected through ``REPRO_BENCH_SCALE``.

    Unknown values warn and fall back to ``"default"``, matching the
    warn-and-fall-back convention of the other ``REPRO_*`` knobs
    (``REPRO_ILP_BACKEND`` et al.) instead of being silently swallowed.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale in ("default", "paper"):
        return scale
    warnings.warn(
        f"ignoring unknown value {scale!r} of environment variable "
        f"REPRO_BENCH_SCALE (expected 'default' or 'paper'); using 'default'",
        UserWarning,
        stacklevel=2,
    )
    return "default"


def dataset_limit() -> Optional[int]:
    """Optional instance-count limit from ``REPRO_BENCH_LIMIT``."""
    return _env_int("REPRO_BENCH_LIMIT", None)


def env_bench_workers(default: int = 1) -> int:
    """Session worker count from ``REPRO_BENCH_WORKERS``.

    Malformed values (non-integers — already warned about by the shared
    parser — and non-positive counts) warn and fall back to ``default``,
    matching the ``REPRO_ILP_BACKEND`` / ``REPRO_BENCH_SCALE`` convention.
    """
    value = _env_int("REPRO_BENCH_WORKERS", default)
    if value is None:
        return max(1, int(default))
    if value < 1:
        warnings.warn(
            f"ignoring non-positive value {value!r} of environment variable "
            f"REPRO_BENCH_WORKERS (expected a worker count >= 1); using the "
            f"default {default!r}",
            UserWarning,
            stacklevel=2,
        )
        return max(1, int(default))
    return int(value)


def env_cache_dir() -> Optional[str]:
    """Result-cache directory from ``REPRO_CACHE_DIR`` (``None`` = disabled).

    A value pointing at an existing non-directory warns and disables the
    cache instead of failing every job's cache write, matching the
    warn-and-fall-back convention of the other ``REPRO_*`` knobs.
    """
    value = os.environ.get("REPRO_CACHE_DIR")
    if value is None or not value.strip():
        return None
    path = value.strip()
    if os.path.exists(path) and not os.path.isdir(path):
        warnings.warn(
            f"ignoring value {path!r} of environment variable REPRO_CACHE_DIR: "
            f"it exists but is not a directory; running without a result cache",
            UserWarning,
            stacklevel=2,
        )
        return None
    return path
