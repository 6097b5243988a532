"""Dataset and session knobs of the experiment harness.

The experiments are pipeline specs (:mod:`repro.experiments.tables`): every
batch is a :class:`~repro.exec.plan.RunPlan` run by a
:class:`repro.exec.Session`, which fans jobs out over ``workers`` processes,
caches results by job content hash (``cache_dir``) and streams them to a
resumable JSONL file (``results_path`` / ``resume``).  The same knobs are
exposed on the CLI (``repro experiment --workers N --cache-dir DIR
--resume``) and as environment variables for the benchmark harness.  The
configuration and result types the jobs carry live in
:mod:`repro.pipeline.config`.

Environment knobs (besides the ILP knobs of
:class:`~repro.pipeline.config.ExperimentConfig`):

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
from typing import Optional, Sequence

# ExperimentConfig is re-exported: the repository benchmark (perfbench/)
# imports it from this module
from repro.pipeline.config import ExperimentConfig, _env_int  # noqa: F401


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
