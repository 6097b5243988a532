"""Solve meters, counters and histograms (:mod:`repro.obs`).

A :class:`Meter` is the one record of ILP solves and region wall time:
jobs, pipeline stages, race branches, stage budgets and the solver
dispatch itself read theirs from one.  Meters are context-local and
always on.

A process-wide :class:`MetricsRegistry` tallies counters and histogram
observations under a lock (race-branch threads record concurrently);
these metrics are the generic layer on top, recorded only while tracing.

Cross-process merge follows the span spill convention: each process
appends the *delta since its last flush* to ``metrics-<pid>.jsonl`` in
the spill directory, and :func:`merge_spill_metrics` sums counters and
concatenates histogram values back into one registry.  Histogram
percentiles are nearest-rank (deterministic, no interpolation), matching
the serve-bench SLO summary convention.

Recording helpers (:func:`count`, :func:`observe`) are no-ops while
observability is disabled, keeping the instrumented hot paths free.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import tracing_enabled

HISTOGRAM_VALUE_CAP = 4096
"""Per-histogram raw-value cap; further observations keep the count/sum
accurate but stop storing samples (``dropped`` counts them)."""


#: The meters open in the current context, innermost last.
_METERS = contextvars.ContextVar("repro_meters", default=())


class Meter:
    """Wall time and ILP solves of one region of the calling context.

    ``with Meter() as meter:`` pushes the meter on a context-local stack;
    :func:`repro.ilp.solve_model`, the single solver dispatch point, adds
    each solve to every meter open in the calling context (meters nest),
    and the meter records its own wall time when it closes.  A thread
    counts into the meters of a context only when it runs in a copy of it
    (``contextvars.copy_context().run``), as race branches do; a solve
    outside any meter counts nowhere.  A worker process forked inside a
    meter counts into its own copy, which dies with the worker.
    """

    __slots__ = ("solves", "wall_time", "_start", "_token")

    def __init__(self) -> None:
        #: ``(backend, seconds)`` per solve, in completion order.  Race
        #: branch threads add to their stage's meter concurrently, which
        #: ``list.append`` keeps safe without a lock.
        self.solves: List[Tuple[str, float]] = []
        #: Seconds between entering and leaving the meter.
        self.wall_time = 0.0
        self._start = 0.0
        self._token = None

    def __enter__(self) -> "Meter":
        self._token = _METERS.set(_METERS.get() + (self,))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_time = time.perf_counter() - self._start
        _METERS.reset(self._token)
        return False

    @staticmethod
    def record_solve(backend: str, seconds: float) -> None:
        """Add one solve to every meter open in the calling context."""
        for meter in _METERS.get():
            meter.solves.append((backend, seconds))

    @property
    def solver_calls(self) -> int:
        return len(self.solves)

    @property
    def solver_time(self) -> float:
        return sum((seconds for _, seconds in self.solves), 0.0)

    def solver_stats(self) -> Dict[str, float]:
        """The flat record of ``InstanceResult.solver_stats``.

        The ``solver_calls`` and ``solver_time`` totals, plus
        ``solver_calls[<backend>]`` and ``solver_time[<backend>]`` for
        each backend solved with.  Every value is a float, so a zero-solve
        job writes ``0.0`` as a cache replay of it does.
        """
        out = {
            "solver_calls": float(self.solver_calls),
            "solver_time": self.solver_time,
        }
        for backend, seconds in self.solves:
            calls, spent = f"solver_calls[{backend}]", f"solver_time[{backend}]"
            out[calls] = out.get(calls, 0.0) + 1.0
            out[spent] = out.get(spent, 0.0) + seconds
        return out


def nearest_rank_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (deterministic)."""
    if not len(sorted_values):
        return 0.0
    rank = int(q * len(sorted_values) + 99) // 100  # ceil(q * n / 100)
    rank = min(len(sorted_values), max(1, rank))
    return sorted_values[rank - 1]


class Histogram:
    """Raw-value histogram summarised by nearest-rank percentiles."""

    __slots__ = ("count", "total", "values", "dropped")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.values: List[float] = []
        self.dropped = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self.values) < HISTOGRAM_VALUE_CAP:
            self.values.append(value)
        else:
            self.dropped += 1

    def percentile(self, q: float) -> float:
        return nearest_rank_percentile(sorted(self.values), q)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self.values)
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": ordered[0] if ordered else 0.0,
            "max": ordered[-1] if ordered else 0.0,
            "p50": nearest_rank_percentile(ordered, 50),
            "p90": nearest_rank_percentile(ordered, 90),
            "p99": nearest_rank_percentile(ordered, 99),
        }


class MetricsRegistry:
    """Lock-protected counters + histograms with delta-based JSONL spill."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._flushed_counters: Dict[str, float] = {}
        self._flushed_values: Dict[str, int] = {}
        self._pid = os.getpid()

    def _check_pid(self) -> None:
        if os.getpid() != self._pid:
            # fork-inherited tallies belong to (and are flushed by) the parent
            self._pid = os.getpid()
            self._counters = {}
            self._histograms = {}
            self._flushed_counters = {}
            self._flushed_values = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        self._check_pid()
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        self._check_pid()
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # -- views ---------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Full state: ``{"counters": {...}, "histograms": {name: values}}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: list(hist.values)
                    for name, hist in self._histograms.items()
                },
            }

    def summary(self) -> Dict[str, object]:
        """Flat deterministic dump: counters + per-histogram percentiles."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name] for name in sorted(self._counters)
                },
                "histograms": {
                    name: self._histograms[name].summary()
                    for name in sorted(self._histograms)
                },
            }

    # -- merge ---------------------------------------------------------
    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, values in histograms.items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                for value in values:
                    hist.observe(float(value))

    # -- spill ---------------------------------------------------------
    def flush(self, spill_dir: Optional[str]) -> bool:
        """Append the delta since the previous flush to the spill file."""
        self._check_pid()
        if spill_dir is None:
            return False
        with self._lock:
            counters = {
                name: value - self._flushed_counters.get(name, 0.0)
                for name, value in self._counters.items()
                if value != self._flushed_counters.get(name, 0.0)
            }
            histograms = {}
            for name, hist in self._histograms.items():
                seen = self._flushed_values.get(name, 0)
                fresh = hist.values[seen:]
                if fresh:
                    histograms[name] = list(fresh)
            if not counters and not histograms:
                return False
            self._flushed_counters = dict(self._counters)
            self._flushed_values = {
                name: len(hist.values) for name, hist in self._histograms.items()
            }
        payload = {"pid": self._pid, "counters": counters, "histograms": histograms}
        path = os.path.join(spill_dir, f"metrics-{self._pid}.jsonl")
        try:
            os.makedirs(spill_dir, exist_ok=True)
            with open(path, "a") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - spill must never break runs
            return False
        return True

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._flushed_counters.clear()
            self._flushed_values.clear()


_METRICS = MetricsRegistry()


def metrics() -> MetricsRegistry:
    return _METRICS


def count(name: str, value: float = 1.0) -> None:
    """Bump a counter — no-op while observability is disabled."""
    if tracing_enabled():
        _METRICS.inc(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation — no-op while disabled."""
    if tracing_enabled():
        _METRICS.observe(name, value)


def merge_spill_metrics(spill_dir: str) -> MetricsRegistry:
    """Merge every ``metrics-*.jsonl`` under ``spill_dir`` into a fresh
    registry (counters summed, histogram values concatenated)."""
    merged = MetricsRegistry()
    try:
        names = sorted(os.listdir(spill_dir))
    except OSError:
        return merged
    for name in names:
        if not (name.startswith("metrics-") and name.endswith(".jsonl")):
            continue
        try:
            with open(os.path.join(spill_dir, name)) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        merged.merge_snapshot(json.loads(line))
                    except (ValueError, TypeError, AttributeError):
                        continue
        except OSError:  # pragma: no cover
            continue
    return merged


def collect_metrics(spill_dir: Optional[str] = None) -> MetricsRegistry:
    """The merged view: spilled metrics from every process plus this
    process's unflushed tally."""
    if spill_dir is None:
        spill_dir = _METRICS_SPILL_DIR()
    if spill_dir is None:
        merged = MetricsRegistry()
        merged.merge_snapshot(_METRICS.snapshot())
        return merged
    _METRICS.flush(spill_dir)
    return merge_spill_metrics(spill_dir)


def _METRICS_SPILL_DIR() -> Optional[str]:
    from repro.obs.tracer import get_tracer

    return get_tracer().spill_dir
