"""Unified tracing & metrics layer (``repro.obs``).

One observability substrate for the whole stack:

* **Tracing** — :func:`trace_span` wraps Session job lifecycles, pipeline
  stages, race branches and budget scopes, ILP solves, refine loops and
  serve phases in :class:`Span` records (thread/process-aware ids, parent
  chaining, bounded buffer).  Zero-cost when disabled: the call returns a
  shared no-op scope, and hot sites guard attr construction behind
  :func:`tracing_enabled`.
* **Meters** — ``with Meter() as meter:`` records a region's wall time
  and every ILP solve dispatched in it; always on, context-local, and the
  source of job ``solver_stats``, stage telemetry and race-branch rows.
* **Metrics** — process-wide counters/histograms
  (:func:`count` / :func:`observe`) with nearest-rank percentiles, merged
  across shard/worker processes via JSONL spill files.
* **Export** — Chrome trace-event JSON (Perfetto-loadable;
  ``repro obs export --format chrome-trace`` or ``--trace out.json`` on
  ``exec run`` / ``pipeline run`` / ``serve bench``) and flat metrics
  text/JSON dumps.
* **Progress** — :class:`ProgressRenderer`, the opt-in ``--progress``
  live stderr line for Session runs (TTY-gated).

Observability output never enters result fingerprints or content-hash
cache keys: spans and metrics live beside the results (the existing
``solver_stats`` convention), so traced runs stay byte-identical to
untraced ones.

Quick start::

    >>> from repro import obs
    >>> with obs.trace_scope(spill_dir=".trace"):
    ...     session.run(plan)
    >>> obs.write_chrome_trace("out.json", obs.collect_spans(".trace"))

Or end-to-end from the CLI::

    repro exec run --pipeline "baseline|race(ilp@bnb,ilp@scipy)" \\
        --trace out.json --results out.jsonl
"""

from repro.obs.tracer import (
    DEFAULT_MAX_SPANS,
    ENV_TRACE,
    NULL_SCOPE,
    Span,
    Tracer,
    configure_tracing,
    flush_observability,
    get_tracer,
    read_spill_spans,
    trace_scope,
    trace_span,
    trace_span_detached,
    tracing_enabled,
)
from repro.obs.metrics import (
    HISTOGRAM_VALUE_CAP,
    Histogram,
    Meter,
    MetricsRegistry,
    collect_metrics,
    count,
    merge_spill_metrics,
    metrics,
    nearest_rank_percentile,
    observe,
)
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_file,
    collect_spans,
    export_trace,
    format_metrics_table,
    span_tree_errors,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.progress import ProgressRenderer

__all__ = [
    "DEFAULT_MAX_SPANS",
    "ENV_TRACE",
    "HISTOGRAM_VALUE_CAP",
    "NULL_SCOPE",
    "Histogram",
    "Meter",
    "MetricsRegistry",
    "ProgressRenderer",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_file",
    "collect_metrics",
    "collect_spans",
    "configure_tracing",
    "count",
    "export_trace",
    "flush_observability",
    "format_metrics_table",
    "get_tracer",
    "merge_spill_metrics",
    "metrics",
    "nearest_rank_percentile",
    "observe",
    "read_spill_spans",
    "span_tree_errors",
    "trace_scope",
    "trace_span",
    "trace_span_detached",
    "tracing_enabled",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
