"""Per-layer spans recorded from outside the program.

A traced pass wraps the public entry points of each ``repro.*`` layer at
the place where its caller looks it up: a ``from x import y`` binding lives
in the importing module, so patching ``x`` would not reach it.  Nothing
under ``src/`` changes; :func:`installed` puts every wrapper in place and
restores the original attributes on exit, so untraced passes run the
unmodified program.

Spans (name, start, end, parent, pid) stay in memory in a
:class:`Recorder`.  Pool workers inherit the wrappers and the recorder
through ``fork``; at the end of each job the worker hands the job's spans
back on the returned result object (a plain attribute, outside every
field that results serialize or fingerprint), and the parent absorbs them
where ``Session.run``/``Session.stream`` return the results.

A layer's self time is its spans' duration minus the part of that
interval covered by child spans, in any process (:func:`self_times`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: attribute under which a pool worker hands a job's records back
HANDBACK_ATTR = "_perfbench_records"

SpanId = Tuple[int, int]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[SpanId]
    pid: int
    id: SpanId
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Verdict:
    """Output check of one pipeline run (instance, canonical spec)."""

    instance: str
    spec: str
    problems: Tuple[str, ...]


class Recorder:
    """The spans of one pass, plus output verdicts when ``checker`` is set.

    ``checker(pipeline_result)`` returns the list of broken output rules of
    one pipeline run; it is called after the pipeline span has closed.
    """

    def __init__(self, checker: Optional[Callable] = None) -> None:
        self.owner = os.getpid()
        self.checker = checker
        self.spans: List[Span] = []
        self.verdicts: List[Verdict] = []
        #: ``ServiceReport`` objects returned by ``ScheduleService.run``
        self.reports: List[object] = []
        # ilp.compile memoizes; nonzeros count each compiled model once
        # (keyed by id: compiled models are unhashable dataclasses)
        self.compiled = weakref.WeakValueDictionary()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[SpanId]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict (filled by hooks)."""
        stack = self._stack()
        pid = os.getpid()
        span_id = (pid, next(self._ids))
        parent = stack[-1] if stack else None
        attrs: Dict[str, float] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, parent, pid, span_id, attrs))

    def absorb(self, result) -> None:
        """Take back the records a pool worker attached to ``result``."""
        records = vars(result).pop(HANDBACK_ATTR, None)
        if records is not None:
            spans, verdicts = records
            self.spans.extend(spans)
            self.verdicts.extend(verdicts)


# ----------------------------------------------------------------------
# wrapper targets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` as seen by its callers.

    ``post(recorder, attrs, args, kwargs, result, state)`` runs after the
    span closes (so its own cost is not attributed to the layer);
    ``pre(args, kwargs)`` runs before the span opens and returns ``state``.
    ``kind`` is ``"call"``, ``"stream"`` (a generator method) or ``"job"``
    (the pool job boundary that hands records back).
    """

    owner: object
    attr: str
    span: str
    post: Optional[Callable] = None
    pre: Optional[Callable] = None
    kind: str = "call"

    @property
    def label(self) -> str:
        owner = self.owner
        if isinstance(owner, type):
            return f"{owner.__module__}.{owner.__qualname__}.{self.attr}"
        return f"{owner.__name__}.{self.attr}"


def _post_solve(recorder, attrs, args, kwargs, solution, state) -> None:
    attrs["nodes"] = float(solution.node_count)


def _post_build(recorder, attrs, args, kwargs, result, state) -> None:
    model, _variables = result
    attrs["variables"] = float(model.num_variables)
    attrs["constraints"] = float(model.num_constraints)


def _post_compile(recorder, attrs, args, kwargs, compiled, state) -> None:
    if recorder.compiled.get(id(compiled)) is not compiled:
        recorder.compiled[id(compiled)] = compiled
        attrs["nonzeros"] = float(compiled.A.nnz)


def _post_encode(recorder, attrs, args, kwargs, encoding, state) -> None:
    attrs["attempts"] = 1.0
    attrs["fits"] = 0.0 if encoding is None else 1.0


def _post_refine(recorder, attrs, args, kwargs, result, state) -> None:
    attrs["proposals"] = float(result.proposals)
    attrs["accepted"] = float(result.accepted)


def _post_pipeline(recorder, attrs, args, kwargs, result, state) -> None:
    pipeline = args[0]
    attrs["prunable"] = float(sum(1 for stage in pipeline.stages if stage.prunable))
    attrs["pruned"] = float(sum(1 for stage in result.stages if stage.skipped))
    # a reused prefix always includes the first stage, so each hit is one
    # first-stage (bsp + cache) evaluation the pipeline did not repeat
    attrs["prefix_hit"] = 1.0 if result.stages_reused else 0.0
    attrs["ilp_improved"] = float(sum(
        1
        for stage in result.stages
        if stage.stage.startswith("ilp")
        and not stage.skipped
        and stage.telemetry.get("cost_in") is not None
        and stage.cost < stage.telemetry["cost_in"]
    ))
    if recorder.checker is not None:
        recorder.verdicts.append(Verdict(
            result.instance_name, result.spec, tuple(recorder.checker(result))
        ))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _post_cache_store(recorder, attrs, args, kwargs, result, state) -> None:
    cache, key = args[0], args[1]
    attrs["bytes"] = float(_file_size(cache.path(key)))


def _pre_log_append(args, kwargs) -> int:
    return _file_size(args[0].results_path)


def _post_log_append(recorder, attrs, args, kwargs, result, state) -> None:
    attrs["bytes"] = float(_file_size(args[0].results_path) - state)


def _post_session_run(recorder, attrs, args, kwargs, results, state) -> None:
    for result in results:
        recorder.absorb(result)


def _post_service_run(recorder, attrs, args, kwargs, report, state) -> None:
    attrs["requests"] = float(len(report.records))
    attrs["distinct_jobs"] = float(len(report.jobs))
    if recorder.checker is not None and os.getpid() == recorder.owner:
        # the checked pass keeps the report (its per-request records weigh
        # each job); a timed pass must not hold 10^5 records alive
        recorder.reports.append(report)


def targets() -> List[Target]:
    """Every wrapped entry point, keyed to its layer's span name."""
    from repro.core import encoding, scheduler, two_stage
    from repro.core.full_ilp import MbspIlpBuilder
    from repro.exec.session import Session
    from repro.exec.store import ResultCache, ResultLog
    from repro.experiments import parallel
    from repro.ilp.model import IlpModel
    from repro.pipeline.pipeline import Pipeline
    from repro.portfolio.portfolio import Portfolio
    from repro.refine.engine import Refiner
    from repro.serve import service
    from repro.theory import bounds

    first_stages = [
        Target(two_stage, f"{name}_bsp_schedule", "bsp")
        for name in ("greedy", "cilk", "etf", "dfs", "ilp")
    ]
    return first_stages + [
        Target(two_stage, "two_stage_schedule", "cache"),
        # validation and cost evaluation are bound both by the two-stage
        # runner (every heuristic stage) and by the ILP scheduler
        Target(two_stage, "validate_schedule", "model.validate"),
        Target(two_stage, "schedule_cost", "model.cost"),
        Target(scheduler, "validate_schedule", "model.validate"),
        Target(scheduler, "schedule_cost", "model.cost"),
        Target(scheduler, "solve", "ilp.solve", _post_solve),
        Target(scheduler, "extract_schedule", "core.extract"),
        Target(MbspIlpBuilder, "build", "core.build", _post_build),
        Target(IlpModel, "compile", "ilp.compile", _post_compile),
        Target(encoding, "simulate_schedule_steps", "core.encode"),
        Target(encoding, "required_encoding_steps", "core.encode"),
        Target(encoding, "encode_schedule_solution", "core.encode", _post_encode),
        Target(bounds, "instance_lower_bound", "theory.bound"),
        Target(Refiner, "refine", "refine", _post_refine),
        Target(Pipeline, "run", "pipeline", _post_pipeline),
        Target(ResultCache, "load", "exec.store"),
        Target(ResultCache, "store", "exec.store", _post_cache_store),
        Target(ResultLog, "append", "exec.store", _post_log_append, _pre_log_append),
        Target(parallel, "execute_job", "exec.job", kind="job"),
        Target(Session, "run", "exec.session", _post_session_run),
        Target(Session, "stream", "exec.session", kind="stream"),
        Target(Portfolio, "run", "portfolio"),
        Target(service.ScheduleService, "run", "serve.run", _post_service_run),
        Target(service, "request_pool", "serve.arrivals"),
        Target(service, "generate_requests", "serve.arrivals"),
        Target(service.ServiceReport, "slo_summary", "serve.summary"),
        Target(service.ServiceReport, "trace_digest", "serve.summary"),
    ]


def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    if target.kind == "stream":
        @functools.wraps(original)
        def stream(*args, **kwargs):
            with recorder.span(target.span):
                for event in original(*args, **kwargs):
                    recorder.absorb(event.result)
                    yield event

        return stream

    if target.kind == "job":
        @functools.wraps(original)
        def job(*args, **kwargs):
            marks = len(recorder.spans), len(recorder.verdicts)
            with recorder.span(target.span):
                result = original(*args, **kwargs)
            if os.getpid() != recorder.owner:
                # a forked pool worker: this job's records travel back with
                # its result (the worker's copy of earlier records stays)
                spans = recorder.spans[marks[0]:]
                verdicts = recorder.verdicts[marks[1]:]
                del recorder.spans[marks[0]:], recorder.verdicts[marks[1]:]
                setattr(result, HANDBACK_ATTR, (spans, verdicts))
            return result

        return job

    @functools.wraps(original)
    def call(*args, **kwargs):
        state = target.pre(args, kwargs) if target.pre is not None else None
        with recorder.span(target.span) as attrs:
            result = original(*args, **kwargs)
        if target.post is not None:
            target.post(recorder, attrs, args, kwargs, result, state)
        return result

    return call


@contextmanager
def installed(recorder: Recorder):
    """Every target wrapped for ``recorder`` while inside; on exit each
    attribute is restored to the exact object it held before (the value in
    the owner's own ``__dict__``)."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for target in targets():
            original = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, _wrap(recorder, target, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapper_set_digest() -> str:
    """Short digest of the wrapped entry points and their span names, so
    per-layer numbers from different wrapper sets are never compared
    silently."""
    names = sorted(f"{t.label}={t.span}/{t.kind}" for t in targets())
    return hashlib.sha256("\n".join(names).encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# self-time arithmetic and per-layer metrics
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(spans: Sequence[Span]) -> Dict[SpanId, float]:
    """Each span's duration minus the part its children (any pid) cover."""
    children: Dict[SpanId, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: span.duration - union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
        )
        for span in spans
    }


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: per-layer counts two traced passes of the same code must reproduce, as
#: sums of metrics.  Forked pool workers inherit the portfolio's
#: shared-prefix reuse scope, so whether a refine member reuses its first
#: stage depends on which worker ran the base member: on ``sweep``
#: ``bsp.calls`` alone varies between passes, while first stages computed
#: plus first stages reused does not.
GATED_COUNTS = (
    ("bsp.calls", "pipeline.prefix_hits"),
    ("ilp.solve.nodes",),
    ("core.build.variables",),
    ("core.build.constraints",),
    ("ilp.compile.nonzeros",),
    ("refine.proposals",),
    ("exec.store.calls",),
    ("serve.distinct_jobs",),
)

#: every per-layer metric with its unit and direction, in report order
#: (``dag.generate_s`` and ``trace.overhead_share`` are measured by the
#: harness around the traced pass rather than from its spans)
PER_LAYER = (
    ("bsp.calls", "count", "lower"),
    ("bsp.self_s", "s", "lower"),
    ("cache.calls", "count", "lower"),
    ("cache.self_s", "s", "lower"),
    ("model.validate.self_s", "s", "lower"),
    ("model.cost.self_s", "s", "lower"),
    ("refine.self_s", "s", "lower"),
    ("refine.proposals", "count", "lower"),
    ("refine.accept_ratio", "ratio", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.pruned_ratio", "ratio", "higher"),
    ("pipeline.prefix_hits", "count", "higher"),
    ("theory.bound.self_s", "s", "lower"),
    ("core.build.self_s", "s", "lower"),
    ("core.build.variables", "count", "lower"),
    ("core.build.constraints", "count", "lower"),
    ("core.encode.self_s", "s", "lower"),
    ("core.encode.fit_ratio", "ratio", "higher"),
    ("core.extract.self_s", "s", "lower"),
    ("ilp.compile.self_s", "s", "lower"),
    ("ilp.compile.nonzeros", "count", "lower"),
    ("ilp.solve.calls", "count", "lower"),
    ("ilp.solve.self_s", "s", "lower"),
    ("ilp.solve.nodes", "count", "lower"),
    ("ilp.solve.s_per_node", "s", "lower"),
    ("ilp.solve.improved_ratio", "ratio", "higher"),
    ("exec.job.calls", "count", "lower"),
    ("exec.job.p50_ms", "ms", "lower"),
    ("exec.job.p90_ms", "ms", "lower"),
    ("exec.store.calls", "count", "lower"),
    ("exec.store.self_s", "s", "lower"),
    ("exec.store.bytes", "bytes", "lower"),
    ("exec.session.self_s", "s", "lower"),
    ("exec.pool.wait_s", "s", "lower"),
    ("exec.pool.utilization", "ratio", "higher"),
    ("portfolio.self_s", "s", "lower"),
    ("serve.arrivals.self_s", "s", "lower"),
    ("serve.run.self_s", "s", "lower"),
    ("serve.summary.self_s", "s", "lower"),
    ("serve.distinct_jobs", "count", "lower"),
    ("serve.dedup_ratio", "ratio", "higher"),
    ("dag.generate_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def layer_metrics(spans: Sequence[Span], owner: int, workers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``owner`` is the harness pid (jobs in any other pid ran on the pool)
    and ``workers`` the session's worker slots.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> float:
        return float(len(by_name[name]))

    def self_s(name: str) -> float:
        return sum((selfs[span.id] for span in by_name[name]), 0.0)

    def attr(name: str, key: str) -> float:
        return sum((span.attrs.get(key, 0.0) for span in by_name[name]), 0.0)

    jobs = by_name["exec.job"]
    job_ms = [span.duration * 1000.0 for span in jobs]
    solve_s = self_s("ilp.solve")
    nodes = attr("ilp.solve", "nodes")
    proposals = attr("refine", "proposals")
    m = {
        "bsp.calls": calls("bsp"),
        "bsp.self_s": self_s("bsp"),
        "cache.calls": calls("cache"),
        "cache.self_s": self_s("cache"),
        "model.validate.self_s": self_s("model.validate"),
        "model.cost.self_s": self_s("model.cost"),
        "refine.self_s": self_s("refine"),
        "refine.proposals": proposals,
        "refine.accept_ratio": _ratio(attr("refine", "accepted"), proposals),
        "pipeline.self_s": self_s("pipeline"),
        "pipeline.pruned_ratio": _ratio(
            attr("pipeline", "pruned"), attr("pipeline", "prunable")
        ),
        "pipeline.prefix_hits": attr("pipeline", "prefix_hit"),
        "theory.bound.self_s": self_s("theory.bound"),
        "core.build.self_s": self_s("core.build"),
        "core.build.variables": attr("core.build", "variables"),
        "core.build.constraints": attr("core.build", "constraints"),
        "core.encode.self_s": self_s("core.encode"),
        "core.encode.fit_ratio": _ratio(
            attr("core.encode", "fits"), attr("core.encode", "attempts")
        ),
        "core.extract.self_s": self_s("core.extract"),
        "ilp.compile.self_s": self_s("ilp.compile"),
        "ilp.compile.nonzeros": attr("ilp.compile", "nonzeros"),
        "ilp.solve.calls": calls("ilp.solve"),
        "ilp.solve.self_s": solve_s,
        "ilp.solve.nodes": nodes,
        "ilp.solve.s_per_node": _ratio(solve_s, nodes),
        "ilp.solve.improved_ratio": _ratio(
            attr("pipeline", "ilp_improved"), calls("ilp.solve")
        ),
        "exec.job.calls": float(len(jobs)),
        "exec.job.p50_ms": nearest_rank(job_ms, 50),
        "exec.job.p90_ms": nearest_rank(job_ms, 90),
        "exec.store.calls": calls("exec.store"),
        "exec.store.self_s": self_s("exec.store"),
        "exec.store.bytes": attr("exec.store", "bytes"),
        "exec.session.self_s": self_s("exec.session"),
        "portfolio.self_s": self_s("portfolio"),
        "serve.arrivals.self_s": self_s("serve.arrivals"),
        "serve.run.self_s": self_s("serve.run"),
        "serve.summary.self_s": self_s("serve.summary"),
        "serve.distinct_jobs": attr("serve.run", "distinct_jobs"),
        "serve.dedup_ratio": _ratio(
            attr("serve.run", "requests"), attr("serve.run", "distinct_jobs")
        ),
    }
    m.update(pool_metrics(spans, owner, workers))
    return m


def pool_metrics(spans: Sequence[Span], owner: int, workers: int) -> Dict[str, float]:
    """Process-pool occupancy: 0 for both when no job ran on a pool worker.

    ``exec.pool.utilization`` is the jobs' busy time over ``workers`` times
    the session wall time; ``exec.pool.wait_s`` sums, per worker process,
    the idle gaps between one job's end and the next job's start (the
    round trip through the pool, result handling and the stores).
    """
    pooled = [s for s in spans if s.name == "exec.job" and s.pid != owner]
    index = {s.id: s for s in spans}

    def outermost(span: Span) -> bool:
        parent = index.get(span.parent)
        while parent is not None:
            if parent.name == "exec.session":
                return False
            parent = index.get(parent.parent)
        return True

    sessions = [
        s for s in spans
        if s.name == "exec.session" and s.pid == owner and outermost(s)
    ]
    if not pooled or not sessions:
        return {"exec.pool.wait_s": 0.0, "exec.pool.utilization": 0.0}
    wall = sum(s.duration for s in sessions)
    per_worker: Dict[int, List[Span]] = defaultdict(list)
    for span in pooled:
        per_worker[span.pid].append(span)
    wait = 0.0
    for jobs in per_worker.values():
        jobs.sort(key=lambda s: s.start)
        wait += sum(b.start - a.end for a, b in zip(jobs, jobs[1:]))
    busy = sum(s.duration for s in pooled)
    return {
        "exec.pool.wait_s": wait,
        "exec.pool.utilization": _ratio(busy, workers * wall),
    }

