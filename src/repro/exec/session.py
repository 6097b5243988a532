"""The unified execution core: one :class:`Session` for every surface.

A :class:`Session` accepts a :class:`~repro.exec.plan.RunPlan` (an ordered
list of uniquely named jobs, each running one pipeline spec on one
instance) and executes it with bounded worker slots, inline or on a
process pool, streaming one :class:`ResultEvent` per completed node.  The
paper's tables, portfolio runs, ``repro exec run``, the serve layer and
individual pipelines are all *plans*; a plain batch of jobs is
``Session.run(RunPlan.from_jobs(jobs))``.

Execution semantics (session services):

* **Determinism** — results are returned in plan order, and winner
  selection inside ``race(...)`` stages is order-independent, so a
  ``workers=4`` run is bit-identical to ``workers=1`` whenever the jobs
  themselves are deterministic (node-limited ILP solves, seeded stages).
* **Content-hash cache** (``cache_dir=``) — hits replay recorded results
  without executing; budget/race limits are part of the canonical spec and
  hence of the hash, so a budgeted outcome is replayed as-is.
* **JSONL streaming + resume** (``results_path=`` / ``resume=True``) —
  completed results append to a JSONL log in plan order; resumed keys are
  not re-executed.
* **In-pipeline concurrency** — when the session executes a job inline it
  grants its worker slots to the pipeline (:mod:`repro.exec.slots`), so a
  ``race(...)`` stage fans branches out over threads; jobs dispatched to
  worker processes run their pipelines with one slot each.

``Session.run`` and ``Session.stream`` are plain synchronous calls over
:mod:`concurrent.futures`, usable from any thread, inside a running event
loop or not.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro import obs
from repro.exec.plan import RunPlan, as_plan
from repro.exec.slots import slot_scope
from repro.exec.store import PathLike, ResultCache, ResultLog

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.experiments.runner import InstanceResult

#: pool jobs in flight per worker: the one it runs and one queued behind
#: it, which it takes from the pool's call queue as soon as it is free
JOBS_PER_WORKER = 2


@dataclass
class SessionStats:
    """Bookkeeping of one session: how each node's result was obtained."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0

    def describe(self) -> str:
        return (
            f"{self.total} jobs: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.resumed} resumed"
        )


@dataclass
class ResultEvent:
    """One streamed completion: the result of one plan node.

    ``index`` is the node's *plan* position (events arrive in completion
    order; collect by index to recover plan order), ``source`` records how
    the result was obtained (``"executed"``, ``"cache"`` or ``"resumed"``).
    """

    index: int
    node_id: str
    key: str
    instance: str
    result: InstanceResult
    source: str
    #: the job's pipeline spec (progress display)
    member: str = ""


class Session:
    """Executes run plans with bounded worker slots.

    Parameters
    ----------
    workers:
        Concurrent worker slots.  ``1`` executes nodes sequentially in this
        process (pipelines still receive the slot count, so a lone
        ``workers=4`` job can race branches over 4 threads); with more
        workers and more than one pending node, nodes fan out over a
        process pool of ``workers`` processes, each with one job running
        and one queued behind it.
    cache_dir / results_path / resume:
        The content-hash result cache, the JSONL result stream and resume —
        see :mod:`repro.exec.store`.
    job_timeout:
        Optional bound, in seconds, on each node executing on the process
        pool (a liveness guard for parallel runs).  A job's clock starts
        once it is one of the ``workers`` oldest jobs in flight, so a job
        queued behind a running one is not timed while it waits.
        Exceeding the bound stores every finished result, terminates the
        pool's worker processes (a stuck job would otherwise keep the
        interpreter from exiting) and raises :class:`TimeoutError`.  It
        does not apply to inline execution — a thread cannot be
        interrupted — and it never truncates a completed result.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[PathLike] = None,
        results_path: Optional[PathLike] = None,
        resume: bool = False,
        job_timeout: Optional[float] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = ResultCache(cache_dir)
        self.log = ResultLog(results_path)
        self.resume = resume
        self.job_timeout = job_timeout
        self.stats = SessionStats()
        #: optional observer called as ``on_event(event, stats)`` before each
        #: event is yielded (the ``--progress`` renderer attaches here)
        self.on_event = None
        if resume and not self.log.enabled:
            warnings.warn(
                "resume=True without a results_path is a no-op: there is no "
                "results file to resume from, so every job will re-execute",
                UserWarning,
                stacklevel=2,
            )

    def run(self, plan) -> List[InstanceResult]:
        """Execute ``plan`` and return its results in plan order."""
        plan = as_plan(plan)
        results: List[Optional[InstanceResult]] = [None] * len(plan)
        for event in self._events(plan):
            results[event.index] = event.result
        return results  # type: ignore[return-value]

    def stream(self, plan) -> Iterator[ResultEvent]:
        """Execute ``plan``, yielding a :class:`ResultEvent` per completion.

        Abandoning the iterator stops the run: the jobs already handed to
        the pool (at most two per worker) may still run, no other job
        starts, and every result that already finished is stored.
        """
        return self._events(as_plan(plan))

    def run_sharded(self, plan, shards: int) -> List[InstanceResult]:
        """Fork-join ``plan`` over ``shards`` worker processes.

        The single-machine coordinator mode of :mod:`repro.exec.shard`:
        node ``i`` of the plan runs in shard ``i % shards``, every shard
        runs in its own process as a session with this session's settings
        — sharing this session's ``cache_dir``, writing a per-shard JSONL
        file — and the per-shard files are stable-merged back into
        ``results_path`` in plan order (byte-identical to a single-process
        run of the same plan whenever the job results are, e.g. replayed
        from the shared cache).  Results return in plan order; shard
        counters accumulate into :attr:`stats`.
        """
        from repro.exec.shard import run_sharded

        results = run_sharded(
            as_plan(plan),
            shards,
            workers=self.workers,
            cache_dir=self.cache.cache_dir,
            results_path=self.log.results_path,
            resume=self.resume,
            job_timeout=self.job_timeout,
            stats=self.stats,
        )
        # the merge rewrote the results file underneath this session's log
        self.log.invalidate()
        return results

    def run_pipeline(self, spec, dag=None, config=None, *, instance=None,
                     prune_gap: Optional[float] = None):
        """Run one pipeline inline under this session's slots.

        Unlike :meth:`run` (which reduces results to ``InstanceResult``),
        this returns the full :class:`~repro.pipeline.PipelineResult` with
        per-stage telemetry; ``race(...)`` stages fan out over the
        session's worker slots.
        """
        from repro.pipeline import Pipeline

        with slot_scope(self.workers):
            return Pipeline(spec).run(
                dag, config, instance=instance, prune_gap=prune_gap
            )

    # ------------------------------------------------------------------
    # the core
    # ------------------------------------------------------------------
    def _events(self, plan: RunPlan) -> Iterator[ResultEvent]:
        """The core behind :meth:`run` and :meth:`stream`.

        Nodes whose result comes from the resume log or the cache resolve
        first, in plan order, without consuming worker slots.  Pending
        nodes then run inline in the calling thread (``workers == 1`` or a
        single pending node), or on the pool, submitted in plan order with
        up to :data:`JOBS_PER_WORKER` ``* workers`` in flight, their events
        arriving in completion order.  Cache and JSONL writes always happen
        in plan order, so the stores are byte-stable across worker counts.
        """
        # looked up per run: benchmark harnesses and tests rebind it
        from repro.experiments.parallel import execute_job, job_keys
        from repro.experiments.runner import InstanceResult

        nodes = plan.nodes
        # the log's append handle is released however the run ends: done,
        # failed or abandoned (the next append reopens it)
        with self.log, self._run_span(plan) as parent:
            self.stats.total += len(nodes)
            keys = job_keys([node.job for node in nodes])
            # always index an existing results file (not only under
            # resume): appends must skip keys the file already holds, or a
            # cache-served re-run would double-count every instance
            recorded = self.log.recorded()
            resolved = []
            pending: List[int] = []
            for i, (node, key) in enumerate(zip(nodes, keys)):
                if self.resume and key in recorded:
                    result = InstanceResult.from_dict(recorded[key])
                    self.stats.resumed += 1
                    # keep the two stores consistent: a result resumed from
                    # the JSONL file also becomes a disk-cache entry
                    self.cache.store(key, result)
                    resolved.append((i, result, "resumed"))
                    continue
                result = self.cache.load(key)
                if result is None:
                    pending.append(i)
                    continue
                self.stats.cache_hits += 1
                # the results file must record the whole batch, not only
                # the jobs that happened to miss the cache
                self.log.append(key, node.job, result)
                resolved.append((i, result, "cache"))
            for i, result, source in resolved:
                yield self._emit(plan, i, keys[i], result, source)
            if not pending:
                return

            started = time.monotonic()
            if self.workers == 1 or len(pending) == 1:
                # sequential execution in the calling thread: Ctrl-C lands
                # inside the running solver, nothing can outlive the
                # interpreter, and an abandoned iterator starts no further
                # job.  Pipelines inherit the session's slots, so race
                # branches can still fan out over threads.
                for i in pending:
                    job_span = self._job_span(nodes[i], parent, started, 1)
                    with job_span, slot_scope(self.workers):
                        result = execute_job(nodes[i].job)
                    self._persist(keys[i], nodes[i].job, result)
                    yield self._emit(plan, i, keys[i], result, "executed")
                return

            executor = self._make_executor(len(pending))
            waiting = deque(pending)  # not yet submitted, in plan order
            unpersisted = deque(pending)  # not yet in the stores, in plan order
            # future -> (plan index, job span); insertion order is
            # submission order, so the first entry is the oldest
            running: dict = {}
            clocks: dict = {}  # future -> start of its job_timeout clock
            finished: dict = {}
            limit = self.job_timeout
            timed_out = False

            def fill() -> None:
                while waiting and len(running) < JOBS_PER_WORKER * self.workers:
                    i = waiting.popleft()
                    job_span = self._job_span(
                        nodes[i], parent, started,
                        min(len(running) + 1, self.workers),
                    )
                    job_span.__enter__()
                    future = executor.submit(execute_job, nodes[i].job)
                    running[future] = (i, job_span)
                # a job can have started once it is one of the `workers`
                # oldest in flight; clocks start in submission order, so the
                # oldest job always has the nearest deadline
                now = time.monotonic()
                for future in islice(running, self.workers):
                    clocks.setdefault(future, now)

            try:
                fill()
                while running:
                    timeout = None
                    if limit is not None:
                        oldest = next(iter(running))
                        timeout = max(0.0, clocks[oldest] + limit - time.monotonic())
                    done, _ = wait(
                        running, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:  # the oldest job's deadline passed
                        timed_out = True
                        raise TimeoutError(
                            f"job {nodes[running[oldest][0]].id!r} exceeded "
                            f"the session job_timeout of {limit:g}s"
                        )
                    ready: List[int] = []
                    for future in sorted(done, key=lambda f: running[f][0]):
                        i, job_span = running.pop(future)
                        # a queued job may finish before its clock started
                        clocks.pop(future, None)
                        error = future.exception()
                        job_span.__exit__(
                            None if error is None else type(error), error, None
                        )
                        if error is not None:
                            raise error  # the rest of the batch is stored below
                        finished[i] = future.result()
                        ready.append(i)
                    # refill before persisting and yielding, so no slot
                    # idles while the stores are written or the consumer
                    # handles the events
                    fill()
                    while unpersisted and unpersisted[0] in finished:
                        j = unpersisted.popleft()
                        self._persist(keys[j], nodes[j].job, finished[j])
                    for i in ready:
                        yield self._emit(plan, i, keys[i], finished[i], "executed")
            except BaseException as exc:
                # on a failure, a timeout or an abandoned iterator the pool
                # is left without waiting (jobs not yet handed to a worker
                # cancelled) so the caller is actually unblocked.  Jobs that
                # already completed must not be re-executed by a resumed
                # run, so every finished result is stored
                for future, (i, job_span) in running.items():
                    future.cancel()
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        finished[i] = future.result()
                        job_span.__exit__(None, None, None)
                    else:
                        job_span.__exit__(type(exc), exc, None)
                while unpersisted and unpersisted[0] in finished:
                    j = unpersisted.popleft()
                    self._persist(keys[j], nodes[j].job, finished[j])
                # past the first unfinished node only the cache: the JSONL
                # log stays in plan order
                for j in unpersisted:
                    if j in finished:
                        self.stats.executed += 1
                        self.cache.store(keys[j], finished[j])
                # the executor forgets its processes on shutdown, and a
                # stuck job would keep the interpreter from exiting
                stuck = _worker_processes(executor) if timed_out else []
                executor.shutdown(wait=False, cancel_futures=True)
                for process in stuck:
                    process.terminate()
                raise
            executor.shutdown(wait=True)

    @contextmanager
    def _run_span(self, plan: RunPlan) -> Iterator[Optional[int]]:
        """The ``session.run`` span around one run, yielding its id (the
        parent of the run's job spans), or ``None`` when untraced.  Spans
        and metrics are flushed when the run ends."""
        if not obs.tracing_enabled():
            yield None
            return
        before = (self.stats.executed, self.stats.cache_hits, self.stats.resumed)
        with obs.trace_span(
            "session.run", category="session", jobs=len(plan), workers=self.workers
        ) as span:
            try:
                yield obs.get_tracer().current_span_id()
            finally:
                span.set(
                    executed=self.stats.executed - before[0],
                    cache_hits=self.stats.cache_hits - before[1],
                    resumed=self.stats.resumed - before[2],
                )
                obs.flush_observability()

    def _job_span(self, node, parent: Optional[int], started: float, busy: int):
        """The ``session.job`` span of one dispatched node (no-op untraced).

        It chains to the ``session.run`` span explicitly: several pool jobs
        are open at once in this thread, so the thread's span stack cannot
        order them.  A pool job's span opens at submission, so a job queued
        behind a worker's running one counts its time in the queue.
        """
        if parent is None:
            return obs.NULL_SCOPE
        obs.observe("session.slots_busy", busy)
        return obs.trace_span_detached(
            "session.job",
            category="session",
            parent=parent,
            node=node.id,
            instance=node.job.instance_name,
            queued_wait=time.monotonic() - started,
            slots_busy=busy,
            workers=self.workers,
        )

    def _persist(self, key: str, job, result: InstanceResult) -> None:
        self.stats.executed += 1
        self.cache.store(key, result)
        self.log.append(key, job, result)

    def _emit(
        self, plan: RunPlan, index: int, key: str, result: InstanceResult,
        source: str,
    ) -> ResultEvent:
        """The event of one resolved node, shown to :attr:`on_event` first."""
        node = plan.nodes[index]
        event = ResultEvent(
            index=index,
            node_id=node.id,
            key=key,
            instance=node.job.instance_name,
            result=result,
            source=source,
            member=str(dict(node.job.params).get("member", "")),
        )
        if self.on_event is not None:
            self.on_event(event, self.stats)
        return event

    def _make_executor(self, pending_count: int):
        """The worker pool for non-inline execution (a seam for tests, which
        substitute a thread pool to exercise the pool failure paths without
        real processes).

        Each worker process starts with :func:`_start_worker`.
        """
        return ProcessPoolExecutor(
            max_workers=min(self.workers, pending_count), initializer=_start_worker
        )


def _start_worker() -> None:
    """Prepare a pool worker process: freeze its inherited heap, and end
    it when this process's parent dies.

    After :func:`gc.freeze` the worker's collections skip every object
    inherited from the parent, and no longer write to (and so copy) the
    pages those objects share with it.  Nothing in the pool ends a worker
    whose parent was killed: one running a job finishes it, and one
    waiting for its next job stays blocked.  A daemon thread waits on the
    parent's sentinel instead and exits the process, so killing the
    coordinator leaves no worker behind.
    """
    gc.freeze()
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent.sentinel,), daemon=True
        ).start()


def _exit_with(sentinel) -> None:
    """Exit this process once ``sentinel`` (a parent's) is ready."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _worker_processes(executor) -> list:
    """The live worker processes of a process pool (none for a thread
    pool); ``concurrent.futures`` has no public accessor before 3.14."""
    return list((getattr(executor, "_processes", None) or {}).values())
