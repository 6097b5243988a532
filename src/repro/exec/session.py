"""The unified execution core: one :class:`Session` for every surface.

A :class:`Session` accepts a :class:`~repro.exec.plan.RunPlan` (a job graph
whose nodes each run one pipeline spec on one instance) and executes it on
an asyncio core with bounded worker slots, streaming one
:class:`ResultEvent` per completed node.  The paper's tables, portfolio
runs, ``repro exec run``, the serve layer and individual pipelines are all
*plans*; a plain batch of jobs is ``Session.run(RunPlan.from_jobs(jobs))``.

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

``Session.run`` / ``Session.stream`` are synchronous facades over the
asyncio core (``Session.arun`` / ``Session.astream``) — use the async forms
inside an existing event loop.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Dict, Iterator, List, Optional

from repro import obs
from repro.exec.plan import RunPlan, as_plan
from repro.exec.slots import slot_scope
from repro.exec.store import PathLike, ResultCache, ResultLog

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.experiments.runner import InstanceResult


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
    """Executes run plans on an asyncio core with bounded worker slots.

    Parameters
    ----------
    workers:
        Concurrent worker slots.  ``1`` executes nodes sequentially in this
        process (pipelines still receive the slot count, so a lone
        ``workers=4`` job can race branches over 4 threads); with more
        workers and more than one pending node, nodes fan out over a
        process pool.
    cache_dir / results_path / resume:
        The content-hash result cache, the JSONL result stream and resume —
        see :mod:`repro.exec.store`.
    job_timeout:
        Optional bound, in seconds, on each node executing on the process
        pool (a liveness guard for parallel runs: exceeding it raises
        :class:`TimeoutError` without killing the stuck worker process).
        It does not apply to inline execution — a thread cannot be
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

    # ------------------------------------------------------------------
    # synchronous facades
    # ------------------------------------------------------------------
    @staticmethod
    def _inside_event_loop() -> bool:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return False
        return True

    def run(self, plan) -> List[InstanceResult]:
        """Execute ``plan`` and return its results in plan order.

        Callable from anywhere: outside an event loop it drives the async
        core directly; inside one (Jupyter, async frameworks) the core runs
        on a dedicated thread — use :meth:`arun` to stay on the loop.
        """
        if self._inside_event_loop():
            with ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-exec-run"
            ) as pool:
                return pool.submit(asyncio.run, self.arun(plan)).result()
        return asyncio.run(self.arun(plan))

    def stream(self, plan) -> Iterator[ResultEvent]:
        """Execute ``plan``, yielding a :class:`ResultEvent` per completion.

        Like :meth:`run`, works both outside an event loop and (via a
        dedicated thread) inside one.
        """
        if self._inside_event_loop():
            yield from self._stream_threaded(plan)
            return
        loop = asyncio.new_event_loop()
        agen = self.astream(plan)
        try:
            while True:
                try:
                    yield loop.run_until_complete(agen.__anext__())
                except StopAsyncIteration:
                    break
        finally:
            # close the async generator even when the consumer stops early,
            # so abandoned runs cancel their tasks and shut the pool down
            try:
                loop.run_until_complete(agen.aclose())
            finally:
                loop.close()

    def _stream_threaded(self, plan) -> Iterator[ResultEvent]:
        """Drive the async core on a dedicated thread, relaying events.

        When the consumer abandons the iterator, the drain task is
        cancelled on its own loop so the remaining jobs stop (the async
        generator's cleanup cancels its tasks and shuts the pool down) —
        mirroring the explicit ``aclose`` of the non-threaded path.
        """
        import queue as _queue
        import threading

        relay: "_queue.Queue" = _queue.Queue()
        state: Dict[str, object] = {}

        def worker() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def drain() -> None:
                async for event in self.astream(plan):
                    relay.put(("event", event))

            task = loop.create_task(drain())
            state["loop"], state["task"] = loop, task
            try:
                loop.run_until_complete(task)
            except asyncio.CancelledError:
                relay.put(("done", None))
            except BaseException as exc:  # repro: lint-ignore[REP-C03] - relayed to the consuming thread and re-raised there
                relay.put(("error", exc))
            else:
                relay.put(("done", None))
            finally:
                try:
                    loop.run_until_complete(loop.shutdown_asyncgens())
                finally:
                    loop.close()

        thread = threading.Thread(
            target=worker, name="repro-exec-stream", daemon=True
        )
        thread.start()
        finished = False
        try:
            while True:
                kind, payload = relay.get()
                if kind == "event":
                    yield payload
                elif kind == "error":
                    finished = True
                    raise payload
                else:
                    finished = True
                    return
        finally:
            if not finished:
                loop = state.get("loop")
                task = state.get("task")
                if loop is not None and task is not None:
                    loop.call_soon_threadsafe(task.cancel)  # type: ignore[union-attr]
            thread.join(timeout=5.0)

    def run_one(self, job) -> InstanceResult:
        """Convenience wrapper: run a single job."""
        return self.run([job])[0]

    def run_sharded(self, plan, shards: int) -> List[InstanceResult]:
        """Fork-join ``plan`` over ``shards`` worker processes.

        The single-machine coordinator mode of :mod:`repro.exec.shard`:
        the plan is deterministically partitioned by job index (dependency
        chains stay within one shard), every shard runs in its own process
        as a session with this session's settings — sharing this session's
        ``cache_dir``, writing a per-shard JSONL file — and the per-shard
        files are stable-merged back into ``results_path`` in plan order
        (byte-identical to a single-process run of the same plan whenever
        the job results are, e.g. replayed from the shared cache).
        Results return in plan order; shard counters accumulate into
        :attr:`stats`.
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

    # ------------------------------------------------------------------
    # pipeline facade
    # ------------------------------------------------------------------
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
    # the asyncio core
    # ------------------------------------------------------------------
    async def arun(self, plan) -> List[InstanceResult]:
        """Async form of :meth:`run`."""
        plan = as_plan(plan)
        results: List[Optional[InstanceResult]] = [None] * len(plan)
        async for event in self.astream(plan):
            results[event.index] = event.result
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - defensive: every node yields one event
            raise RuntimeError(f"session produced no result for nodes {missing}")
        return results  # type: ignore[return-value]

    async def astream(self, plan) -> AsyncIterator[ResultEvent]:
        """Execute ``plan``, yielding one event per node as it completes.

        Nodes whose result comes from the resume log or the cache resolve
        first (in plan order, without consuming worker slots); pending
        nodes execute under the slot semaphore, respecting ``after`` edges,
        and their events arrive in completion order.  Cache and JSONL
        writes always happen in plan order, so the stores are byte-stable
        across worker counts.

        This wrapper adds the observability shell around the core: the
        ``session.run`` span, the :attr:`on_event` hook (progress
        rendering) and the end-of-run span/metrics flush — none of which
        touches results, stores or event order.
        """
        plan = as_plan(plan)
        traced = obs.tracing_enabled()
        span = obs.NULL_SCOPE
        if traced:
            span = obs.trace_span(
                "session.run",
                category="session",
                jobs=len(plan),
                workers=self.workers,
            )
        before = (self.stats.executed, self.stats.cache_hits, self.stats.resumed)
        with span:
            try:
                async for event in self._astream_inner(plan):
                    if self.on_event is not None:
                        self.on_event(event, self.stats)
                    yield event
            finally:
                if traced:
                    span.set(
                        executed=self.stats.executed - before[0],
                        cache_hits=self.stats.cache_hits - before[1],
                        resumed=self.stats.resumed - before[2],
                    )
                    obs.flush_observability()

    async def _astream_inner(self, plan: RunPlan) -> AsyncIterator[ResultEvent]:
        """The asyncio core behind :meth:`astream` (already a ``RunPlan``)."""
        from repro.experiments.parallel import execute_job
        from repro.experiments.runner import InstanceResult
        nodes = plan.nodes
        self.stats.total += len(nodes)
        keys = [node.job.key() for node in nodes]

        # always index an existing results file (not only under resume):
        # appends must skip keys the file already holds, or a cache-served
        # re-run would double-count every instance
        recorded = self.log.recorded()
        resolved: Dict[int, ResultEvent] = {}
        pending: List[int] = []
        for i, (node, key) in enumerate(zip(nodes, keys)):
            if self.resume and key in recorded:
                result = InstanceResult.from_dict(recorded[key])
                self.stats.resumed += 1
                # keep the two stores consistent: a result resumed from the
                # JSONL file also becomes a disk-cache entry
                self.cache.store(key, result)
                resolved[i] = self._event(plan, i, key, result, "resumed")
                continue
            cached = self.cache.load(key)
            if cached is not None:
                self.stats.cache_hits += 1
                # the results file must record the whole batch, not only
                # the jobs that happened to miss the cache
                self.log.append(key, node.job, cached)
                resolved[i] = self._event(plan, i, key, cached, "cache")
                continue
            pending.append(i)

        for i in sorted(resolved):
            yield resolved[i]
        if not pending:
            return

        loop = asyncio.get_running_loop()
        inline = self.workers == 1 or len(pending) == 1
        if inline:
            # sequential execution *in the driving thread* (no executor):
            # Ctrl-C lands inside the running solver, and nothing can
            # outlive the interpreter.
            # Pipelines inherit the session's slots, so race branches can
            # still fan out over threads.
            executor = None
            workers = self.workers

            def call(job):
                with slot_scope(workers):
                    return execute_job(job)

        else:
            executor = self._make_executor(len(pending))
            call = execute_job

        semaphore = asyncio.Semaphore(self.workers)
        done_flags = {node.id: asyncio.Event() for node in nodes}
        for i in resolved:
            done_flags[nodes[i].id].set()
        queue: asyncio.Queue = asyncio.Queue()
        traced = obs.tracing_enabled()
        # job lifecycle spans chain to the session span explicitly: several
        # are open at once in this thread, so the stack cannot order them
        session_span_id = obs.get_tracer().current_span_id() if traced else None
        busy_slots = [0]

        async def run_node(i: int) -> None:
            node = nodes[i]
            try:
                queued_at = loop.time()
                for dep in node.after:
                    await done_flags[dep].wait()
                async with semaphore:
                    busy_slots[0] += 1
                    job_span = obs.NULL_SCOPE
                    if traced:
                        job_span = obs.trace_span_detached(
                            "session.job",
                            category="session",
                            parent=session_span_id,
                            node=node.id,
                            instance=node.job.instance_name,
                            queued_wait=loop.time() - queued_at,
                            slots_busy=busy_slots[0],
                            workers=self.workers,
                        )
                        obs.observe("session.slots_busy", busy_slots[0])
                    try:
                        with job_span:
                            result = await execute_one(node)
                    finally:
                        busy_slots[0] -= 1
            except BaseException as exc:  # repro: lint-ignore[REP-C03] - queued and resurfaced by the plan driver
                queue.put_nowait((i, None, exc))
                return
            queue.put_nowait((i, result, None))
            done_flags[node.id].set()

        async def execute_one(node) -> InstanceResult:
            if executor is None:
                # inline: block the driving thread for this job (the
                # job_timeout liveness guard applies to pool execution
                # only, since a thread cannot be interrupted).  The
                # cooperative yield first lets the previous job's event
                # reach the consumer and gives pending cancellations (an
                # abandoned stream) a point to land between jobs.
                await asyncio.sleep(0)
                return call(node.job)
            future = loop.run_in_executor(executor, call, node.job)
            if self.job_timeout is not None:
                # the session timeout is detected *here*, at the wait_for
                # call site: on Python >= 3.11 asyncio.TimeoutError is
                # TimeoutError, so a TimeoutError raised by the job itself
                # is indistinguishable by type downstream.  The shield
                # keeps wait_for from cancelling the future, so a job that
                # completed (or raised) exactly at the limit is honoured
                # as-is.
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), self.job_timeout
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    if future.done() and not future.cancelled():
                        # the job finished: surface its own result or
                        # error untouched
                        return future.result()
                    raise TimeoutError(
                        f"job {node.id!r} exceeded the session "
                        f"job_timeout of {self.job_timeout:g}s"
                    ) from None
            return await future

        tasks = [asyncio.create_task(run_node(i)) for i in pending]
        # persistence happens in plan order regardless of completion order
        to_persist = deque(pending)
        finished: Dict[int, InstanceResult] = {}
        try:
            for _ in range(len(pending)):
                i, result, error = await queue.get()
                if error is not None:
                    raise error
                finished[i] = result
                while to_persist and to_persist[0] in finished:
                    j = to_persist.popleft()
                    self.stats.executed += 1
                    self.cache.store(keys[j], finished[j])
                    self.log.append(keys[j], nodes[j].job, finished[j])
                yield self._event(plan, i, keys[i], result, "executed")
        except BaseException:
            # on failure/timeout the pool is abandoned without waiting
            # (queued jobs cancelled, a stuck worker orphaned) so the
            # caller is actually unblocked
            for task in tasks:
                task.cancel()
            # jobs that already completed must not be re-executed by a
            # resumed run: drain any completions still queued, write every
            # finished result to the cache, and extend the JSONL log while
            # contiguous in plan order (the log stays plan-ordered, so it
            # stops at the first unfinished node)
            while True:
                try:
                    j, result, err = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if err is None and result is not None:
                    finished[j] = result
            for j in to_persist:
                if j in finished:
                    self.stats.executed += 1
                    self.cache.store(keys[j], finished[j])
            while to_persist and to_persist[0] in finished:
                j = to_persist.popleft()
                self.log.append(keys[j], nodes[j].job, finished[j])
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            raise
        if executor is not None:
            executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _make_executor(self, pending_count: int):
        """The worker pool for non-inline execution (a seam for tests, which
        substitute a thread pool to exercise the pool failure paths without
        real processes)."""
        return ProcessPoolExecutor(max_workers=min(self.workers, pending_count))

    @staticmethod
    def _event(
        plan: RunPlan, index: int, key: str, result: InstanceResult, source: str
    ) -> ResultEvent:
        node = plan.nodes[index]
        return ResultEvent(
            index=index,
            node_id=node.id,
            key=key,
            instance=node.job.instance_name,
            result=result,
            source=source,
            member=str(dict(node.job.params).get("member", "")),
        )
