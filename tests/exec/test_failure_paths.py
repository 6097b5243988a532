"""Regression tests for the exec-core failure paths.

Three long-lived-service bugs (found by the ``repro.serve`` loop, fixed in
the same PR):

* a batch failure used to drop the already-completed results of later plan
  nodes (persistence is plan-order gated) — now they are flushed to the
  cache (and to the JSONL log while contiguous), so a resumed run
  re-executes only the failed job;
* a ``TimeoutError`` raised *inside* a job used to be rewrapped as the
  session ``job_timeout`` (on Python >= 3.11 ``asyncio.TimeoutError is
  TimeoutError``) — the wait_for timeout is now caught at its call site;
* ``ResultLog.append`` used to reopen the results file per record — it now
  keeps one lazily-opened, flushed append handle with ``close()`` /
  context-manager support.

An abandoned pool stream must stop the run: breaking out of
``Session.stream`` cancels the queued jobs and stores every result that
already finished.

The pool tests substitute a thread pool for the process pool (the
``Session._make_executor`` seam), so a monkeypatched ``execute_job`` is
visible to the "workers" and failures are deterministic.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exec import ResultLog, RunPlan, Session
from repro.experiments.parallel import ExperimentJob
from repro.experiments.reporting import iter_jsonl_records
from repro.experiments.runner import ExperimentConfig, InstanceResult

CFG = ExperimentConfig(name="failure-test", num_processors=2, ilp_time_limit=1.0)


def _jobs(count=4):
    jobs = []
    for seed in range(1, count + 1):
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        jobs.append(
            ExperimentJob.make(dag, CFG, member="bspg+clairvoyant")
        )
    return jobs


class ThreadedSession(Session):
    """A session whose worker pool is a thread pool, so tests can
    monkeypatch ``execute_job`` (worker processes would re-import the real
    one) and inject deterministic failures."""

    def _make_executor(self, pending_count):
        return ThreadPoolExecutor(max_workers=min(self.workers, pending_count))


def _fake_result(job):
    return InstanceResult(
        instance_name=job.instance_name,
        num_nodes=3,
        baseline_cost=10.0,
        ilp_cost=10.0,
        solver_status="fake",
    )


class TestMidPlanFailure:
    def test_completed_results_survive_and_resume_skips_them(
        self, tmp_path, monkeypatch
    ):
        jobs = _jobs(4)
        fail_key = jobs[1].key()
        calls = []
        lock = threading.Lock()

        def failing_execute(job):
            with lock:
                calls.append(job.instance_name)
            if job.key() == fail_key:
                # fail *after* the other jobs completed, so their results
                # exist (out of plan order) when the failure is raised
                time.sleep(0.5)
                raise RuntimeError("boom")
            return _fake_result(job)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", failing_execute
        )
        session = ThreadedSession(
            workers=4,
            cache_dir=tmp_path / "cache",
            results_path=tmp_path / "results.jsonl",
        )
        with pytest.raises(RuntimeError, match="boom"):
            session.run(RunPlan.from_jobs(jobs))

        # every completed job reached the cache — including those *after*
        # the failed plan position, which used to be dropped
        for job in (jobs[0], jobs[2], jobs[3]):
            assert session.cache.load(job.key()) is not None, job.instance_name
        assert session.cache.load(fail_key) is None
        # the JSONL log stays plan-ordered: it holds the contiguous prefix
        recorded = [
            r["key"] for r in iter_jsonl_records(tmp_path / "results.jsonl")
        ]
        assert recorded == [jobs[0].key()]
        assert sorted(calls) == sorted(j.instance_name for j in jobs)

        # a resumed run re-executes only the failed job
        calls.clear()

        def fixed_execute(job):
            with lock:
                calls.append(job.instance_name)
            return _fake_result(job)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", fixed_execute
        )
        resumed = ThreadedSession(
            workers=4,
            cache_dir=tmp_path / "cache",
            results_path=tmp_path / "results.jsonl",
            resume=True,
        )
        events = {
            e.index: e.source for e in resumed.stream(RunPlan.from_jobs(jobs))
        }
        assert calls == [jobs[1].instance_name]
        assert resumed.stats.executed == 1
        assert resumed.stats.resumed == 1  # job 0, from the log
        assert resumed.stats.cache_hits == 2  # jobs 2 and 3, from the cache
        assert events == {0: "resumed", 1: "executed", 2: "cache", 3: "cache"}

    def test_failure_without_stores_still_raises(self, monkeypatch):
        jobs = _jobs(2)

        def failing_execute(job):
            raise ValueError("no stores configured")

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", failing_execute
        )
        with pytest.raises(ValueError, match="no stores"):
            ThreadedSession(workers=2).run(RunPlan.from_jobs(jobs))


class TestJobTimeoutLabeling:
    @pytest.mark.parametrize("job_timeout", [None, 30.0])
    def test_job_raised_timeout_surfaces_untouched(
        self, monkeypatch, job_timeout
    ):
        """A job raising TimeoutError internally must not be relabeled as a
        session job_timeout — with the bound unset *and* set."""
        jobs = _jobs(2)
        marker = jobs[0].key()

        def timing_out_execute(job):
            if job.key() == marker:
                raise TimeoutError("solver stage gave up")
            return _fake_result(job)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", timing_out_execute
        )
        session = ThreadedSession(workers=2, job_timeout=job_timeout)
        with pytest.raises(TimeoutError) as err:
            session.run(RunPlan.from_jobs(jobs))
        assert "solver stage gave up" in str(err.value)
        assert "job_timeout" not in str(err.value)

    def test_genuine_session_timeout_is_labeled(self, monkeypatch):
        jobs = _jobs(2)

        def slow_execute(job):
            time.sleep(0.5)
            return _fake_result(job)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", slow_execute
        )
        session = ThreadedSession(workers=2, job_timeout=0.05)
        with pytest.raises(TimeoutError, match="exceeded the session job_timeout"):
            session.run(RunPlan.from_jobs(jobs))

    def test_completed_result_at_the_limit_is_honoured(self, monkeypatch):
        """The shield keeps wait_for from discarding a job that completed
        exactly when the timeout fired: a generous bound never truncates."""
        jobs = _jobs(2)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", _fake_result
        )
        session = ThreadedSession(workers=2, job_timeout=30.0)
        results = session.run(RunPlan.from_jobs(jobs))
        assert [r.instance_name for r in results] == [
            j.instance_name for j in jobs
        ]


class TestAbandonedPoolStream:
    def test_break_starts_no_more_jobs_and_keeps_finished_results(
        self, tmp_path, monkeypatch
    ):
        jobs = _jobs(6)
        started, completed = [], []
        lock = threading.Lock()

        def slow_execute(job):
            with lock:
                started.append(job.key())
            time.sleep(0.2)
            with lock:
                completed.append(job.key())
            return _fake_result(job)

        monkeypatch.setattr(
            "repro.experiments.parallel.execute_job", slow_execute
        )
        session = ThreadedSession(workers=2, cache_dir=tmp_path / "cache")
        for _ in session.stream(RunPlan.from_jobs(jobs)):
            with lock:
                done_before_break = list(completed)
            break
        time.sleep(1.0)  # give an (incorrect) runaway time to show
        # the two jobs in flight at the first event, and at most the two
        # that refilled the window before it was yielded
        assert len(started) <= 4
        assert done_before_break
        for key in done_before_break:
            assert session.cache.load(key) is not None


class TestResultLogHandle:
    def test_one_lazily_opened_handle_across_appends(self, tmp_path):
        job = _jobs(1)[0]
        log = ResultLog(tmp_path / "r.jsonl")
        assert log._handle is None  # lazy: no file touched before an append
        log.append("k1", job, _fake_result(job))
        handle = log._handle
        assert handle is not None
        log.append("k2", job, _fake_result(job))
        assert log._handle is handle  # no per-record reopen
        # flushed after every record: a reader sees complete lines now
        keys = [r["key"] for r in iter_jsonl_records(log.results_path)]
        assert keys == ["k1", "k2"]
        # the dedup contract is unchanged
        log.append("k1", job, _fake_result(job))
        assert [r["key"] for r in iter_jsonl_records(log.results_path)] == [
            "k1", "k2"
        ]
        log.close()
        assert log._handle is None

    def test_invalidate_closes_and_next_append_reopens(self, tmp_path):
        job = _jobs(1)[0]
        path = tmp_path / "r.jsonl"
        log = ResultLog(path)
        log.append("k1", job, _fake_result(job))
        log.invalidate()
        assert log._handle is None
        # the file was rewritten underneath (the shard-merge scenario);
        # the next append must open the *new* file, not the old inode
        path.unlink()
        log.append("k2", job, _fake_result(job))
        assert [r["key"] for r in iter_jsonl_records(path)] == ["k2"]

    def test_context_manager_releases_the_handle(self, tmp_path):
        job = _jobs(1)[0]
        with ResultLog(tmp_path / "r.jsonl") as log:
            log.append("k1", job, _fake_result(job))
            assert log._handle is not None
        assert log._handle is None

    def test_disabled_log_appends_are_noops(self, tmp_path):
        job = _jobs(1)[0]
        log = ResultLog(None)
        log.append("k1", job, _fake_result(job))
        assert log._handle is None
        log.close()  # must not raise
