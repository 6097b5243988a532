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
``Session.stream`` starts no job beyond those already handed to the pool
and stores every result that already finished.

The pool keeps two jobs per worker in flight; a job's ``job_timeout`` clock
starts only once a worker can have taken it, and a timeout terminates the
pool's worker processes, so a stuck job cannot hold the interpreter's exit.

The pool tests substitute a thread pool for the process pool (the
``Session._make_executor`` seam), so a monkeypatched ``execute_job`` is
visible to the "workers" and failures are deterministic.
"""

import gc
import os
import signal
import subprocess
import sys
import textwrap
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
        # at most the window of two jobs per worker: the jobs already
        # handed to the pool when the consumer broke off may still run
        assert len(started) <= 4
        assert done_before_break
        for key in done_before_break:
            assert session.cache.load(key) is not None


class _CountingPool(ThreadPoolExecutor):
    """A thread pool that records how many submitted jobs have not finished."""

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.lock = threading.Lock()
        self.submitted = 0
        self.in_flight = 0
        self.peak = 0

    def submit(self, fn, *args, **kwargs):
        with self.lock:
            self.submitted += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        future = super().submit(fn, *args, **kwargs)
        future.add_done_callback(self._finished)
        return future

    def _finished(self, _future):
        with self.lock:
            self.in_flight -= 1


class TestPoolWindow:
    """Each worker has a job queued behind the one it runs, so it never
    waits for this thread to see a result before its next job."""

    def test_a_third_job_is_queued_before_the_first_two_finish(self, monkeypatch):
        pools = []

        class CountingSession(Session):
            def _make_executor(self, pending_count):
                pools.append(_CountingPool(min(self.workers, pending_count)))
                return pools[-1]

        def gated_execute(job):
            # finish only once a third job was submitted (or give up)
            deadline = time.monotonic() + 5.0
            while pools[0].submitted < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            return _fake_result(job)

        monkeypatch.setattr("repro.experiments.parallel.execute_job", gated_execute)
        jobs = _jobs(7)
        started = time.monotonic()
        results = CountingSession(workers=2).run(RunPlan.from_jobs(jobs))
        assert [r.instance_name for r in results] == [j.instance_name for j in jobs]
        # the first two jobs were not held until the 5 s give-up
        assert time.monotonic() - started < 4.0
        assert pools[0].submitted == 7
        assert pools[0].peak == 4

    def test_a_queued_job_is_not_timed_while_it_waits(self, monkeypatch):
        """Jobs 3 and 4 wait 0.3 s behind jobs 1 and 2 and run 0.3 s: a
        clock started at submission would time job 3 out at 0.5 s."""

        def slow_execute(job):
            time.sleep(0.3)
            return _fake_result(job)

        monkeypatch.setattr("repro.experiments.parallel.execute_job", slow_execute)
        jobs = _jobs(4)
        results = ThreadedSession(workers=2, job_timeout=0.5).run(RunPlan.from_jobs(jobs))
        assert [r.instance_name for r in results] == [j.instance_name for j in jobs]

    def test_a_queued_job_may_finish_before_its_clock_starts(self, monkeypatch):
        """A queued job can finish before this thread sees an older job
        finish, so its clock never started.  A pool wider than the session's
        workers makes that certain: job 3 finishes while jobs 1 and 2 run."""
        jobs = _jobs(4)
        third_done = threading.Event()

        class WidePoolSession(Session):
            def _make_executor(self, pending_count):
                return ThreadPoolExecutor(max_workers=3)

        def execute(job):
            if job is jobs[2]:
                third_done.set()
            else:
                third_done.wait(timeout=5.0)
            return _fake_result(job)

        monkeypatch.setattr("repro.experiments.parallel.execute_job", execute)
        session = WidePoolSession(workers=2, job_timeout=30.0)
        results = session.run(RunPlan.from_jobs(jobs))
        assert [r.instance_name for r in results] == [j.instance_name for j in jobs]


STUCK_SCRIPT = textwrap.dedent("""
    import time

    import repro.experiments.parallel as parallel
    from repro.dag.generators import spmv
    from repro.exec import RunPlan, Session
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import ExperimentConfig


    def stuck(job):
        time.sleep(60)


    if __name__ == "__main__":
        config = ExperimentConfig(name="stuck", num_processors=2, ilp_time_limit=1.0)
        jobs = [
            ExperimentJob.make(spmv(3, seed=seed), config, member="bspg+clairvoyant")
            for seed in (1, 2, 3)
        ]
        parallel.execute_job = stuck
        try:
            Session(workers=2, job_timeout=1).run(RunPlan.from_jobs(jobs))
        except TimeoutError as exc:
            print("timed out:", exc)
""")


ORPHAN_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import time

    import repro.experiments.parallel as parallel
    from repro.dag.generators import spmv
    from repro.exec import RunPlan, Session
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import ExperimentConfig


    def stuck(job):
        open(os.path.join(sys.argv[1], f"{os.getpid()}.pid"), "w").close()
        time.sleep(60)


    if __name__ == "__main__":
        config = ExperimentConfig(name="orphan", num_processors=2)
        jobs = [
            ExperimentJob.make(spmv(3, seed=seed), config, member="bspg+clairvoyant")
            for seed in (1, 2, 3)
        ]
        parallel.execute_job = stuck
        Session(workers=2).run(RunPlan.from_jobs(jobs))
""")


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (a zombie waits
    only to be reaped; without procfs it counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestPoolWorkers:
    def test_workers_exit_when_the_coordinator_is_killed(self, tmp_path):
        script = tmp_path / "orphan.py"
        script.write_text(ORPHAN_SCRIPT)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(path.stem) for path in tmp_path.glob("*.pid")]
            assert len(workers) == 2, "the workers never started their jobs"
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)

    def test_workers_freeze_the_inherited_heap(self):
        with Session(workers=2)._make_executor(2) as pool:
            assert pool.submit(gc.get_freeze_count).result(timeout=60) > 0

    def test_a_timed_out_stuck_job_does_not_hold_the_exit(self, tmp_path):
        script = tmp_path / "stuck.py"
        script.write_text(STUCK_SCRIPT)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert time.monotonic() - started < 20
        assert proc.returncode == 0, proc.stderr
        assert "exceeded the session job_timeout of 1s" in proc.stdout


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


class TestSessionReleasesTheLog:
    """A session closes its JSONL append handle when a run ends, fails or is
    abandoned; the next append reopens it."""

    @pytest.fixture
    def fake_jobs(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.execute_job", _fake_result)
        return _jobs(3)

    def test_run_closes_the_handle(self, tmp_path, fake_jobs):
        session = Session(results_path=tmp_path / "r.jsonl")
        session.run(RunPlan.from_jobs(fake_jobs[:2]))
        assert session.log._handle is None
        # the next run reopens the file and appends after the first run
        session.run(RunPlan.from_jobs(fake_jobs))
        assert session.log._handle is None
        session.log.close()  # a second close is harmless
        keys = [r["key"] for r in iter_jsonl_records(tmp_path / "r.jsonl")]
        assert keys == [job.key() for job in fake_jobs]

    def test_abandoned_stream_closes_the_handle(self, tmp_path, fake_jobs):
        session = Session(results_path=tmp_path / "r.jsonl")
        for _event in session.stream(RunPlan.from_jobs(fake_jobs)):
            assert session.log._handle is not None
            break
        assert session.log._handle is None
        keys = [r["key"] for r in iter_jsonl_records(tmp_path / "r.jsonl")]
        assert keys == [fake_jobs[0].key()]

    def test_failed_run_closes_the_handle(self, tmp_path, monkeypatch):
        jobs = _jobs(2)

        def fail_second(job):
            if job is jobs[1]:
                raise RuntimeError("boom")
            return _fake_result(job)

        monkeypatch.setattr("repro.experiments.parallel.execute_job", fail_second)
        session = Session(results_path=tmp_path / "r.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            session.run(RunPlan.from_jobs(jobs))
        assert session.log._handle is None
