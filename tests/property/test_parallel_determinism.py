"""Property-based tests (hypothesis) for parallel batch execution on a Session.

For random seeded DAGs a session must be a pure function of its job list:

* ``workers > 1`` returns bit-identical costs *and schedules* (compared via
  schedule digests carried in the result fingerprints) to serial execution;
* re-running against a warm disk cache returns identical results while
  executing zero jobs;
* job keys are deterministic across job-object rebuilds.

The members exercised here are the deterministic two-stage pipelines, so
any fingerprint difference is an execution bug, never solver noise.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dag.generators import random_layered_dag
from repro.exec import RunPlan, Session
from repro.experiments.parallel import ExperimentJob
from repro.experiments.runner import ExperimentConfig

MEMBERS = ("bspg+clairvoyant", "cilk+lru", "etf+clairvoyant")


@st.composite
def job_batches(draw):
    """A batch of portfolio jobs over random seeded DAGs."""
    num_dags = draw(st.integers(min_value=1, max_value=3))
    procs = draw(st.integers(min_value=1, max_value=3))
    factor = draw(st.floats(min_value=1.0, max_value=4.0))
    config = ExperimentConfig(
        name="prop", num_processors=procs, cache_factor=factor, ilp_time_limit=1.0
    )
    jobs = []
    for i in range(num_dags):
        layers = draw(st.integers(min_value=2, max_value=4))
        width = draw(st.integers(min_value=1, max_value=4))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        dag = random_layered_dag(layers, width, edge_probability=0.5, seed=seed)
        dag.name = f"prop_{i}_{seed}"
        members = draw(
            st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=3, unique=True)
        )
        jobs.extend(
            ExperimentJob.make(dag, config, member=member)
            for member in members
        )
    return jobs


@given(job_batches())
@settings(max_examples=6, deadline=None)
def test_parallel_engine_matches_serial_bit_for_bit(jobs):
    serial = Session(workers=1).run(RunPlan.from_jobs(jobs))
    parallel = Session(workers=2).run(RunPlan.from_jobs(jobs))
    # fingerprints include the member cost and the schedule digest, so this
    # asserts bit-identical costs AND schedules, in identical order
    assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]


@given(job_batches())
@settings(max_examples=6, deadline=None)
def test_cached_rerun_is_identical_and_free(tmp_path_factory, jobs):
    cache_dir = tmp_path_factory.mktemp("session-cache")
    warm = Session(workers=1, cache_dir=cache_dir)
    first = warm.run(RunPlan.from_jobs(jobs))
    cached = Session(workers=1, cache_dir=cache_dir)
    second = cached.run(RunPlan.from_jobs(jobs))
    assert cached.stats.executed == 0
    assert cached.stats.cache_hits == len(jobs)
    assert [r.fingerprint() for r in first] == [r.fingerprint() for r in second]


@given(job_batches())
@settings(max_examples=10, deadline=None)
def test_job_keys_are_deterministic_and_unique_per_job(jobs):
    keys = [job.key() for job in jobs]
    rebuilt = [
        ExperimentJob(dag_data=j.dag_data, config=j.config, params=j.params)
        for j in jobs
    ]
    assert [job.key() for job in rebuilt] == keys
    # distinct (dag, member) pairs must never collide
    assert len(set(keys)) == len(keys)
