"""The job runner: one pipeline spec on one instance, run to completion.

:func:`execute_job` is the function :class:`repro.exec.Session` calls for
every executed plan node, inline or in its worker processes.  The job type
and its content-hash keys live with the plans that hold them
(:class:`repro.exec.plan.ExperimentJob`, :func:`repro.exec.plan.job_keys`).

The session looks this function up here on every run, so a benchmark
harness or a test can rebind ``repro.experiments.parallel.execute_job``
and have every session job go through the replacement, worker processes
included.
"""

from __future__ import annotations

from repro import obs
from repro.exec.plan import ExperimentJob
from repro.pipeline import InstanceResult, run_member


def execute_job(job: ExperimentJob) -> InstanceResult:
    """Run one job to completion (this is the function worker processes run).

    The result carries per-job solver telemetry (``InstanceResult.
    solver_stats``): the number of MILP solves dispatched while the job ran
    and the wall time spent inside the solvers, per backend, read from the
    job's :class:`repro.obs.Meter`.  The meter counts in the executing
    process, so it is correct both inline and under the process pool.
    """
    meter = obs.Meter()
    span = obs.NULL_SCOPE
    traced = obs.tracing_enabled()
    if traced:
        span = obs.trace_span(
            "job.execute",
            category="session",
            instance=job.instance_name,
        )
    try:
        with meter, span:
            params = dict(job.params)
            member = str(params.pop("member"))
            result = run_member(job.dag(), job.config, member, **params)
            if traced:
                span.set(cost=result.ilp_cost, status=result.solver_status)
    finally:
        if traced:
            # flush at the job boundary: pool/shard workers exit via
            # os._exit, so atexit never runs there and an unflushed
            # buffer would simply be lost
            obs.flush_observability()
    # merge (not overwrite): pipeline jobs pre-populate diagnostics such as
    # the shared-prefix reuse counters, which live next to the solver stats
    result.solver_stats = {**result.solver_stats, **meter.solver_stats()}
    return result
