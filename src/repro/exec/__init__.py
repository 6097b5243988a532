"""Unified execution core (``repro.exec``).

One :class:`Session` API executes everything: experiment batches, portfolio
sweeps and individual pipelines are all :class:`RunPlan`\\ s — ordered lists
of uniquely named pipeline jobs (:class:`ExperimentJob`, keyed by
:func:`job_keys`) — run inline or on a process pool with bounded worker
slots, streaming :class:`ResultEvent`\\ s.  The content-hash result cache,
JSONL streaming + resume, and in-pipeline concurrency slots (granted to
``race`` stages through :mod:`repro.pipeline.slots`) are session services.
The paper's tables and the ``Portfolio`` build their plans with
:func:`plan_pipelines` and run them on a session; a plain batch of jobs
runs as ``Session.run(RunPlan.from_jobs(jobs))``.  The package imports
only from :mod:`repro.pipeline` and the layers below it; the one name it
looks up above, at run time, is the job runner
:func:`repro.experiments.parallel.execute_job`.
Plans also split across processes or machines (:mod:`repro.exec.shard`):
``Session.run_sharded(plan, shards)`` fork-joins locally, and the CLI's
``repro exec run --shards N --shard-id I`` / ``repro exec merge`` pair
runs shards anywhere that shares the cache directory, with the per-shard
JSONL files stable-merged back into plan order.

Quick start::

    >>> from repro.exec import Session, plan_pipelines
    >>> session = Session(workers=4, cache_dir=".repro-cache")
    >>> plan = plan_pipelines(["baseline|race(ilp@bnb,ilp@scipy)"], dags, config)
    >>> for event in session.stream(plan):
    ...     print(event.instance, event.result.ilp_cost, event.source)
"""

from repro.exec.plan import (
    ExperimentJob,
    PlanNode,
    RunPlan,
    as_plan,
    job_keys,
    pipeline_job,
    plan_pipelines,
)
from repro.exec.session import ResultEvent, Session, SessionStats
from repro.exec.shard import (
    PlanShard,
    merge_shard_logs,
    run_sharded,
    shard_assignment,
    shard_plan,
    shard_results_path,
)
from repro.exec.store import ResultCache, ResultLog, iter_jsonl_records

__all__ = [
    "ExperimentJob",
    "PlanNode",
    "PlanShard",
    "ResultCache",
    "ResultEvent",
    "ResultLog",
    "RunPlan",
    "Session",
    "SessionStats",
    "as_plan",
    "iter_jsonl_records",
    "job_keys",
    "merge_shard_logs",
    "pipeline_job",
    "plan_pipelines",
    "run_sharded",
    "shard_assignment",
    "shard_plan",
    "shard_results_path",
]
