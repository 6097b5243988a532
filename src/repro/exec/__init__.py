"""Unified execution core (``repro.exec``).

One :class:`Session` API executes everything: experiment batches, portfolio
sweeps and individual pipelines are all :class:`RunPlan`\\ s — ordered lists
of uniquely named pipeline jobs — run inline or on a process pool with
bounded worker slots, streaming :class:`ResultEvent`\\ s.  The content-hash
result cache, JSONL streaming + resume, and in-pipeline concurrency slots
(used by ``race`` stages) are session services.  The paper's tables and
the ``Portfolio`` build their plans with :func:`plan_pipelines` and run
them on a session; a plain batch of jobs runs as
``Session.run(RunPlan.from_jobs(jobs))``.
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

from repro.exec.plan import PlanNode, RunPlan, as_plan, pipeline_job, plan_pipelines
from repro.exec.session import ResultEvent, Session, SessionStats
from repro.exec.shard import (
    PlanShard,
    merge_shard_logs,
    run_sharded,
    shard_assignment,
    shard_plan,
    shard_results_path,
)
from repro.exec.slots import branch_slots, slot_scope
from repro.exec.store import ResultCache, ResultLog

__all__ = [
    "PlanNode",
    "PlanShard",
    "ResultCache",
    "ResultEvent",
    "ResultLog",
    "RunPlan",
    "Session",
    "SessionStats",
    "as_plan",
    "branch_slots",
    "merge_shard_logs",
    "pipeline_job",
    "plan_pipelines",
    "run_sharded",
    "shard_assignment",
    "shard_plan",
    "shard_results_path",
    "slot_scope",
]
