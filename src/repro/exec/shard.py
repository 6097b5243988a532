"""Coordinator/worker sharded execution of run plans.

A :class:`~repro.exec.plan.RunPlan` is a serializable list of jobs and the
JSONL result store is plan-ordered and byte-stable — which makes plans
splittable across processes (or machines) with no coordination beyond a
shared filesystem:

* :func:`shard_assignment` deterministically partitions a plan's nodes
  into ``shards`` shards by job index: node ``i`` runs in shard
  ``i % shards``.
* Every shard executes as an ordinary :class:`~repro.exec.session.Session`
  over its sub-plan — against a **shared** content-hash cache directory
  (safe for concurrent writer processes, see :mod:`repro.exec.store`) and
  a **per-shard** JSONL file (:func:`shard_results_path`; the JSONL log is
  single-appender by contract).
* :func:`merge_shard_logs` stable-merges the per-shard files back into
  plan order.  Lines are moved verbatim (never re-serialized), so the
  merged file is *byte-identical* to the file a single-machine run of the
  same plan would have produced, whenever the job results themselves are
  byte-identical — always true when shards replay a shared cache, and
  true for fresh runs up to the wall-clock telemetry fields
  (``solve_time`` / ``solver_stats``), which is why the determinism suite
  and CI prove the guarantee against a shared cache.

Two front-ends in the CLI (``repro exec run``): ``--shards N --shard-id I``
runs one worker shard (one invocation per shard, any machine, then
``repro exec merge``), and ``--spawn-shards N`` is the single-machine
fork-join convenience wrapped by :func:`run_sharded` /
:meth:`Session.run_sharded`.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.exceptions import ConfigurationError
from repro.exec.plan import RunPlan, as_plan, job_keys
from repro.exec.store import PathLike
from repro.pipeline import InstanceResult


@dataclass(frozen=True)
class PlanShard:
    """One worker's slice of a plan: the sub-plan plus its plan positions.

    ``indices[i]`` is the full-plan position of the sub-plan's ``i``-th
    node — the coordinator uses it to reassemble results (and the CLI to
    label streamed events) in full-plan order.
    """

    shards: int
    shard_id: int
    indices: Tuple[int, ...]
    plan: RunPlan


def shard_assignment(plan, shards: int) -> List[int]:
    """The shard id of every plan node: node ``i`` runs in shard
    ``i % shards``.  Raises :class:`ConfigurationError` for a shard count
    below 1."""
    shards = int(shards)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    return [i % shards for i in range(len(as_plan(plan)))]


def shard_plan(plan, shards: int, shard_id: int) -> PlanShard:
    """Shard ``shard_id`` of ``plan`` split into ``shards`` shards."""
    plan = as_plan(plan)
    shards = int(shards)
    shard_id = int(shard_id)
    assignment = shard_assignment(plan, shards)
    if not 0 <= shard_id < shards:
        raise ConfigurationError(
            f"shard_id must be in [0, {shards}), got {shard_id}"
        )
    indices = tuple(i for i, s in enumerate(assignment) if s == shard_id)
    return PlanShard(
        shards=shards,
        shard_id=shard_id,
        indices=indices,
        plan=plan.subset(indices),
    )


def shard_results_path(
    results_path: PathLike, shards: int, shard_id: int
) -> Path:
    """The per-shard JSONL file derived from the merged results path.

    Built by name concatenation (``results.jsonl`` →
    ``results.jsonl.shard0of4``) so the merged path survives verbatim as
    the prefix regardless of dots in the file name.
    """
    return Path(str(results_path) + f".shard{int(shard_id)}of{int(shards)}")


def merge_shard_logs(
    plan,
    results_path: PathLike,
    shards: int,
    merged_path: Optional[PathLike] = None,
) -> Path:
    """Stable-merge per-shard JSONL files back into plan order.

    Reads every shard file (:func:`shard_results_path`), then emits each
    plan node's record — verbatim, the raw line is never re-serialized —
    in plan order, each job key once (matching the single-appender dedup
    of :class:`~repro.exec.store.ResultLog`).  The merged file is written
    atomically to ``merged_path`` (default: ``results_path`` itself) and
    is byte-identical to the single-process results file whenever the
    per-shard records are.  A plan node whose record is missing from its
    shard's file (interrupted worker, wrong ``--shards`` count) raises a
    clear :class:`ConfigurationError` naming the shard file to re-run.
    """
    plan = as_plan(plan)
    assignment = shard_assignment(plan, shards)
    shard_lines: List[dict] = []
    for shard_id in range(int(shards)):
        lines: dict = {}
        path = shard_results_path(results_path, shards, shard_id)
        if path.is_file():
            with open(path, "r") as handle:
                for raw in handle:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        key = str(json.loads(line)["key"])
                    except (ValueError, KeyError, TypeError):
                        continue  # skip-malformed contract of the stores
                    lines.setdefault(key, line)
        shard_lines.append(lines)

    merged: List[str] = []
    emitted: set = set()
    keys = job_keys([node.job for node in plan.nodes])
    for i, (node, key) in enumerate(zip(plan.nodes, keys)):
        if key in emitted:
            continue
        line = shard_lines[assignment[i]].get(key)
        if line is None:
            path = shard_results_path(results_path, shards, assignment[i])
            raise ConfigurationError(
                f"shard merge failed: no record for plan node {node.id!r} "
                f"(instance {node.job.instance_name!r}, key {key[:12]}...) "
                f"in {path} — re-run shard {assignment[i]} of {shards}, and "
                f"check that --shards and the plan flags match the shard runs"
            )
        merged.append(line)
        emitted.add(key)

    target = Path(merged_path if merged_path is not None else results_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=".merge-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            for line in merged:
                handle.write(line + "\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def _run_shard_worker(
    nodes,
    shards: int,
    shard_id: int,
    workers: int,
    cache_dir,
    results_path,
    resume: bool,
    job_timeout,
):
    """Executed in a worker process: run one shard through its own session.

    Returns ``(indices, result_dicts, stats)`` — full-plan positions, the
    serialized results in sub-plan order, and the shard session's counter
    tuple for the coordinator to aggregate.
    """
    from repro.exec.session import Session

    plan = RunPlan(nodes)
    shard = shard_plan(plan, shards, shard_id)
    session = Session(
        workers=workers,
        cache_dir=cache_dir,
        results_path=(
            shard_results_path(results_path, shards, shard_id)
            if results_path is not None
            else None
        ),
        resume=resume,
        job_timeout=job_timeout,
    )
    # the worker inherits tracing from REPRO_TRACE (spawn) or the forked
    # tracer state; its spans spill per-pid and merge into one timeline
    span = obs.NULL_SCOPE
    if obs.tracing_enabled():
        span = obs.trace_span(
            "shard.run",
            category="session",
            shard=shard_id,
            shards=shards,
            jobs=len(shard.plan),
        )
    try:
        with span:
            results = session.run(shard.plan)
    finally:
        if obs.tracing_enabled():
            # worker processes exit via os._exit: flush before returning
            obs.flush_observability()
    stats = session.stats
    return (
        shard.indices,
        [result.to_dict() for result in results],
        (stats.total, stats.executed, stats.cache_hits, stats.resumed),
    )


def run_sharded(
    plan,
    shards: int,
    *,
    workers: int = 1,
    cache_dir: Optional[PathLike] = None,
    results_path: Optional[PathLike] = None,
    resume: bool = False,
    job_timeout: Optional[float] = None,
    stats=None,
) -> List[InstanceResult]:
    """Fork-join coordinator: run ``plan`` as ``shards`` worker processes.

    Each shard runs in its own process as a ``Session(workers=workers)``
    against the shared ``cache_dir`` and its per-shard JSONL file; the
    coordinator then stable-merges the shard files into ``results_path``
    (when given) and returns the results in plan order.  A failing shard
    job propagates its exception to the coordinator.  ``stats`` (a
    :class:`~repro.exec.session.SessionStats`) accumulates the shard
    sessions' counters when provided.
    """
    plan = as_plan(plan)
    shards = int(shards)
    shard_assignment(plan, shards)  # validates the shard count
    results: List[Optional[InstanceResult]] = [None] * len(plan)
    payload = list(plan.nodes)
    with ProcessPoolExecutor(max_workers=max(1, shards)) as pool:
        futures = [
            pool.submit(
                _run_shard_worker,
                payload,
                shards,
                shard_id,
                workers,
                str(cache_dir) if cache_dir is not None else None,
                str(results_path) if results_path is not None else None,
                resume,
                job_timeout,
            )
            for shard_id in range(shards)
        ]
        for future in futures:
            indices, dicts, counters = future.result()
            for index, data in zip(indices, dicts):
                results[index] = InstanceResult.from_dict(data)
            if stats is not None:
                stats.total += counters[0]
                stats.executed += counters[1]
                stats.cache_hits += counters[2]
                stats.resumed += counters[3]
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive: assignment covers every node
        raise RuntimeError(f"sharded run produced no result for nodes {missing}")
    if results_path is not None:
        merge_shard_logs(plan, results_path, shards)
    return results  # type: ignore[return-value]
