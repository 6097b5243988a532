"""The unit of work of every experiment: one pipeline spec on one instance.

* :class:`ExperimentJob` — one picklable unit of work: a serialized DAG, an
  :class:`~repro.experiments.runner.ExperimentConfig` and the job
  parameters (the canonical pipeline spec under ``"member"``, plus an
  optional ``"prune_gap"``).  Every job has a stable content hash
  (:meth:`ExperimentJob.key`) over the DAG structure, weights and the full
  configuration — including the per-job ILP solver backend
  (``ExperimentConfig.ilp_backend``), so sweeps over different backends
  never collide in the result cache.
* :func:`job_keys` — the keys of many jobs at once, each DAG and config
  encoded once; :meth:`ExperimentJob.key` is its one-job case.
* :func:`execute_job` — runs one job to completion; this is the function
  :class:`repro.exec.Session` calls inline or in its worker processes.

Jobs are built by :func:`repro.exec.plan.pipeline_job` and executed as
:class:`~repro.exec.plan.RunPlan` nodes by a :class:`repro.exec.Session`,
which provides the process pool, the content-hash disk cache and JSONL
streaming with resume.  The paper's tables (:mod:`repro.experiments.tables`),
the portfolio, ``repro exec run`` and the serve layer all submit such jobs.
Results come back in plan order, so a parallel run is *bit-identical* to
the serial one whenever the jobs themselves are deterministic: two-stage
pipelines always are, and ILP jobs are when solved to optimality or bounded
by ``ExperimentConfig.ilp_node_limit`` (with a time limit generous enough
that the node limit is what binds).  A *wall-clock*-limited ILP that hits
its limit can return a different incumbent under CPU contention — use node
limits (CLI: ``--node-limit``) for sweeps that must be exactly
reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, List, Tuple

from repro.dag.graph import ComputationalDag
from repro.dag.io import dag_from_dict, dag_to_dict
from repro.experiments.runner import ExperimentConfig, InstanceResult


@dataclass(frozen=True)
class ExperimentJob:
    """One unit of work: run one pipeline spec on one instance.

    The DAG is stored in its plain-dict form so jobs are cheap to pickle
    into worker processes and so the job hash covers the exact graph
    structure and weights rather than object identity.
    """

    #: Every job runs a pipeline spec.  The constant stays in the key
    #: payload and the JSONL record (under the name of the job kind that
    #: ran pipelines when there were several), so existing caches, results
    #: files and mined histories keep their keys.
    kind: ClassVar[str] = "portfolio"

    dag_data: dict
    config: ExperimentConfig
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls,
        dag: ComputationalDag,
        config: ExperimentConfig,
        **params,
    ) -> "ExperimentJob":
        """Build a job from a live DAG; keyword arguments become job parameters."""
        return cls(
            dag_data=dag_to_dict(dag),
            config=config,
            params=tuple(sorted(params.items())),
        )

    def dag(self) -> ComputationalDag:
        """Materialize the job's DAG."""
        return dag_from_dict(self.dag_data)

    @property
    def instance_name(self) -> str:
        return str(self.dag_data.get("name", "dag"))

    def key(self) -> str:
        """Stable content hash of the job (DAG + config + params); see
        :func:`job_keys`."""
        return job_keys([self])[0]


def _dumps(value) -> str:
    # the keys' encoding; DAG dicts, config dicts and param lists are plain
    # acyclic data, so the circular-reference check is skipped
    return json.dumps(value, sort_keys=True, default=repr, check_circular=False)


def job_keys(jobs: Iterable[ExperimentJob]) -> List[str]:
    """The content hash of each job, in order.

    A key is the sha256 of ``json.dumps(payload, sort_keys=True,
    default=repr)`` over the payload ``{"kind": job.kind, "dag":
    job.dag_data, "config": asdict(job.config), "params": [[k, v], ...]}``.
    Sorted, the config and the DAG come first, so the hash state after
    them is computed once per (config object, DAG dict object) pair in
    ``jobs`` and copied for each job of the pair, which adds its own kind
    and params: a plan's jobs share one DAG dict per instance.  A job of
    another type (the stores and the shard merge need only a ``key()``)
    keys itself.
    """
    jobs = list(jobs)  # held, so no id below is reused during the call
    prefixes: dict = {}
    keys = []
    for job in jobs:
        if not isinstance(job, ExperimentJob):
            keys.append(job.key())
            continue
        pair = (id(job.config), id(job.dag_data))
        prefix = prefixes.get(pair)
        if prefix is None:
            config = _dumps(asdict(job.config))
            head = f'{{"config": {config}, "dag": {_dumps(job.dag_data)}'
            prefix = prefixes[pair] = hashlib.sha256(head.encode("utf-8"))
        params = [[k, v] for k, v in job.params]
        tail = f', "kind": {_dumps(job.kind)}, "params": {_dumps(params)}}}'
        digest = prefix.copy()
        digest.update(tail.encode("utf-8"))
        keys.append(digest.hexdigest())
    return keys


def execute_job(job: ExperimentJob) -> InstanceResult:
    """Run one job to completion (this is the function worker processes run).

    The result carries per-job solver telemetry (``InstanceResult.
    solver_stats``): the number of MILP solves dispatched while the job ran
    and the wall time spent inside the solvers, per backend, read from the
    job's :class:`repro.obs.Meter`.  The meter counts in the executing
    process, so it is correct both inline and under the process pool.
    """
    from repro import obs
    # imported lazily: repro.portfolio.members imports this package
    from repro.portfolio.members import run_member

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
