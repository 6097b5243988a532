"""Jobs and run plans: the work executed by :class:`repro.exec.session.Session`.

* :class:`ExperimentJob` — one picklable unit of work: a serialized DAG, an
  :class:`~repro.pipeline.config.ExperimentConfig` and the job parameters
  (the canonical pipeline spec under ``"member"``, plus an optional
  ``"prune_gap"``).  Every job has a stable content hash
  (:meth:`ExperimentJob.key`) over the DAG structure, weights and the full
  configuration — including the per-job ILP solver backend
  (``ExperimentConfig.ilp_backend``), so sweeps over different backends
  never collide in the result cache.
* :func:`job_keys` — the keys of many jobs at once, each DAG and config
  encoded once; :meth:`ExperimentJob.key` is its one-job case.
* :class:`RunPlan` — an ordered list of uniquely named :class:`PlanNode`\\ s,
  each wrapping one job.  The session executes pending nodes concurrently
  under its worker slots; results are always *returned* in plan order.

Builders:

* :func:`pipeline_job` — the one way to build a job: a pipeline spec on a
  DAG, hashed under the canonical spec;
* :meth:`RunPlan.from_jobs` — one node per job (the batch API:
  ``Session.run(RunPlan.from_jobs(jobs))``);
* :func:`plan_pipelines` — the ``specs x dags`` fan-out used by the paper's
  tables, the portfolio and ``repro exec run``: one node per
  (dag, spec) pair, instance-major.

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
from typing import ClassVar, Iterable, List, Optional, Sequence, Tuple

from repro.dag.graph import ComputationalDag
from repro.dag.io import dag_from_dict, dag_to_dict
from repro.exceptions import ConfigurationError
from repro.pipeline import ExperimentConfig, is_prunable_member, resolve_member


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


@dataclass(frozen=True)
class PlanNode:
    """One node of a run plan: a job under a plan-unique id."""

    id: str
    job: ExperimentJob


class RunPlan:
    """An ordered list of uniquely named jobs."""

    def __init__(self, nodes: Iterable[PlanNode] = ()) -> None:
        self.nodes: List[PlanNode] = []
        self._ids = set()
        for node in nodes:
            self._append(node)

    def _append(self, node: PlanNode) -> None:
        if node.id in self._ids:
            raise ConfigurationError(f"duplicate plan node id {node.id!r}")
        self._ids.add(node.id)
        self.nodes.append(node)

    def add(self, job: ExperimentJob, id: Optional[str] = None) -> str:
        """Append one job; returns the node id (generated when omitted)."""
        node_id = id if id is not None else f"n{len(self.nodes)}"
        self._append(PlanNode(id=node_id, job=job))
        return node_id

    @classmethod
    def from_jobs(cls, jobs: Sequence[ExperimentJob]) -> "RunPlan":
        """One node per job, in the given order."""
        plan = cls()
        for job in jobs:
            plan.add(job)
        return plan

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def subset(self, indices: Iterable[int]) -> "RunPlan":
        """A new plan over the given node positions (in ascending order),
        node ids preserved: the building block of sharded execution
        (:mod:`repro.exec.shard`)."""
        positions = sorted({int(i) for i in indices})
        for i in positions:
            if not 0 <= i < len(self.nodes):
                raise ConfigurationError(
                    f"plan subset index {i} out of range for a plan of "
                    f"{len(self.nodes)} nodes"
                )
        return RunPlan(self.nodes[i] for i in positions)


def as_plan(plan_or_jobs) -> RunPlan:
    """Coerce a RunPlan, a single job, or a job sequence into a RunPlan."""
    if isinstance(plan_or_jobs, RunPlan):
        return plan_or_jobs
    if isinstance(plan_or_jobs, ExperimentJob):
        return RunPlan.from_jobs([plan_or_jobs])
    return RunPlan.from_jobs(list(plan_or_jobs))


def pipeline_job(
    dag: ComputationalDag,
    spec: str,
    config: ExperimentConfig,
    prune_gap: Optional[float] = None,
) -> ExperimentJob:
    """The job that runs pipeline ``spec`` on ``dag`` under ``config``.

    The spec is resolved to its canonical pipeline first (legacy member
    names and raw specs are equally valid), so the job is hashed — and
    disk-cached — under the canonical spelling.  ``prune_gap`` is attached
    only when the pipeline has a prunable stage, keeping the other jobs'
    cache keys independent of the knob.
    """
    return _job(dag_to_dict(dag), spec, config, prune_gap)


def _job(
    dag_data: dict, spec: str, config: ExperimentConfig, prune_gap: Optional[float]
) -> ExperimentJob:
    """:func:`pipeline_job` on a DAG already in its plain-dict form."""
    canonical = resolve_member(spec)
    params = {"member": canonical}
    if prune_gap is not None and is_prunable_member(canonical):
        params["prune_gap"] = prune_gap
    return ExperimentJob(dag_data=dag_data, config=config, params=tuple(sorted(params.items())))


def plan_pipelines(
    specs: Sequence[str],
    dags: Sequence[ComputationalDag],
    config: ExperimentConfig,
    prune_gap: Optional[float] = None,
) -> RunPlan:
    """The ``specs x dags`` fan-out plan (instance-major, like the portfolio).

    Every node is a :func:`pipeline_job`; see there for the canonical
    hashing and the ``prune_gap`` attachment.  Each DAG is serialized once
    and its plain-dict form shared by its jobs, which never mutate it.
    """
    plan = RunPlan()
    for dag in dags:
        dag_data = dag_to_dict(dag)
        for spec in specs:
            plan.add(_job(dag_data, spec, config, prune_gap))
    return plan
