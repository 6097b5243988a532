"""Run plans: the jobs executed by :class:`repro.exec.session.Session`.

A :class:`RunPlan` is an ordered list of uniquely named
:class:`PlanNode`\\ s, each wrapping one picklable
:class:`~repro.experiments.parallel.ExperimentJob` (one pipeline spec on
one DAG under one config).  The session executes pending nodes
concurrently under its worker slots; results are always *returned* in
plan order.

Builders:

* :func:`pipeline_job` — the one way to build a job: a pipeline spec on a
  DAG, hashed under the canonical spec;
* :meth:`RunPlan.from_jobs` — one node per job (the batch API:
  ``Session.run(RunPlan.from_jobs(jobs))``);
* :func:`plan_pipelines` — the ``specs x dags`` fan-out used by the paper's
  tables, the portfolio and ``repro exec run``: one node per
  (dag, spec) pair, instance-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.dag.io import dag_to_dict
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.graph import ComputationalDag
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import ExperimentConfig


@dataclass(frozen=True)
class PlanNode:
    """One node of a run plan: a job under a plan-unique id."""

    id: str
    job: "ExperimentJob"


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

    def add(self, job: "ExperimentJob", id: Optional[str] = None) -> str:
        """Append one job; returns the node id (generated when omitted)."""
        node_id = id if id is not None else f"n{len(self.nodes)}"
        self._append(PlanNode(id=node_id, job=job))
        return node_id

    @classmethod
    def from_jobs(cls, jobs: Sequence["ExperimentJob"]) -> "RunPlan":
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
    from repro.experiments.parallel import ExperimentJob

    if isinstance(plan_or_jobs, ExperimentJob):
        return RunPlan.from_jobs([plan_or_jobs])
    return RunPlan.from_jobs(list(plan_or_jobs))


def pipeline_job(
    dag: "ComputationalDag",
    spec: str,
    config: "ExperimentConfig",
    prune_gap: Optional[float] = None,
) -> "ExperimentJob":
    """The job that runs pipeline ``spec`` on ``dag`` under ``config``.

    The spec is resolved to its canonical pipeline first (legacy member
    names and raw specs are equally valid), so the job is hashed — and
    disk-cached — under the canonical spelling.  ``prune_gap`` is attached
    only when the pipeline has a prunable stage, keeping the other jobs'
    cache keys independent of the knob.
    """
    return _job(dag_to_dict(dag), spec, config, prune_gap)


def _job(
    dag_data: dict, spec: str, config: "ExperimentConfig", prune_gap: Optional[float]
) -> "ExperimentJob":
    """:func:`pipeline_job` on a DAG already in its plain-dict form."""
    from repro.experiments.parallel import ExperimentJob
    from repro.portfolio.members import is_prunable_member, resolve_member

    canonical = resolve_member(spec)
    params = {"member": canonical}
    if prune_gap is not None and is_prunable_member(canonical):
        params["prune_gap"] = prune_gap
    return ExperimentJob(dag_data=dag_data, config=config, params=tuple(sorted(params.items())))


def plan_pipelines(
    specs: Sequence[str],
    dags: Sequence["ComputationalDag"],
    config: "ExperimentConfig",
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
