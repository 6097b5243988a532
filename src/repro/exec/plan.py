"""Run plans: the job graph executed by :class:`repro.exec.session.Session`.

A :class:`RunPlan` is an ordered collection of :class:`PlanNode`\\ s, each
wrapping one picklable :class:`~repro.experiments.parallel.ExperimentJob`
(one pipeline spec on one DAG under one config) plus optional
``after=(node_id, ...)`` ordering edges.  The session executes ready nodes
concurrently under its worker slots, respecting the edges; results are
always *returned* in plan order.

Builders:

* :func:`pipeline_job` — the one way to build a job: a pipeline spec on a
  DAG, hashed under the canonical spec;
* :meth:`RunPlan.from_jobs` — one node per job, no edges (the batch API:
  ``Session.run(RunPlan.from_jobs(jobs))``);
* :func:`plan_pipelines` — the ``specs x dags`` fan-out used by the paper's
  tables, the portfolio and ``repro exec run``: one node per
  (dag, spec) pair, instance-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.graph import ComputationalDag
    from repro.experiments.parallel import ExperimentJob
    from repro.experiments.runner import ExperimentConfig


@dataclass(frozen=True)
class PlanNode:
    """One node of a run plan: a job plus the nodes it must run after."""

    id: str
    job: "ExperimentJob"
    after: Tuple[str, ...] = ()


class RunPlan:
    """An ordered, validated job graph."""

    def __init__(self, nodes: Iterable[PlanNode] = ()) -> None:
        self.nodes: List[PlanNode] = []
        self._ids: Dict[str, int] = {}
        for node in nodes:
            self._append(node)

    # ------------------------------------------------------------------
    def _append(self, node: PlanNode) -> None:
        if node.id in self._ids:
            raise ConfigurationError(f"duplicate plan node id {node.id!r}")
        for dep in node.after:
            if dep not in self._ids:
                raise ConfigurationError(
                    f"plan node {node.id!r} depends on unknown node {dep!r}; "
                    f"dependencies must be added before their dependents"
                )
        self._ids[node.id] = len(self.nodes)
        self.nodes.append(node)

    def add(
        self,
        job: "ExperimentJob",
        id: Optional[str] = None,
        after: Sequence[str] = (),
    ) -> str:
        """Append one job; returns the node id (generated when omitted).

        Edges may only point at already-added nodes, which makes every plan
        acyclic by construction.
        """
        node_id = id if id is not None else f"n{len(self.nodes)}"
        self._append(PlanNode(id=node_id, job=job, after=tuple(after)))
        return node_id

    @classmethod
    def from_jobs(cls, jobs: Sequence["ExperimentJob"]) -> "RunPlan":
        """An edge-free plan: one node per job, in the given order."""
        plan = cls()
        for job in jobs:
            plan.add(job)
        return plan

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def index_of(self, node_id: str) -> int:
        return self._ids[node_id]

    @property
    def has_edges(self) -> bool:
        """True when any node carries an ``after=`` ordering edge."""
        return any(node.after for node in self.nodes)

    def subset(self, indices: Iterable[int]) -> "RunPlan":
        """A new plan over the given node positions (in ascending order).

        Node ids and edges are preserved, so the subset must be closed
        under ``after=`` dependencies — picking a node without its
        dependency raises the usual unknown-node
        :class:`~repro.exceptions.ConfigurationError`.  This is the
        building block of sharded execution (:mod:`repro.exec.shard`),
        whose assignment keeps dependency chains within one shard.
        """
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
    from repro.experiments.parallel import ExperimentJob
    from repro.portfolio.members import is_prunable_member, resolve_member

    canonical = resolve_member(spec)
    params = {"member": canonical}
    if prune_gap is not None and is_prunable_member(canonical):
        params["prune_gap"] = prune_gap
    return ExperimentJob.make(dag, config, **params)


def plan_pipelines(
    specs: Sequence[str],
    dags: Sequence["ComputationalDag"],
    config: "ExperimentConfig",
    prune_gap: Optional[float] = None,
) -> RunPlan:
    """The ``specs x dags`` fan-out plan (instance-major, like the portfolio).

    Every node is a :func:`pipeline_job`; see there for the canonical
    hashing and the ``prune_gap`` attachment.
    """
    plan = RunPlan()
    for dag in dags:
        for spec in specs:
            plan.add(pipeline_job(dag, spec, config, prune_gap))
    return plan
