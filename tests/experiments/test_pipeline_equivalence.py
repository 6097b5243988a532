"""Golden equivalence: legacy member names vs. the pipeline runner.

The ``repro.pipeline`` redesign deleted the hand-written per-member dispatch
(``_run_ilp_member`` / ``_two_stage_member`` / ``_run_refined_member``) and
replaced every portfolio member with a declarative spec executed by one
generic runner.  These tests pin that the replacement is *behaviour
preserving*: the **old path** — the pre-redesign dispatch logic and the
per-instance runners it called, preserved verbatim below as the reference
implementation — and the **pipeline path**
(:func:`repro.portfolio.run_member`) produce byte-identical
``InstanceResult`` fingerprints for every legacy member name.

All ILP solves are node-limited with a step cap, so the comparison is exact
and reproducible under load.  The single intentional divergence is pinned in
:class:`TestKnownDivergence`: a *pruned* ``dac+refine`` now keeps the dac
stage's ``parts`` diagnostic in ``extra_costs`` (the old path dropped it).
"""

import math
from typing import Dict, Optional

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.exceptions import ConfigurationError
from repro.experiments.runner import ExperimentConfig, InstanceResult
from repro.core.acyclic_partition import PartitionConfig
from repro.core.divide_conquer import DivideAndConquerScheduler
from repro.core.scheduler import MbspIlpScheduler
from repro.core.two_stage import TwoStageResult, baseline_schedule, run_two_stage
from repro.dag.graph import ComputationalDag
from repro.ilp import SolverOptions
from repro.model.instance import MbspInstance
from repro.portfolio import available_members, run_member, schedule_digest
from repro.refine import RefineConfig, Refiner
from repro.theory.bounds import instance_lower_bound

# ----------------------------------------------------------------------
# the old per-instance runners (formerly repro.experiments.runner), frozen
# verbatim: the legacy dispatch below is built on them
# ----------------------------------------------------------------------
def run_instance(
    dag: ComputationalDag,
    config: ExperimentConfig,
    *,
    instance: Optional[MbspInstance] = None,
    baseline=None,
) -> InstanceResult:
    """Run the main comparison (two-stage baseline vs. full ILP) on one DAG.

    ``instance`` and ``baseline`` let callers that already materialized them
    (e.g. the portfolio's bound-pruning check) avoid recomputing; both must
    stem from the same ``config`` when provided.
    """
    if instance is None:
        instance = config.instance_for(dag)
    base = baseline if baseline is not None else baseline_schedule(
        instance, synchronous=config.synchronous, seed=config.seed
    )
    scheduler = MbspIlpScheduler(config.ilp_config())
    result = scheduler.schedule(instance, baseline=base)
    ilp_cost = result.best_cost
    extra: Dict[str, float] = {}
    if config.refine.enabled:
        refined = Refiner(config.refine).refine(
            result.best_schedule, synchronous=config.synchronous
        )
        extra = refined.telemetry(result.best_cost)
        ilp_cost = min(ilp_cost, refined.final_cost)
    return InstanceResult(
        instance_name=dag.name,
        num_nodes=dag.num_nodes,
        baseline_cost=base.cost,
        ilp_cost=ilp_cost,
        solver_status=result.solver_status,
        solve_time=result.solve_time,
        extra_costs=extra,
    )


def run_divide_and_conquer(
    dag: ComputationalDag,
    config: ExperimentConfig,
    max_part_size: int = 22,
    partition_time_limit: float = 3.0,
    instance: Optional[MbspInstance] = None,
):
    """Run the divide-and-conquer scheduler; returns its full result object.

    Used by :func:`run_divide_and_conquer_instance` (which reduces it to an
    :class:`InstanceResult`) and by the refined ``dac+refine`` portfolio
    member, which needs the actual schedule to post-optimize.  A caller that
    already materialized the ``instance`` (e.g. for a bound check) can pass
    it to avoid rebuilding.
    """
    if instance is None:
        instance = config.instance_for(dag)
    base = baseline_schedule(instance, synchronous=config.synchronous, seed=config.seed)
    scheduler = DivideAndConquerScheduler(
        ilp_config=config.ilp_config(),
        partition_config=PartitionConfig(
            max_part_size=max_part_size,
            solver_options=SolverOptions(time_limit=partition_time_limit),
            backend=config.ilp_backend,
        ),
    )
    return scheduler.schedule(instance, baseline=base)


def run_divide_and_conquer_instance(
    dag: ComputationalDag,
    config: ExperimentConfig,
    max_part_size: int = 22,
    partition_time_limit: float = 3.0,
) -> InstanceResult:
    """The Table 2 comparison: two-stage baseline vs. divide-and-conquer ILP.

    Unlike the warm-started full ILP, the divide-and-conquer schedule is
    reported as-is (it can be worse than the baseline, as in the paper).
    """
    result = run_divide_and_conquer(
        dag,
        config,
        max_part_size=max_part_size,
        partition_time_limit=partition_time_limit,
    )
    dac_cost = result.dac_cost
    extra: Dict[str, float] = {"parts": float(result.partition.num_parts)}
    if config.refine.enabled:
        # opt-in post-optimization (``--refine``): the refined cost replaces
        # the as-is divide-and-conquer cost, never making it worse
        refined = Refiner(config.refine).refine(
            result.dac_schedule, synchronous=config.synchronous
        )
        extra.update(refined.telemetry(dac_cost))
        dac_cost = min(dac_cost, refined.final_cost)
    return InstanceResult(
        instance_name=dag.name,
        num_nodes=dag.num_nodes,
        baseline_cost=result.baseline.cost,
        ilp_cost=dac_cost,
        solver_status="divide-and-conquer",
        extra_costs=extra,
    )


# ----------------------------------------------------------------------
# the old path: the pre-redesign run_member dispatch, frozen verbatim
# ----------------------------------------------------------------------
PRUNED_STATUS_PREFIX = "skipped:"


def _within_gap(cost, bound, prune_gap):
    return cost <= (1.0 + prune_gap) * bound + 1e-9


def _legacy_two_stage_member(dag, config, scheduler, policy, instance=None):
    if instance is None:
        instance = config.instance_for(dag)
    bsp_ilp_config = None
    if scheduler in ("bsp-ilp", "bsp_ilp", "ilp"):
        from repro.bsp.ilp import BspIlpConfig
        from repro.ilp import SolverOptions

        bsp_ilp_config = BspIlpConfig(
            solver_options=SolverOptions(
                time_limit=config.ilp_time_limit, node_limit=config.ilp_node_limit
            ),
            backend=config.ilp_backend,
        )
    return run_two_stage(
        instance,
        scheduler=scheduler,
        policy=policy or None,
        synchronous=config.synchronous,
        seed=config.seed,
        bsp_ilp_config=bsp_ilp_config,
    ), instance


def _legacy_inapplicable(dag, exc):
    return InstanceResult(
        instance_name=dag.name,
        num_nodes=dag.num_nodes,
        baseline_cost=math.inf,
        ilp_cost=math.inf,
        solver_status=f"inapplicable: {exc}",
        extra_costs={"member_cost": math.inf},
    )


def _legacy_ilp_member(dag, config, prune_gap):
    if prune_gap is None or prune_gap < 0:
        return run_instance(dag, config)
    instance = config.instance_for(dag)
    bound = instance_lower_bound(instance, synchronous=config.synchronous)
    base = baseline_schedule(instance, synchronous=config.synchronous, seed=config.seed)
    if not _within_gap(base.cost, bound, prune_gap):
        return run_instance(dag, config, instance=instance, baseline=base)
    reason = (
        f"{PRUNED_STATUS_PREFIX} baseline cost {base.cost:g} is within "
        f"{prune_gap:.1%} of the lower bound {bound:g}; ILP solve pruned"
    )
    return InstanceResult(
        instance_name=dag.name,
        num_nodes=dag.num_nodes,
        baseline_cost=base.cost,
        ilp_cost=base.cost,
        solver_status=reason,
        extra_costs={"member_cost": base.cost, "lower_bound": bound, "pruned": 1.0},
    )


def _legacy_refined_member(dag, config, member, prune_gap):
    base = member[: -len("+refine")]
    prune = prune_gap is not None and prune_gap >= 0
    refiner = Refiner(config.refine)

    def refined_result(schedule, unrefined_cost, baseline_cost):
        refined = refiner.refine(schedule, synchronous=config.synchronous)
        cost = min(refined.final_cost, unrefined_cost)
        return InstanceResult(
            instance_name=dag.name,
            num_nodes=dag.num_nodes,
            baseline_cost=baseline_cost,
            ilp_cost=cost,
            solver_status=f"schedule:{schedule_digest(refined.schedule)}",
            extra_costs={"member_cost": cost, **refined.telemetry(unrefined_cost)},
        )

    def pruned_result(cost, bound):
        reason = (
            f"{PRUNED_STATUS_PREFIX} base cost {cost:g} is within "
            f"{prune_gap:.1%} of the lower bound {bound:g}; refinement pruned"
        )
        return InstanceResult(
            instance_name=dag.name,
            num_nodes=dag.num_nodes,
            baseline_cost=cost,
            ilp_cost=cost,
            solver_status=reason,
            extra_costs={"member_cost": cost, "lower_bound": bound, "pruned": 1.0},
        )

    instance = config.instance_for(dag) if (prune or base == "ilp") else None
    bound = None
    if prune and (base == "ilp" or base in ("dac", "divide-and-conquer")):
        bound = instance_lower_bound(instance, synchronous=config.synchronous)

    if base == "ilp":
        baseline = baseline_schedule(
            instance, synchronous=config.synchronous, seed=config.seed
        )
        if prune and _within_gap(baseline.cost, bound, prune_gap):
            return pruned_result(baseline.cost, bound)
        refined_base = refiner.refine(
            baseline.mbsp_schedule, synchronous=config.synchronous
        )
        seeded = TwoStageResult(
            bsp_schedule=baseline.bsp_schedule,
            mbsp_schedule=refined_base.schedule,
            cost=refined_base.final_cost,
            scheduler_name=f"{baseline.scheduler_name}+refine",
            policy_name=baseline.policy_name,
        )
        ilp = MbspIlpScheduler(config.ilp_config()).schedule(instance, baseline=seeded)
        result = refined_result(ilp.best_schedule, ilp.best_cost, baseline.cost)
        result.solver_status = f"{ilp.solver_status}; {result.solver_status}"
        result.solve_time = ilp.solve_time
        return result
    if base in ("dac", "divide-and-conquer"):
        dac = run_divide_and_conquer(dag, config, instance=instance)
        if prune and _within_gap(dac.dac_cost, bound, prune_gap):
            result = pruned_result(dac.dac_cost, bound)
            result.baseline_cost = dac.baseline.cost
            return result
        result = refined_result(dac.dac_schedule, dac.dac_cost, dac.baseline.cost)
        result.extra_costs["parts"] = float(dac.partition.num_parts)
        return result
    scheduler, _, policy = base.partition("+")
    try:
        two_stage, instance = _legacy_two_stage_member(
            dag, config, scheduler, policy, instance=instance
        )
    except ConfigurationError as exc:
        return _legacy_inapplicable(dag, exc)
    if prune:
        bound = instance_lower_bound(instance, synchronous=config.synchronous)
        if _within_gap(two_stage.cost, bound, prune_gap):
            return pruned_result(two_stage.cost, bound)
    return refined_result(two_stage.mbsp_schedule, two_stage.cost, two_stage.cost)


def legacy_run_member(dag, config, member, prune_gap=None):
    """The pre-redesign ``run_member``, verbatim (the golden reference)."""
    name = member.strip().lower()
    if name.endswith("+refine"):
        return _legacy_refined_member(dag, config, name, prune_gap)
    if name == "ilp":
        result = _legacy_ilp_member(dag, config, prune_gap)
        result.extra_costs["member_cost"] = result.ilp_cost
        return result
    if name in ("dac", "divide-and-conquer"):
        result = run_divide_and_conquer_instance(dag, config)
        result.extra_costs["member_cost"] = result.ilp_cost
        return result
    scheduler, sep, policy = name.partition("+")
    try:
        two_stage, _ = _legacy_two_stage_member(dag, config, scheduler, policy)
    except ConfigurationError as exc:
        return _legacy_inapplicable(dag, exc)
    return InstanceResult(
        instance_name=dag.name,
        num_nodes=dag.num_nodes,
        baseline_cost=two_stage.cost,
        ilp_cost=two_stage.cost,
        solver_status=f"schedule:{schedule_digest(two_stage.mbsp_schedule)}",
        extra_costs={"member_cost": two_stage.cost},
    )


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _roundtrip(dag):
    """Normalize a DAG through the job serialization round trip.

    Session jobs have always shipped DAGs in their plain-dict form
    (``ExperimentJob.dag_data``); schedulers whose tie-breaking follows
    node iteration order (cilk work stealing) are only bit-comparable when
    both paths see the identically-ordered graph.
    """
    from repro.dag.io import dag_from_dict, dag_to_dict

    return dag_from_dict(dag_to_dict(dag))


def _spmv_dag():
    dag = spmv(3, seed=1)
    assign_random_memory_weights(dag, seed=11)
    dag.name = "spmv_eq"
    return _roundtrip(dag)


# node-limited, step-capped solves: exactly reproducible under load, and
# cheap enough that every member runs in the tier-1 suite
CFG = ExperimentConfig(
    name="pipeline-equivalence",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=30,
    step_cap=4,
    refine=RefineConfig(budget=300),
)
P1 = CFG.variant(num_processors=1)


def session_run_member(dag, config, member, prune_gap=None):
    """Evaluate one member through the Session-backed execution path.

    This is the production route since the ``repro.exec`` redesign: the
    member becomes a one-node run plan executed by a
    :class:`~repro.exec.Session` (exactly what the paper's tables, the
    portfolio and ``repro exec run`` submit), so the golden comparison
    below pins the *whole* Session path byte-identical to the historical
    dispatch — not merely the pipeline runner.
    """
    from repro.exec import Session, plan_pipelines

    plan = plan_pipelines([member], [dag], config, prune_gap=prune_gap)
    return Session().run(plan)[0]


@pytest.mark.parametrize("member", available_members())
def test_legacy_member_fingerprints_identical(member):
    dag = _spmv_dag()
    old = legacy_run_member(dag, CFG, member)
    new = session_run_member(dag, CFG, member)
    assert new.fingerprint() == old.fingerprint()


@pytest.mark.parametrize(
    "member", ["dfs+clairvoyant", "dfs+clairvoyant+refine", "ilp", "ilp+refine"]
)
def test_single_processor_fingerprints_identical(member):
    dag = chain_dag(5)
    old = legacy_run_member(dag, P1, member)
    new = run_member(dag, P1, member)
    assert new.fingerprint() == old.fingerprint()


@pytest.mark.parametrize(
    "member", ["ilp", "ilp+refine", "bspg+clairvoyant+refine"]
)
def test_pruned_fingerprints_identical(member):
    """Bound-pruned results (skip status, extras) match the old path too —
    through the Session-backed route, prune gap and all."""
    dag = _roundtrip(chain_dag(5))
    old = legacy_run_member(dag, P1, member, prune_gap=0.0)
    new = session_run_member(dag, P1, member, prune_gap=0.0)
    assert old.solver_status.startswith(PRUNED_STATUS_PREFIX)
    assert new.fingerprint() == old.fingerprint()


@pytest.mark.slow
@pytest.mark.parametrize("member", available_members())
def test_legacy_member_fingerprints_identical_on_tiny_dataset(member):
    from repro.experiments.datasets import tiny_dataset

    for dag in tiny_dataset(limit=3):
        old = legacy_run_member(dag, CFG, member)
        new = run_member(dag, CFG, member)
        assert new.fingerprint() == old.fingerprint()


class TestKnownDivergence:
    def test_pruned_dac_refine_keeps_the_parts_diagnostic(self):
        """The one intentional improvement over the old path: a pruned
        ``dac+refine`` no longer drops the dac stage's ``parts`` extra.
        Everything else about the result is unchanged."""
        dag = chain_dag(5)
        old = legacy_run_member(dag, P1, "dac+refine", prune_gap=0.0)
        new = run_member(dag, P1, "dac+refine", prune_gap=0.0)
        old_fp, new_fp = old.fingerprint(), new.fingerprint()
        assert new_fp["extra_costs"].pop("parts") == 1.0
        assert "parts" not in old_fp["extra_costs"]
        assert new_fp == old_fp


def test_dispatch_functions_are_gone():
    """The acceptance bar: members.py's per-member dispatch is deleted, not
    wrapped — the only executor left is the generic pipeline runner."""
    import repro.portfolio.members as members

    for legacy_fn in ("_run_ilp_member", "_two_stage_member", "_run_refined_member"):
        assert not hasattr(members, legacy_fn)
