"""Regeneration of the paper's tables (Tables 1-4) and related experiments.

Every function returns the list of :class:`InstanceResult` rows it produced
(so benchmarks and tests can assert on them) and can print a formatted table
comparable to the corresponding table in the paper.

Every experiment is a set of pipeline specs (:mod:`repro.pipeline`) run on
each instance: the main comparison is :data:`ILP_SPEC` (the two-stage
baseline, then the holistic ILP warm-started from its cost) and Table 2 runs
the divide-and-conquer ILP ``dac(max_part_size=N)``.  With
``config.refine.enabled`` (the CLI's ``--refine``) each spec gains a final
``refine`` stage.  The specs become a :func:`~repro.exec.plan_pipelines`
plan run by a :class:`~repro.exec.Session`; pass a pre-built session
(``session=...``) to parallelise, cache or stream a sweep — its worker
budget, cache and stats are then shared across every batch submitted to it
(see ``repro.cli`` for the canonical wiring of ``--workers``/
``--cache-dir``/``--results``/``--resume``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dag.graph import ComputationalDag
from repro.exec import Session, plan_pipelines
from repro.experiments import paper_reference
from repro.experiments.datasets import small_dataset, tiny_dataset
from repro.experiments.reporting import format_results_table
from repro.experiments.runner import (
    ExperimentConfig,
    InstanceResult,
    dataset_limit,
    dataset_scale,
    geometric_mean,
)

#: The main comparison of Tables 1, 3 and 4, Figure 4 and Section 7.2: the
#: two-stage baseline, then the holistic ILP warm-started from its cost.
ILP_SPEC = "baseline|ilp(warm=objective)"

#: Table 3's pipelines per instance: the main comparison, the weak baseline
#: (Cilk + LRU), the ILP-based BSP baseline and the ILP started from it.
TABLE3_SPECS = (
    ILP_SPEC,
    "cilk+lru",
    "bsp-ilp+clairvoyant",
    "bsp-ilp+clairvoyant|ilp(warm=objective)",
)


def experiment_spec(spec: str, config: ExperimentConfig) -> str:
    """``spec``, plus a final ``refine`` stage when ``config.refine.enabled``."""
    return f"{spec}|refine" if config.refine.enabled else spec


def _run_specs(
    specs: Sequence[str],
    dags: Sequence[ComputationalDag],
    config: ExperimentConfig,
    session: Optional[Session],
) -> List[InstanceResult]:
    """Run every spec on every DAG (instance-major) on ``session``."""
    plan = plan_pipelines(specs, dags, config)
    return (session or Session()).run(plan)


def _tiny(limit: Optional[int] = None) -> List[ComputationalDag]:
    return tiny_dataset(scale=dataset_scale(), limit=limit or dataset_limit())


def _small(limit: Optional[int] = None) -> List[ComputationalDag]:
    return small_dataset(scale=dataset_scale(), limit=limit or dataset_limit())


def _ilp_rows(
    dags: Sequence[ComputationalDag],
    config: ExperimentConfig,
    session: Optional[Session],
) -> List[InstanceResult]:
    return _run_specs([experiment_spec(ILP_SPEC, config)], dags, config, session)


# ----------------------------------------------------------------------
# Table 1: baseline vs. ILP on the tiny dataset (base configuration)
# ----------------------------------------------------------------------
def table1(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> List[InstanceResult]:
    """Synchronous MBSP cost of the two-stage baseline vs. the full ILP."""
    config = config or ExperimentConfig(name="base")
    results = _ilp_rows(_tiny(limit), config, session)
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 1 (base case)", paper_reference.TABLE1))
    return results


# ----------------------------------------------------------------------
# Table 3: all baselines (weak, main, BSP-ILP) and the ILPs on top of them
# ----------------------------------------------------------------------
def table3(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> List[InstanceResult]:
    """The five-column comparison of Table 3 on the tiny dataset.

    Each row is the main comparison's result, with the other pipelines'
    costs as the extras ``weak`` (Cilk + LRU), ``bsp_ilp`` (ILP-based BSP
    scheduler + clairvoyant) and ``bsp_ilp_plus_ilp`` (our ILP initialised
    with that stronger baseline).
    """
    config = config or ExperimentConfig(name="base")
    flat = _run_specs(TABLE3_SPECS, _tiny(limit), config, session)
    results = []
    for i in range(0, len(flat), len(TABLE3_SPECS)):
        main, weak, bsp_ilp, stronger = flat[i : i + len(TABLE3_SPECS)]
        main.extra_costs.update(
            weak=weak.ilp_cost,
            bsp_ilp=bsp_ilp.ilp_cost,
            bsp_ilp_plus_ilp=stronger.ilp_cost,
        )
        results.append(main)
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 3 (main columns)", paper_reference.TABLE1))
    return results


# ----------------------------------------------------------------------
# Table 4: alternative configurations (r=5r0, r=r0, P=8, L=0, async)
# ----------------------------------------------------------------------
def table4_configurations(base: Optional[ExperimentConfig] = None) -> Dict[str, ExperimentConfig]:
    """The five alternative configurations of Table 4 (plus the base case)."""
    base = base or ExperimentConfig(name="base")
    return {
        "base": base,
        "r5": base.variant(name="r5", cache_factor=5.0),
        "r1": base.variant(name="r1", cache_factor=1.0),
        "p8": base.variant(name="p8", num_processors=8),
        "L0": base.variant(name="L0", L=0.0),
        "async": base.variant(name="async", synchronous=False),
    }


def table4(
    base_config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    configurations: Optional[Sequence[str]] = None,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> Dict[str, List[InstanceResult]]:
    """Baseline / ILP costs for the alternative parameter settings.

    Pass a pre-built session to share one pool/cache/stats line across the
    whole sweep (the CLI does).
    """
    configs = table4_configurations(base_config)
    if configurations:
        configs = {k: v for k, v in configs.items() if k in set(configurations)}
    dags = _tiny(limit)
    out: Dict[str, List[InstanceResult]] = {}
    for name, config in configs.items():
        out[name] = _ilp_rows(dags, config, session)
        if verbose:  # pragma: no cover
            ref = paper_reference.TABLE4.get(name, paper_reference.TABLE1)
            print(format_results_table(out[name], f"Table 4 [{name}]", ref))
    return out


# ----------------------------------------------------------------------
# Table 2: divide-and-conquer ILP on the larger dataset
# ----------------------------------------------------------------------
def table2(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    max_part_size: int = 22,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> List[InstanceResult]:
    """Baseline vs. divide-and-conquer ILP on the "small" dataset (r=5*r0).

    Unlike the warm-started full ILP, the divide-and-conquer schedule is
    reported as-is (it can be worse than the baseline, as in the paper).
    """
    config = config or ExperimentConfig(name="table2", cache_factor=5.0)
    spec = experiment_spec(f"dac(max_part_size={max_part_size})", config)
    results = _run_specs([spec], _small(limit), config, session)
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 2 (divide-and-conquer)", paper_reference.TABLE2))
    return results


# ----------------------------------------------------------------------
# Section 7.2: single-processor (red-blue pebbling) experiment
# ----------------------------------------------------------------------
def p1_experiment(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> List[InstanceResult]:
    """P = 1: DFS + clairvoyant baseline vs. the ILP (rarely improves)."""
    config = (config or ExperimentConfig()).variant(name="p1", num_processors=1)
    results = _ilp_rows(_tiny(limit), config, session)
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Single-processor red-blue pebbling (P=1)"))
    return results


# ----------------------------------------------------------------------
# Section 7.2: prohibiting recomputation
# ----------------------------------------------------------------------
def recomputation_ablation(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session: Optional[Session] = None,
) -> Dict[str, List[InstanceResult]]:
    """ILP with and without recomputation allowed (cost increase up to ~1.4x)."""
    base = config or ExperimentConfig(name="with_recompute")
    no_recompute = base.variant(name="no_recompute", allow_recomputation=False)
    dags = _tiny(limit)
    results = {
        "with_recompute": _ilp_rows(dags, base, session),
        "no_recompute": _ilp_rows(dags, no_recompute, session),
    }
    if verbose:  # pragma: no cover
        pairs = zip(results["with_recompute"], results["no_recompute"])
        for with_rec, without in pairs:
            factor = without.ilp_cost / max(with_rec.ilp_cost, 1e-9)
            print(f"  {with_rec.instance_name:<18s} recompute={with_rec.ilp_cost:8.1f} "
                  f"no-recompute={without.ilp_cost:8.1f} factor={factor:.2f}")
    return results


# ----------------------------------------------------------------------
# Summary helper mirroring the Section 7.2 headline numbers
# ----------------------------------------------------------------------
def geomean_summary(results_by_config: Dict[str, List[InstanceResult]]) -> Dict[str, float]:
    """Geometric-mean ILP/baseline ratio per configuration."""
    return {
        name: geometric_mean([r.ratio for r in results])
        for name, results in results_by_config.items()
    }
