"""First-class composable scheduler pipelines (``repro.pipeline``).

The package that turns the paper's experiment recipes into one abstraction:

* :class:`Stage` / :class:`StageResult` — a stage consumes the incumbent
  schedule and produces a better one (plus per-stage telemetry);
* the stage **registry** (:func:`register_stage`, :func:`available_stages`)
  with built-in stages: the two-stage heuristics (``bspg``/``cilk``/``etf``/
  ``dfs``/``bsp-ilp`` × cache policies), ``baseline``, ``ilp`` (holistic,
  warm-started from the incumbent — including a full warm-start *solution*
  via the schedule→ILP-variable encoder), ``refine`` and ``dac``;
* the spec mini-language — ``"bspg+clairvoyant|refine|ilp"`` — with a
  parse/canonicalize round trip and full backward compatibility for every
  legacy portfolio member name (:data:`LEGACY_MEMBER_SPECS`);
* :class:`Pipeline` — the generic runner threading each stage's best
  schedule into the next, with per-stage bound-aware pruning and
  shared-prefix reuse (:func:`stage_reuse_scope`); :func:`run_member`
  reduces one run to an :class:`InstanceResult`;
* :class:`ExperimentConfig` / :class:`InstanceResult` — the configuration
  a pipeline runs under and the result it reduces to, the types the
  execution core (:mod:`repro.exec`) hashes, stores and returns;
* the execution slots (:func:`slot_scope`, :func:`branch_slots`) that a
  session grants and ``race(...)`` stages fan their branches out over.

The package sits above the scheduling layers (``dag``, ``model``, ``ilp``,
``core``, ``bsp``, ``cache``, ``refine``, ``theory``, ``obs``) and below
the execution core; it imports nothing from the packages above it.

Quick start::

    >>> from repro.pipeline import run_pipeline
    >>> result = run_pipeline("bspg+clairvoyant|refine|ilp", dag, config)
    >>> result.cost, result.status()
"""

from repro.pipeline.config import ExperimentConfig, InstanceResult
from repro.pipeline.slots import branch_slots, slot_scope
from repro.pipeline.stage import (
    PRUNED_STATUS_PREFIX,
    Incumbent,
    Stage,
    StageContext,
    StageResult,
    schedule_digest,
)
from repro.pipeline.registry import (
    StageFactory,
    available_stages,
    get_stage_factory,
    make_stage,
    register_stage,
    stage_descriptions,
)
from repro.pipeline.stages import (
    TWO_STAGE_POLICIES,
    TWO_STAGE_SCHEDULERS,
    BaselineStage,
    DacStage,
    IlpStage,
    RefineStage,
    TwoStageStage,
)
from repro.pipeline.spec import (
    LEGACY_MEMBER_SPECS,
    REFINE_SUFFIX,
    PipelineSpec,
    StageSpec,
    canonicalize,
    expand_spec,
    is_pipeline_spec,
    is_prunable_member,
    legacy_member_names,
    parse,
    resolve_member,
    with_default_budget,
)
from repro.pipeline.composite import (
    EXAMPLE_RACE_SPECS,
    BudgetedStage,
    RaceStage,
)
from repro.pipeline.pipeline import (
    Pipeline,
    PipelineResult,
    StageReuseCache,
    StageReuseStats,
    describe_stage_table,
    is_pruned,
    run_member,
    run_pipeline,
    stage_reuse_scope,
)

__all__ = [
    "ExperimentConfig",
    "InstanceResult",
    "branch_slots",
    "slot_scope",
    "PRUNED_STATUS_PREFIX",
    "Incumbent",
    "Stage",
    "StageContext",
    "StageResult",
    "schedule_digest",
    "StageFactory",
    "available_stages",
    "get_stage_factory",
    "make_stage",
    "register_stage",
    "stage_descriptions",
    "TWO_STAGE_POLICIES",
    "TWO_STAGE_SCHEDULERS",
    "BaselineStage",
    "DacStage",
    "IlpStage",
    "RefineStage",
    "TwoStageStage",
    "LEGACY_MEMBER_SPECS",
    "REFINE_SUFFIX",
    "PipelineSpec",
    "StageSpec",
    "canonicalize",
    "expand_spec",
    "is_pipeline_spec",
    "is_prunable_member",
    "legacy_member_names",
    "parse",
    "resolve_member",
    "with_default_budget",
    "EXAMPLE_RACE_SPECS",
    "BudgetedStage",
    "RaceStage",
    "Pipeline",
    "PipelineResult",
    "StageReuseCache",
    "StageReuseStats",
    "describe_stage_table",
    "is_pruned",
    "run_member",
    "run_pipeline",
    "stage_reuse_scope",
]
