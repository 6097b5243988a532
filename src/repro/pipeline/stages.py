"""Built-in pipeline stages and their registry entries.

* one two-stage heuristic stage per first-stage scheduler (``bspg``,
  ``cilk``, ``etf``, ``dfs``, ``bsp-ilp``), each taking a cache-eviction
  ``policy`` (spelled ``"bspg+clairvoyant"`` in specs);
* ``baseline`` — the paper's automatic baseline (DFS for ``P = 1``, BSPg
  otherwise, clairvoyant eviction), the stage auto-prepended when a spec
  starts with an incumbent-consuming stage;
* ``ilp`` — the holistic ILP scheduler warm-started from the incumbent; by
  default the incumbent schedule is *encoded into a full warm-start
  solution* (:mod:`repro.core.encoding`) so the branch-and-bound backend
  starts from it as its initial incumbent (``warm=objective`` restores the
  historical cost-only warm start);
* ``refine`` — local-search post-optimization of the incumbent
  (:mod:`repro.refine`), with optional per-stage budget/strategy/seed
  overrides;
* ``dac`` — the divide-and-conquer ILP, reported as-is (it ignores the
  incumbent; the paper's Table 2 contract).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional

from repro.exceptions import ConfigurationError
from repro.model.instance import MbspInstance
from repro.pipeline.registry import StageFactory, register_stage
from repro.pipeline.stage import (
    Incumbent,
    StageContext,
    StageResult,
    schedule_digest,
)

#: All first-stage/policy combinations exposed as two-stage stages.
TWO_STAGE_SCHEDULERS = ("bspg", "cilk", "etf", "dfs", "bsp-ilp")
TWO_STAGE_POLICIES = ("clairvoyant", "lru", "fifo")

DEFAULT_POLICY = "clairvoyant"


def _canonical_options(pairs) -> str:
    inner = ",".join(f"{key}={value}" for key, value in sorted(pairs))
    return f"({inner})" if inner else ""


def _int_option(options: Mapping[str, str], key: str, stage: str) -> Optional[int]:
    if key not in options:
        return None
    try:
        return int(options[key])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"stage {stage!r}: option {key}={options[key]!r} is not an integer"
        ) from None


def _float_option(options: Mapping[str, str], key: str, stage: str) -> Optional[float]:
    if key not in options:
        return None
    try:
        return float(options[key])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"stage {stage!r}: option {key}={options[key]!r} is not a number"
        ) from None


# ----------------------------------------------------------------------
# two-stage heuristics
# ----------------------------------------------------------------------
class TwoStageStage:
    """One two-stage pipeline: a first-stage BSP scheduler + cache policy."""

    requires_incumbent = False
    prunable = False
    prune_label = ("base cost", "stage pruned")
    # a ConfigurationError here means "does not apply to this instance"
    # (e.g. the DFS first stage with P > 1), not a misconfiguration
    config_error_means_inapplicable = True

    def __init__(self, scheduler: str, policy: str = DEFAULT_POLICY) -> None:
        if policy not in TWO_STAGE_POLICIES:
            raise ConfigurationError(
                f"unknown cache policy {policy!r}; available: {TWO_STAGE_POLICIES}"
            )
        self.name = scheduler
        self.policy = policy

    def spec_token(self) -> str:
        return f"{self.name}+{self.policy}"

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.core.two_stage import run_two_stage

        config = ctx.config
        bsp_ilp_config = None
        if self.name in ("bsp-ilp", "bsp_ilp"):
            # the first-stage ILP must honour the configured backend and
            # budgets: the job hash covers them, so solving with
            # anything else would poison backend sweeps through the cache
            from repro.bsp.ilp import BspIlpConfig
            from repro.ilp import SolverOptions

            bsp_ilp_config = BspIlpConfig(
                solver_options=SolverOptions(
                    time_limit=config.ilp_time_limit, node_limit=config.ilp_node_limit
                ),
                backend=config.ilp_backend,
            )
        result = run_two_stage(
            instance,
            scheduler=self.name,
            policy=self.policy,
            synchronous=ctx.synchronous,
            seed=ctx.seed,
            bsp_ilp_config=bsp_ilp_config,
        )
        return StageResult(
            stage=self.spec_token(),
            schedule=result.mbsp_schedule,
            cost=result.cost,
            status=f"schedule:{schedule_digest(result.mbsp_schedule)}",
        )


def _two_stage_factory(scheduler: str) -> StageFactory:
    def build(options: Mapping[str, str]):
        return TwoStageStage(scheduler, options.get("policy", DEFAULT_POLICY))

    first_stage_doc = {
        "bspg": "greedy BSP list scheduling (the paper's main baseline)",
        "cilk": "Cilk-style work stealing",
        "etf": "earliest task first",
        "dfs": "DFS ordering (single-processor pebbling; requires P = 1)",
        "bsp-ilp": "ILP-based BSP first stage (solver-backed)",
    }[scheduler]
    return StageFactory(
        name=scheduler,
        description=f"two-stage heuristic: {first_stage_doc} + a cache "
        f"policy ({'/'.join(TWO_STAGE_POLICIES)}); spelled "
        f"'{scheduler}+<policy>'",
        build=build,
        options=(("policy", DEFAULT_POLICY),),
    )


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class BaselineStage:
    """The automatic baseline: DFS for single-processor instances, else BSPg."""

    name = "baseline"
    requires_incumbent = False
    prunable = False
    prune_label = ("baseline cost", "stage pruned")
    config_error_means_inapplicable = False

    def spec_token(self) -> str:
        return self.name

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.core.two_stage import baseline_schedule

        result = baseline_schedule(instance, synchronous=ctx.synchronous, seed=ctx.seed)
        return StageResult(
            stage=self.name,
            schedule=result.mbsp_schedule,
            cost=result.cost,
            status=f"schedule:{schedule_digest(result.mbsp_schedule)}",
        )


# ----------------------------------------------------------------------
# holistic ILP
# ----------------------------------------------------------------------
class IlpStage:
    """The holistic ILP scheduler, warm-started from the incumbent.

    ``warm="solution"`` (the default) encodes the incumbent schedule into a
    full ILP variable assignment and passes it as
    ``SolverOptions.warm_start_solution`` — the branch-and-bound backend
    installs it as its initial incumbent (and returns it when the tree
    cannot improve), the HiGHS backend derives an objective cutoff row.
    ``warm="objective"`` passes only the incumbent cost, which is the exact
    historical behaviour of the ``"ilp"`` portfolio member (the legacy
    member names canonicalize to this mode).
    """

    name = "ilp"
    requires_incumbent = True
    prunable = True
    prune_label = ("baseline cost", "ILP solve pruned")
    config_error_means_inapplicable = False

    def __init__(self, warm: str = "solution", backend: Optional[str] = None) -> None:
        if warm not in ("solution", "objective"):
            raise ConfigurationError(
                f"stage 'ilp': unknown warm={warm!r}; expected "
                f"'solution' or 'objective'"
            )
        self.warm = warm
        self.backend = None
        if backend is not None and str(backend).strip():
            # 'ilp@scipy' pins this stage's solver backend (the experiment
            # config's ilp_backend applies otherwise); canonicalize and
            # fail early on unknown names
            from repro.ilp.backends import get_backend

            try:
                self.backend = get_backend(str(backend).strip()).name
            except ValueError as exc:
                raise ConfigurationError(f"stage 'ilp': {exc}") from None

    def spec_token(self) -> str:
        options = [] if self.warm == "solution" else [("warm", self.warm)]
        pinned = f"@{self.backend}" if self.backend else ""
        return f"{self.name}{pinned}{_canonical_options(options)}"

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.core.scheduler import MbspIlpScheduler
        from repro.core.two_stage import TwoStageResult

        assert incumbent is not None  # guaranteed by the pipeline runner
        seeded = TwoStageResult(
            bsp_schedule=None,
            mbsp_schedule=incumbent.schedule,
            cost=incumbent.cost,
            scheduler_name=incumbent.source or "incumbent",
            policy_name="",
        )
        changes = {"warm_start": "solution" if self.warm == "solution" else "objective"}
        if self.backend is not None:
            changes["backend"] = self.backend
        ilp_config = replace(ctx.config.ilp_config(), **changes)
        result = MbspIlpScheduler(ilp_config).schedule(instance, baseline=seeded)
        extras = {}
        if self.warm == "solution":
            # observable on both backends: 1.0 when the incumbent schedule
            # was encoded and handed to the solver (bnb: initial incumbent
            # installed; scipy: objective cutoff row added), 0.0 when the
            # encoding did not fit and only the cost warm start was used
            extras["warm_started"] = 1.0 if result.warm_start == "solution" else 0.0
        return StageResult(
            stage=self.spec_token(),
            schedule=result.best_schedule,
            cost=result.best_cost,
            status=result.solver_status,
            sticky_status=True,
            solve_time=result.solve_time,
            extras=extras,
            telemetry={
                "warm_start": result.warm_start,
                "solver_message": result.solver_message,
                "ilp_cost": result.ilp_cost,
            },
        )


# ----------------------------------------------------------------------
# local-search refinement
# ----------------------------------------------------------------------
class RefineStage:
    """Local-search refinement of the incumbent (never worse, deterministic)."""

    name = "refine"
    requires_incumbent = True
    prunable = True
    prune_label = ("base cost", "refinement pruned")
    config_error_means_inapplicable = False

    def __init__(
        self,
        budget: Optional[int] = None,
        strategy: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        if strategy is not None and strategy not in ("hill", "anneal"):
            raise ConfigurationError(
                f"stage 'refine': unknown strategy={strategy!r}; "
                f"expected 'hill' or 'anneal'"
            )
        if budget is not None and budget < 0:
            raise ConfigurationError("stage 'refine': budget must be non-negative")
        self.budget = budget
        self.strategy = strategy
        self.seed = seed

    def spec_token(self) -> str:
        options = []
        if self.budget is not None:
            options.append(("budget", str(self.budget)))
        if self.strategy is not None:
            options.append(("strategy", self.strategy))
        if self.seed is not None:
            options.append(("seed", str(self.seed)))
        return f"{self.name}{_canonical_options(options)}"

    def refine_config(self, ctx: StageContext):
        config = ctx.config.refine
        changes = {}
        if self.budget is not None:
            changes["budget"] = self.budget
        if self.strategy is not None:
            changes["strategy"] = self.strategy
        if self.seed is not None:
            changes["seed"] = self.seed
        return replace(config, **changes) if changes else config

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.ilp.cancellation import current_cancel_token
        from repro.refine import Refiner

        assert incumbent is not None  # guaranteed by the pipeline runner
        config = self.refine_config(ctx)
        token = current_cancel_token()
        remaining = token.remaining() if token is not None else None
        if remaining is not None:
            # a wall-clock stage budget (budget=<s>s) caps the refinement
            # loop; binding it is wall-clock dependent, like any time limit
            cap = max(remaining, 0.0)
            config = replace(
                config,
                max_time=cap if config.max_time is None else min(config.max_time, cap),
            )
        refined = Refiner(config).refine(
            incumbent.schedule, synchronous=ctx.synchronous
        )
        cost = min(refined.final_cost, incumbent.cost)
        schedule = refined.schedule
        return StageResult(
            stage=self.spec_token(),
            schedule=schedule,
            cost=cost,
            status=f"schedule:{schedule_digest(schedule)}",
            extras=refined.telemetry(incumbent.cost),
            telemetry={
                "refine_accepted": refined.accepted,
                "refine_proposals": refined.proposals,
                "refine_rounds": refined.rounds,
            },
        )


# ----------------------------------------------------------------------
# divide and conquer
# ----------------------------------------------------------------------
class DacStage:
    """The divide-and-conquer ILP; its schedule is reported as-is."""

    name = "dac"
    requires_incumbent = False
    prunable = False
    prune_label = ("base cost", "stage pruned")
    config_error_means_inapplicable = False

    def __init__(
        self,
        max_part_size: Optional[int] = None,
        partition_time_limit: Optional[float] = None,
    ) -> None:
        if max_part_size is not None and max_part_size < 1:
            raise ConfigurationError("stage 'dac': max_part_size must be positive")
        self.max_part_size = max_part_size
        self.partition_time_limit = partition_time_limit

    def spec_token(self) -> str:
        options = []
        if self.max_part_size is not None:
            options.append(("max_part_size", str(self.max_part_size)))
        if self.partition_time_limit is not None:
            options.append(("partition_time_limit", f"{self.partition_time_limit:g}"))
        return f"{self.name}{_canonical_options(options)}"

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.core.acyclic_partition import PartitionConfig
        from repro.core.divide_conquer import DivideAndConquerScheduler
        from repro.core.two_stage import baseline_schedule
        from repro.ilp import SolverOptions

        # the registry defaults: max_part_size=22, partition_time_limit=3
        max_part_size = 22 if self.max_part_size is None else self.max_part_size
        time_limit = (
            3.0 if self.partition_time_limit is None else self.partition_time_limit
        )
        base = baseline_schedule(instance, synchronous=ctx.synchronous, seed=ctx.seed)
        scheduler = DivideAndConquerScheduler(
            ilp_config=ctx.config.ilp_config(),
            partition_config=PartitionConfig(
                max_part_size=max_part_size,
                solver_options=SolverOptions(time_limit=time_limit),
                backend=ctx.config.ilp_backend,
            ),
        )
        result = scheduler.schedule(instance, baseline=base)
        return StageResult(
            stage=self.spec_token(),
            schedule=result.dac_schedule,
            cost=result.dac_cost,
            status="divide-and-conquer",
            reported_baseline_cost=result.baseline.cost,
            extras={"parts": float(result.partition.num_parts)},
        )


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
for _scheduler in TWO_STAGE_SCHEDULERS:
    register_stage(
        _two_stage_factory(_scheduler),
        aliases=("bsp_ilp",) if _scheduler == "bsp-ilp" else (),
    )

register_stage(
    StageFactory(
        name="baseline",
        description="automatic two-stage baseline (DFS for P = 1, else BSPg; "
        "clairvoyant eviction) — auto-prepended when a spec starts with an "
        "incumbent-consuming stage",
        build=lambda options: BaselineStage(),
    )
)

register_stage(
    StageFactory(
        name="ilp",
        description="holistic ILP scheduler warm-started from the incumbent "
        "(warm=solution encodes the incumbent schedule as a full warm-start "
        "solution; warm=objective passes only its cost; 'ilp@scipy' / "
        "backend=... pins the solver backend of this stage)",
        build=lambda options: IlpStage(
            warm=options.get("warm", "solution"),
            backend=options.get("backend"),
        ),
        options=(("warm", "solution"), ("backend", "")),
    )
)

register_stage(
    StageFactory(
        name="refine",
        description="local-search refinement of the incumbent (repro.refine); "
        "budget/strategy/seed default to the experiment configuration",
        build=lambda options: RefineStage(
            budget=_int_option(options, "budget", "refine"),
            strategy=options.get("strategy"),
            seed=_int_option(options, "seed", "refine"),
        ),
        options=(("budget", ""), ("strategy", ""), ("seed", "")),
    )
)

register_stage(
    StageFactory(
        name="dac",
        description="divide-and-conquer ILP for larger DAGs; reports its "
        "schedule as-is (ignores the incumbent)",
        build=lambda options: DacStage(
            max_part_size=_int_option(options, "max_part_size", "dac"),
            partition_time_limit=_float_option(options, "partition_time_limit", "dac"),
        ),
        options=(("max_part_size", "22"), ("partition_time_limit", "3")),
    ),
    aliases=("divide-and-conquer", "divide_and_conquer"),
)
