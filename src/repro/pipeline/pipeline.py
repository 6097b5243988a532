"""The generic pipeline runner.

:class:`Pipeline` executes a parsed :class:`~repro.pipeline.spec.PipelineSpec`
on one instance: stages run in order, each stage's best schedule becomes the
next stage's warm-start incumbent, and per-stage telemetry (wall time,
solver calls, costs) is collected along the way.  The result reduces to the
exact :class:`~repro.pipeline.config.InstanceResult` shape the execution
session and the portfolio consume, so every portfolio member and every
paper experiment is *one declarative spec executed by this runner*
(:func:`run_member`).

**Bound-aware pruning** is decided per stage: before a prunable stage
(``ilp``, ``refine``) runs, the incumbent cost is compared against the
instance's :func:`repro.theory.bounds.instance_lower_bound`; when the
incumbent is provably within ``prune_gap`` of optimal the stage is skipped
(cost-neutrally at the default gap 0, since those stages never increase
cost) and the skip reason lands in the combined status.

**Shared-prefix reuse**: inside a :func:`stage_reuse_scope` (the portfolio
activates one per batch), completed stage prefixes are cached by
``(instance digest, config digest, prune gap, canonical stage prefix)``, so
``"m"`` and ``"m|refine"`` evaluate the shared ``"m"`` prefix once per
instance.  Reuse never changes results — a cached prefix is bit-identical
to recomputing it — it only saves work, and the saved solver calls are
reported in the portfolio table footer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.dag.graph import ComputationalDag
from repro.dag.io import dag_to_dict
from repro.exceptions import ConfigurationError
from repro.model.instance import MbspInstance
from repro.pipeline.config import ExperimentConfig, InstanceResult
from repro.pipeline.spec import PipelineSpec, parse, resolve_member
from repro.pipeline.stage import (
    PRUNED_STATUS_PREFIX,
    Incumbent,
    StageContext,
    StageResult,
)


# ----------------------------------------------------------------------
# shared-prefix reuse
# ----------------------------------------------------------------------
@dataclass
class StageReuseStats:
    """Bookkeeping of one reuse scope (one portfolio batch)."""

    runs: int = 0
    prefix_hits: int = 0
    stages_reused: int = 0
    solver_calls_saved: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.stages_reused} stage result(s) reused across "
            f"{self.prefix_hits} pipeline run(s), "
            f"~{self.solver_calls_saved:g} solver call(s) saved"
        )


@dataclass
class _PrefixEntry:
    results: Tuple[StageResult, ...]
    incumbent: Optional[Incumbent]
    solver_calls: float


class StageReuseCache:
    """Per-scope cache of completed stage prefixes."""

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.stats = StageReuseStats()
        self._entries: Dict[tuple, _PrefixEntry] = {}

    def get(self, key: tuple) -> Optional[_PrefixEntry]:
        return self._entries.get(key)

    def put(self, key: tuple, entry: _PrefixEntry) -> None:
        if key in self._entries:
            return
        if len(self._entries) >= self.max_entries:
            return  # a full cache stops growing; correctness is unaffected
        self._entries[key] = entry


_ACTIVE_CACHE: Optional[StageReuseCache] = None


@contextmanager
def stage_reuse_scope():
    """Activate shared-prefix reuse for all pipelines run inside the scope.

    Yields the :class:`StageReuseCache`, whose ``stats`` describe the saved
    work when the scope closes.  Scopes are per process: jobs a session fans
    out to worker processes do not see the parent's scope — forked workers
    drop the inherited one (see :func:`_drop_scope_in_child`), so reuse
    never depends on which worker runs which job (results are identical
    either way; only the savings differ).
    """
    global _ACTIVE_CACHE
    cache = StageReuseCache()
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous


def _drop_scope_in_child() -> None:
    """Reset the reuse scope in a forked child process.

    A fork-context worker pool opened inside a scope would otherwise start
    every worker with a copy of the parent's cache, and whether
    ``"m|refine"`` reuses ``"m"`` would depend on the job-to-worker
    assignment, invisibly to the parent's :class:`StageReuseStats`.
    """
    global _ACTIVE_CACHE
    _ACTIVE_CACHE = None


if hasattr(os, "register_at_fork"):  # POSIX; spawned children start empty
    os.register_at_fork(after_in_child=_drop_scope_in_child)


def _content_key(dag_data: dict, config) -> str:
    payload = {"dag": dag_data, "config": asdict(config)}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    """Outcome of one pipeline on one instance."""

    spec: str
    instance_name: str
    num_nodes: int
    stages: List[StageResult] = field(default_factory=list)
    schedule: Optional["object"] = None
    cost: float = math.inf
    inapplicable: str = ""
    stages_reused: int = 0

    @property
    def applicable(self) -> bool:
        return not self.inapplicable

    @property
    def pruned(self) -> bool:
        return any(stage.skipped for stage in self.stages)

    @property
    def baseline_cost(self) -> float:
        if not self.stages:
            return math.inf
        first = self.stages[0]
        if first.reported_baseline_cost is not None:
            return first.reported_baseline_cost
        return first.cost

    def status(self) -> str:
        if self.inapplicable:
            return f"inapplicable: {self.inapplicable}"
        if not self.stages:
            return ""
        parts = [
            stage.status
            for stage in self.stages[:-1]
            if stage.sticky_status and stage.status
        ]
        last = self.stages[-1]
        if last.status:
            parts.append(last.status)
        return "; ".join(parts)

    def to_instance_result(self) -> InstanceResult:
        """Reduce to the session's :class:`InstanceResult` shape.

        The mapping reproduces the historical portfolio-member results
        byte-for-byte for every legacy member spec (pinned by the golden
        equivalence tests): both cost fields, the combined status, merged
        ``extra_costs`` with the final ``member_cost``, and the summed ILP
        solve time.
        """
        if self.inapplicable:
            return InstanceResult(
                instance_name=self.instance_name,
                num_nodes=self.num_nodes,
                baseline_cost=math.inf,
                ilp_cost=math.inf,
                solver_status=self.status(),
                extra_costs={"member_cost": math.inf},
            )
        extras: Dict[str, float] = {}
        for stage in self.stages:
            extras.update(stage.extras)
        extras["member_cost"] = self.cost
        result = InstanceResult(
            instance_name=self.instance_name,
            num_nodes=self.num_nodes,
            baseline_cost=self.baseline_cost,
            ilp_cost=self.cost,
            solver_status=self.status(),
            solve_time=sum(stage.solve_time for stage in self.stages),
            extra_costs=extras,
        )
        if self.stages_reused:
            # diagnostics only: solver_stats is excluded from fingerprints,
            # so reuse can never make a cached run look different
            result.solver_stats["pipeline_stages_reused"] = float(self.stages_reused)
        return result

    def describe(self) -> str:
        """Multi-line per-stage telemetry table (CLI: ``repro pipeline run``)."""
        lines = [f"pipeline {self.spec!r} on {self.instance_name}"]
        if self.inapplicable:
            lines.append(f"  inapplicable: {self.inapplicable}")
            return "\n".join(lines)
        lines.extend(describe_stage_table(self.stages))
        lines.append(f"  final cost: {self.cost:g}")
        return "\n".join(lines)


def describe_stage_table(stages: Sequence[StageResult]) -> List[str]:
    """Per-stage telemetry rows (the ``repro pipeline run`` table).

    Every row shows the stage's *canonical* spec token (composite
    ``race(...)``/``budget=`` tokens included, sized to the longest token
    rather than a fixed column).  Stages that were skipped/pruned show
    ``-`` for wall time and solver calls — a skip is not a
    zero-wall-clock, zero-solve run — and race stages get indented
    per-branch sub-rows (wall time, solver calls, winner / cancel
    reason).
    """
    width = max([24] + [len(stage.stage) for stage in stages])
    lines: List[str] = []
    cost_in: Optional[float] = None
    for stage in stages:
        if stage.skipped:
            wall_text = f"{'-':>6s} "
            calls_text = "-"
            note = "skipped (bound pruning)"
        else:
            wall_text = f"{stage.telemetry.get('wall_time', 0.0):6.2f}s"
            calls_text = f"{stage.telemetry.get('solver_calls', 0.0):g}"
            note = stage.status
        arrow = (
            f"{cost_in:g} -> {stage.cost:g}" if cost_in is not None
            else f"{stage.cost:g}"
        )
        lines.append(
            f"  {stage.stage:<{width}s} cost {arrow:<20s} "
            f"[{wall_text}, {calls_text} solve(s)] {note}"
        )
        branches = stage.telemetry.get("race_branches") or {}
        if isinstance(branches, dict):
            for token in sorted(branches):
                branch = branches[token]
                if not isinstance(branch, dict):
                    continue
                if branch.get("winner"):
                    flag = "winner"
                elif not branch.get("started", True):
                    flag = "not started: " + (
                        branch.get("cancel_reason") or "race winner decided"
                    )
                elif branch.get("inapplicable"):
                    flag = "inapplicable"
                elif branch.get("cancelled"):
                    flag = "cancelled: " + (branch.get("cancel_reason") or "cancelled")
                else:
                    flag = "lost"
                cost = branch.get("cost", math.inf)
                cost_text = f"{cost:g}" if math.isfinite(cost) else "-"
                lines.append(
                    f"    - {token:<{max(2, width - 4)}s} cost {cost_text:<8s} "
                    f"[{branch.get('wall_time', 0.0):6.2f}s, "
                    f"{branch.get('solver_calls', 0):g} solve(s)] {flag}"
                )
        cost_in = stage.cost
    return lines


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class Pipeline:
    """A composable scheduler pipeline, built from a spec."""

    def __init__(self, spec: Union[str, PipelineSpec]) -> None:
        self.spec: PipelineSpec = parse(spec) if isinstance(spec, str) else spec
        self.stages = self.spec.build_stages()
        self._tokens = [stage.spec_token() for stage in self.stages]
        # equals self.spec.canonical(), derived from the already-built stages
        # to avoid constructing every stage a second time
        self.canonical = "|".join(self._tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline({self.canonical!r})"

    # ------------------------------------------------------------------
    def run(
        self,
        dag: Optional[ComputationalDag] = None,
        config: Optional[ExperimentConfig] = None,
        *,
        instance: Optional[MbspInstance] = None,
        prune_gap: Optional[float] = None,
    ) -> PipelineResult:
        """Run the pipeline on one instance and return a :class:`PipelineResult`.

        Provide either a ``dag`` (the instance is built from ``config``) or
        a ready ``instance``.  ``prune_gap`` enables per-stage bound-aware
        pruning (``None`` disables it).
        """
        if config is None:
            config = ExperimentConfig(name="pipeline")
        if instance is None:
            if dag is None:
                raise ConfigurationError("Pipeline.run needs a dag or an instance")
            instance = config.instance_for(dag)
        dag = instance.dag

        result = PipelineResult(
            spec=self.canonical,
            instance_name=dag.name,
            num_nodes=dag.num_nodes,
        )
        ctx = StageContext(instance=instance, config=config, prune_gap=prune_gap)

        cache = _ACTIVE_CACHE
        prefix_keys: List[tuple] = []
        if cache is not None:
            cache.stats.runs += 1
            content = _content_key(dag_to_dict(dag), config)
            running = []
            any_prunable = False
            for stage, token in zip(self.stages, self._tokens):
                running.append(token)
                any_prunable = any_prunable or stage.prunable
                # a prefix without prunable stages is prune-gap-independent,
                # so "m" (submitted without a gap) and "m|refine" (with one)
                # share the "m" prefix entry
                gap_key = prune_gap if any_prunable else None
                prefix_keys.append((content, gap_key, "|".join(running)))

        incumbent: Optional[Incumbent] = None
        start_index = 0
        solver_calls_so_far = 0.0
        if cache is not None:
            for k in range(len(self.stages), 0, -1):
                entry = cache.get(prefix_keys[k - 1])
                if entry is not None:
                    result.stages.extend(entry.results)
                    incumbent = entry.incumbent
                    start_index = k
                    solver_calls_so_far = entry.solver_calls
                    result.stages_reused = k
                    cache.stats.prefix_hits += 1
                    cache.stats.stages_reused += k
                    cache.stats.solver_calls_saved += entry.solver_calls
                    break

        pipeline_span = obs.NULL_SCOPE
        if obs.tracing_enabled():
            pipeline_span = obs.trace_span(
                "pipeline",
                category="pipeline",
                spec=self.canonical,
                instance=dag.name,
                stages_reused=result.stages_reused,
            )
        with pipeline_span:
            skip_reported = any(
                stage.skipped and stage.status for stage in result.stages
            )
            for i in range(start_index, len(self.stages)):
                stage = self.stages[i]
                token = self._tokens[i]
                if stage.requires_incumbent and incumbent is None:
                    raise ConfigurationError(
                        f"stage {token!r} needs an incumbent schedule; start the "
                        f"pipeline with a schedule-producing stage (e.g. 'baseline')"
                    )
                if (
                    ctx.prune_enabled
                    and stage.prunable
                    and incumbent is not None
                    and incumbent.cost
                    <= (1.0 + ctx.prune_gap) * ctx.lower_bound() + 1e-9
                ):
                    bound = ctx.lower_bound()
                    noun, phrase = stage.prune_label
                    status = ""
                    extras: Dict[str, float] = {}
                    if not skip_reported:
                        status = (
                            f"{PRUNED_STATUS_PREFIX} {noun} {incumbent.cost:g} is "
                            f"within {ctx.prune_gap:.1%} of the lower bound "
                            f"{bound:g}; {phrase}"
                        )
                        extras = {"lower_bound": bound, "pruned": 1.0}
                        skip_reported = True
                    if obs.tracing_enabled():
                        with obs.trace_span(
                            "stage",
                            category="pipeline",
                            spec=token,
                            skipped=True,
                            reason="bound pruning",
                            lower_bound=bound,
                        ):
                            pass
                        obs.count("pipeline.stages_pruned")
                    result.stages.append(
                        StageResult(
                            stage=token,
                            schedule=incumbent.schedule,
                            cost=incumbent.cost,
                            status=status,
                            sticky_status=bool(status),
                            extras=extras,
                            skipped=True,
                        )
                    )
                    if cache is not None:
                        cache.put(
                            prefix_keys[i],
                            _PrefixEntry(
                                tuple(result.stages), incumbent, solver_calls_so_far
                            ),
                        )
                    continue
                with obs.trace_span(
                    "stage", category="pipeline", spec=token
                ) as stage_span:
                    try:
                        with obs.Meter() as meter:
                            stage_result = stage.run(instance, incumbent, ctx)
                    except ConfigurationError as exc:
                        if not getattr(
                            stage, "config_error_means_inapplicable", False
                        ):
                            # a genuine misconfiguration (bad solver budgets,
                            # invalid step caps, ...) must fail the caller, not
                            # be swallowed as an infinitely expensive member
                            raise
                        # e.g. the DFS first stage on a multi-processor
                        # instance: the pipeline simply does not compete here
                        stage_span.set(inapplicable=str(exc))
                        result.inapplicable = str(exc)
                        result.schedule = None
                        result.cost = math.inf
                        return result
                    telemetry = stage_result.telemetry
                    telemetry.setdefault("wall_time", meter.wall_time)
                    telemetry["solver_calls"] = float(meter.solver_calls)
                    telemetry["solver_time"] = meter.solver_time
                    telemetry["cost_in"] = (
                        incumbent.cost if incumbent is not None else None
                    )
                    telemetry["cost_out"] = stage_result.cost
                    if obs.tracing_enabled():
                        stage_span.set(
                            cost_in=telemetry["cost_in"],
                            cost_out=stage_result.cost,
                            solver_calls=telemetry["solver_calls"],
                        )
                        obs.observe("pipeline.stage_time", telemetry["wall_time"])
                solver_calls_so_far += telemetry["solver_calls"]
                result.stages.append(stage_result)
                if stage_result.schedule is not None:
                    incumbent = Incumbent(
                        schedule=stage_result.schedule,
                        cost=stage_result.cost,
                        source=token,
                    )
                if cache is not None:
                    cache.put(
                        prefix_keys[i],
                        _PrefixEntry(
                            tuple(result.stages), incumbent, solver_calls_so_far
                        ),
                    )

            result.schedule = incumbent.schedule if incumbent is not None else None
            result.cost = result.stages[-1].cost if result.stages else math.inf
            return result


def run_pipeline(
    spec: Union[str, PipelineSpec],
    dag: ComputationalDag,
    config: Optional[ExperimentConfig] = None,
    prune_gap: Optional[float] = None,
) -> PipelineResult:
    """One-shot convenience wrapper: parse, build and run a pipeline."""
    return Pipeline(spec).run(dag, config, prune_gap=prune_gap)


def run_member(
    dag: ComputationalDag,
    config: ExperimentConfig,
    member: str,
    prune_gap: Optional[float] = None,
) -> InstanceResult:
    """Evaluate one portfolio ``member`` (legacy name or pipeline spec) on
    ``dag`` and reduce it to an :class:`InstanceResult`.

    Both cost fields carry the member's cost, and
    ``extra_costs["member_cost"]`` repeats it for table code.  For
    deterministic members ``solver_status`` carries a digest of the produced
    schedule, so callers can assert that two runs produced *bit-identical*
    schedules, not merely equal costs.  Members that do not apply to an
    instance (``dfs`` with ``P > 1``) report an infinite cost instead of
    failing the whole sweep.  ``prune_gap`` enables per-stage bound-aware
    pruning; ``None`` (the default) or a negative gap disables it.
    """
    pipeline = Pipeline(resolve_member(member))
    gap = prune_gap if prune_gap is not None and prune_gap >= 0 else None
    return pipeline.run(dag, config, prune_gap=gap).to_instance_result()


def is_pruned(result: InstanceResult) -> bool:
    """Whether ``result`` reports bound-pruned (skipped) pipeline stages."""
    return result.solver_status.startswith(PRUNED_STATUS_PREFIX)
