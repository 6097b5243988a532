"""Core types of the composable scheduler pipeline API.

A *pipeline* is a sequence of :class:`Stage` objects.  Each stage consumes
the current *incumbent* schedule (the best schedule produced by the stages
before it — ``None`` for the first stage) and returns a
:class:`StageResult`: its (possibly improved) schedule, the achieved cost,
a status fragment and per-stage telemetry.  The pipeline threads each
stage's schedule into the next as the warm-start incumbent, which is how the
paper's experiments compose: an initial-assignment heuristic, local-search
refinement, and an exact ILP warm-started from whatever the cheaper stages
already found.

Stages are small objects satisfying the :class:`Stage` protocol and are
created through the registry in :mod:`repro.pipeline.registry`; the built-in
stages live in :mod:`repro.pipeline.stages` and the ``"a|b|c"`` spec
mini-language in :mod:`repro.pipeline.spec`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, runtime_checkable

from repro.model.instance import MbspInstance
from repro.model.schedule import MbspSchedule
from repro.pipeline.config import ExperimentConfig

#: ``solver_status`` prefix of results whose work was skipped by bound-aware
#: pruning (the canonical definition; re-exported by :mod:`repro.portfolio`).
PRUNED_STATUS_PREFIX = "skipped:"


def schedule_digest(schedule: MbspSchedule) -> str:
    """Short stable digest of a schedule's exact superstep structure."""
    from repro.model.serialization import schedule_to_dict

    blob = json.dumps(
        schedule_to_dict(schedule), sort_keys=True, default=repr, check_circular=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Incumbent:
    """The best schedule threaded between pipeline stages."""

    schedule: MbspSchedule
    cost: float
    source: str = ""  # spec token of the stage that produced it


@dataclass
class StageContext:
    """Everything a stage may need besides the instance and the incumbent.

    The experiment configuration carries the shared knobs (processors, cost
    parameters, ILP budgets and backend, refinement defaults); ``prune_gap``
    is the pipeline-level bound-pruning gap (``None`` disables pruning) and
    :meth:`lower_bound` evaluates the instance's theory lower bound lazily —
    at most once per pipeline run.
    """

    instance: MbspInstance
    config: ExperimentConfig
    prune_gap: Optional[float] = None
    _lower_bound: Optional[float] = None

    @property
    def synchronous(self) -> bool:
        return self.config.synchronous

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def prune_enabled(self) -> bool:
        return self.prune_gap is not None and self.prune_gap >= 0

    def lower_bound(self) -> float:
        if self._lower_bound is None:
            from repro.theory.bounds import instance_lower_bound

            self._lower_bound = instance_lower_bound(
                self.instance, synchronous=self.synchronous
            )
        return self._lower_bound


@dataclass
class StageResult:
    """Outcome of one stage on one instance.

    Attributes
    ----------
    stage:
        The stage's canonical spec token (e.g. ``"bspg+clairvoyant"``).
    schedule / cost:
        The stage's best schedule and its cost; becomes the next stage's
        incumbent.
    status:
        Status fragment for the combined pipeline status (a schedule digest
        for deterministic stages, the solver status for ILP stages, the skip
        reason for pruned stages).
    sticky_status:
        Whether the fragment survives into the combined status even when
        later stages run (ILP solver statuses and prune-skip reasons do;
        schedule digests are superseded by the following stage's).
    reported_baseline_cost:
        What the *pipeline*'s ``baseline_cost`` should be when this is the
        first stage, if different from ``cost`` (the divide-and-conquer
        stage reports its internal two-stage baseline).
    extras:
        ``extra_costs`` entries merged (in stage order) into the pipeline's
        :class:`~repro.pipeline.config.InstanceResult`.
    telemetry:
        Per-stage diagnostics (wall time, solver calls, warm-start mode …);
        surfaced by ``repro pipeline run``, never part of fingerprints.
    skipped:
        True when bound-aware pruning skipped the stage.
    """

    stage: str
    schedule: Optional[MbspSchedule]
    cost: float
    status: str = ""
    sticky_status: bool = False
    reported_baseline_cost: Optional[float] = None
    solve_time: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    telemetry: Dict[str, object] = field(default_factory=dict)
    skipped: bool = False


@runtime_checkable
class Stage(Protocol):
    """The protocol every pipeline stage implements.

    ``requires_incumbent`` stages can only run after a schedule-producing
    stage (spec parsing auto-prepends the ``baseline`` stage when needed);
    ``prunable`` stages may be skipped by bound-aware pruning when the
    incumbent is provably within the gap of the theory lower bound
    (``prune_label`` provides the wording of the skip message).

    ``config_error_means_inapplicable`` distinguishes the two meanings of a
    ``ConfigurationError`` raised from :meth:`run`: for stages that set it
    (the two-stage heuristics — e.g. the DFS first stage on a ``P > 1``
    instance) the pipeline reports an *inapplicable* result with infinite
    cost instead of failing the sweep; for every other stage the error is a
    genuine misconfiguration (bad solver budgets, invalid step caps) and
    propagates to the caller.
    """

    name: str
    requires_incumbent: bool
    prunable: bool
    prune_label: tuple  # (cost noun, skipped-work phrase)
    config_error_means_inapplicable: bool

    def spec_token(self) -> str:
        """Canonical spec token, including non-default options."""
        ...  # pragma: no cover - protocol

    def run(
        self,
        instance: MbspInstance,
        incumbent: Optional[Incumbent],
        ctx: StageContext,
    ) -> StageResult:
        """Run the stage; may raise ``ConfigurationError`` when inapplicable."""
        ...  # pragma: no cover - protocol
