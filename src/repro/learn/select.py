"""Adaptive top-k member selection for the portfolio.

:func:`plan_selection` turns a mined :class:`~repro.learn.history.
LearnedHistory` plus the portfolio's member list into a per-instance plan:
which members to *run* (the predicted top-k) and which to skip.  The
portfolio then submits exactly the chosen jobs — with the same parameters
and therefore the same content-hash keys as an exhaustive run, so adaptive
and exhaustive runs share cache entries.

After the run, :meth:`SelectionReport.finalize` joins the achieved best
costs back in and computes **regret**: the achieved best cost minus the
instance's *true best* mined cost (the minimum over all specs in the
history).  Regret is only defined for instances the history knows; unknown
instances are counted separately instead of polluting the aggregate.
``top_k >= len(members)`` degenerates to the exhaustive plan (same jobs,
same order) — the golden guarantee that adaptive mode is a strict subset
of exhaustive work, never different work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dag.graph import ComputationalDag
from repro.exceptions import ConfigurationError
from repro.learn.features import instance_features
from repro.learn.history import LearnedHistory
from repro.learn.model import SELECTORS, rank_members
from repro.pipeline import ExperimentConfig


@dataclass
class InstanceSelection:
    """The per-instance decision: predicted ranking, chosen subset, regret."""

    instance: str
    ranking: List[str]
    chosen: List[str]
    skipped: List[str]
    #: true-best mined cost (``None`` when the history has no truth)
    true_best: Optional[float] = None
    #: best cost actually achieved by the chosen members (set by finalize)
    achieved: float = math.inf

    @property
    def regret(self) -> Optional[float]:
        """Achieved minus true-best cost; ``None`` without mined truth."""
        if self.true_best is None or not math.isfinite(self.achieved):
            return None
        return self.achieved - self.true_best


@dataclass
class SelectionReport:
    """Everything one adaptive selection decided (and later achieved)."""

    selector: str
    top_k: int
    seed: int
    history_digest: str
    selections: List[InstanceSelection] = field(default_factory=list)
    predicted_calls_saved: float = 0.0

    @property
    def jobs_total(self) -> int:
        return sum(len(s.chosen) + len(s.skipped) for s in self.selections)

    @property
    def jobs_run(self) -> int:
        return sum(len(s.chosen) for s in self.selections)

    @property
    def jobs_skipped(self) -> int:
        return self.jobs_total - self.jobs_run

    def finalize(self, rows) -> None:
        """Join achieved best costs from the portfolio rows (plan order)."""
        for selection, row in zip(self.selections, rows):
            selection.achieved = row.best_cost

    def aggregate_regret(self) -> Dict[str, float]:
        """Summed regret over the instances with mined truth.

        ``relative`` is the regret as a fraction of the summed true-best
        cost (0.0 = the adaptive run matched the mined optimum everywhere).
        """
        total = 0.0
        truth = 0.0
        known = 0
        unknown = 0
        for selection in self.selections:
            regret = selection.regret
            if regret is None:
                unknown += 1
                continue
            known += 1
            total += regret
            truth += selection.true_best or 0.0
        return {
            "regret": round(total, 9),
            "relative": round(total / truth, 9) if truth > 0 else 0.0,
            "instances_known": float(known),
            "instances_unknown": float(unknown),
        }

    def footer_lines(self) -> List[str]:
        """The portfolio-table footer rendering of this report."""
        aggregate = self.aggregate_regret()
        lines = [
            f"~ adaptive selection ({self.selector}, top-{self.top_k}): "
            f"ran {self.jobs_run}/{self.jobs_total} member job(s), "
            f"{self.jobs_skipped} skipped "
            f"(history predicts ~{self.predicted_calls_saved:g} solver "
            f"call(s) saved)",
            f"~ aggregate regret: {aggregate['regret']:g} "
            f"({aggregate['relative'] * 100:+.2f}% vs true best) over "
            f"{int(aggregate['instances_known'])} instance(s) with mined "
            f"truth, {int(aggregate['instances_unknown'])} without",
        ]
        return lines


def plan_selection(
    history: LearnedHistory,
    dags: Sequence[ComputationalDag],
    config: ExperimentConfig,
    members: Sequence[str],
    canonical: Dict[str, str],
    top_k: Optional[int] = None,
    selector: str = "greedy",
    seed: int = 0,
) -> SelectionReport:
    """Decide, per instance, which ``top_k`` members to run.

    ``canonical`` maps every member to its canonical spec (the portfolio
    already resolved it); the ranking happens over canonical specs (what
    the history stores) and is mapped back to member names.  The chosen
    subset preserves the portfolio's member order, so ``top_k >=
    len(members)`` reproduces the exhaustive job list exactly.
    """
    if selector not in SELECTORS:
        raise ConfigurationError(
            f"unknown selector {selector!r}; available: {SELECTORS}"
        )
    members = list(members)
    k = len(members) if top_k is None else int(top_k)
    if k < 1:
        raise ConfigurationError(f"top_k must be >= 1 (got {k})")
    # first member of a canonical spec represents it in the ranking (two
    # spellings of one pipeline are one candidate, like one cache entry)
    spec_owner: Dict[str, str] = {}
    for member in members:
        spec_owner.setdefault(canonical[member], member)
    candidates = list(spec_owner)
    report = SelectionReport(
        selector=selector,
        top_k=min(k, len(members)),
        seed=seed,
        history_digest=history.digest(),
    )
    for dag in dags:
        features = instance_features(dag, config)
        ranked_specs = rank_members(
            history, features, candidates, selector=selector, seed=seed
        )
        ranking = [spec_owner[spec] for spec in ranked_specs]
        keep = set(ranking[:k])
        # duplicate spellings ride along with their canonical representative
        chosen = [m for m in members if spec_owner[canonical[m]] in keep]
        skipped = [m for m in members if m not in chosen]
        entry = history.instances.get(dag.name)
        for member in skipped:
            if entry is not None:
                observation = entry.members.get(canonical[member])
                if observation is not None:
                    report.predicted_calls_saved += observation.solver_calls
        report.selections.append(
            InstanceSelection(
                instance=dag.name,
                ranking=ranking,
                chosen=chosen,
                skipped=skipped,
                true_best=history.best_cost(dag.name),
            )
        )
    return report
