"""The scheduler portfolio: run several schedulers, keep the best per instance.

The ILP-based schedulers dominate on some instances and the cheap two-stage
pipelines on others (and the ILP is orders of magnitude more expensive), so
the natural production configuration is a *portfolio*: evaluate a set of
member pipelines on every instance — fanned out over a
:class:`~repro.exec.Session` — and report, per instance, the member achieving
the lowest MBSP cost.

    >>> from repro.portfolio import Portfolio
    >>> portfolio = Portfolio()
    >>> winners = portfolio.run(["bspg+clairvoyant", "cilk+lru", "ilp"], dags,
    ...                         workers=4)
    >>> winners[0].best_member, winners[0].best_cost

Execution goes through the unified execution core (:mod:`repro.exec`):
the member x instance fan-out is a run plan executed by a ``Session``
(pass ``session=`` to share one), so all session services apply:
``workers=N`` parallelises over processes, ``cache_dir`` makes repeated
sweeps free, and ``results_path``/``resume`` stream and resume long sweeps.

Members are **pipeline specs** (:mod:`repro.pipeline`): legacy names like
``"ilp"`` or ``"bspg+clairvoyant+refine"`` and raw specs like
``"bspg+clairvoyant|refine|ilp"`` or the backend race
``"baseline|race(ilp@bnb,ilp@scipy)"`` are equally valid; jobs are hashed
under the canonical spec, so two spellings of one pipeline share a cache
entry.

Three mechanisms make the expensive members cheaper or avoidable:

* ``config.ilp_backend`` selects the ILP solver backend per job
  (``scipy``/``bnb``/``auto``, see :mod:`repro.ilp.backends`);
* ``prune_gap`` enables *bound-aware pruning*, decided per pipeline stage:
  before a prunable stage (``ilp``, ``refine``) runs, the incumbent cost is
  compared against the instance's
  :func:`~repro.theory.bounds.instance_lower_bound`, and the stage is
  skipped (reporting the incumbent cost plus a ``skipped:`` status) when
  the incumbent is provably within the gap of optimal.  The default gap
  ``0.0`` only skips *provably optimal* incumbents and therefore never
  changes the portfolio's best costs; ``prune_gap=None`` disables pruning
  entirely.  (``dac`` is never pruned: it reports its schedule as-is.)
* *shared-prefix reuse*: members with a common stage prefix (``"m"`` and
  ``"m|refine"``) evaluate it once per instance within a run; the savings
  appear in the table footer (``format_portfolio_table(rows,
  reuse=portfolio.last_reuse)``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.dag.graph import ComputationalDag
from repro.exceptions import ConfigurationError
from repro.exec import RunPlan, Session, pipeline_job, plan_pipelines
from repro.experiments.runner import ExperimentConfig, InstanceResult
from repro.pipeline import StageReuseStats, stage_reuse_scope
from repro.portfolio.members import (
    DEFAULT_MEMBERS,
    PRUNED_STATUS_PREFIX,
    resolve_member,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.learn.history import LearnedHistory
    from repro.learn.select import SelectionReport


@dataclass
class PortfolioResult:
    """Per-instance outcome of a portfolio run."""

    instance_name: str
    num_nodes: int
    member_costs: Dict[str, float] = field(default_factory=dict)
    member_status: Dict[str, str] = field(default_factory=dict)
    best_member: str = ""
    best_cost: float = math.inf

    @property
    def has_winner(self) -> bool:
        """False when no member applied to the instance (all costs infinite)."""
        return bool(self.best_member)

    @property
    def ranking(self) -> List[str]:
        """Members from best (cheapest) to worst; ties keep portfolio order."""
        return sorted(self.member_costs, key=lambda m: self.member_costs[m])

    @property
    def pruned_members(self) -> List[str]:
        """Members whose ILP solve was skipped by bound-aware pruning."""
        return [
            member
            for member, status in self.member_status.items()
            if status.startswith(PRUNED_STATUS_PREFIX)
        ]

    @property
    def num_pruned(self) -> int:
        """Number of ILP solves skipped on this instance."""
        return len(self.pruned_members)


class Portfolio:
    """Evaluates a set of scheduler members and picks the best per instance."""

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        workers: int = 1,
        cache_dir=None,
        results_path=None,
        resume: bool = False,
        prune_gap: Optional[float] = 0.0,
        select: str = "exhaustive",
        top_k: Optional[int] = None,
        history: Optional[Union["LearnedHistory", str]] = None,
        selector: str = "greedy",
        seed: int = 0,
    ) -> None:
        self.config = config or ExperimentConfig(name="portfolio")
        self.workers = workers
        self.cache_dir = cache_dir
        self.results_path = results_path
        self.resume = resume
        # bound-aware pruning gap for the ILP-backed members; the default 0.0
        # skips only provably optimal baselines (cost-neutral by construction),
        # None disables pruning
        self.prune_gap = prune_gap
        # adaptive member selection (repro.learn): "adaptive" runs only the
        # predicted top_k members per instance, ranked by the selector over
        # the mined history; "exhaustive" (the default) runs everything and
        # remains the ground truth the history is mined from
        if select not in ("exhaustive", "adaptive"):
            raise ConfigurationError(
                f"unknown selection mode {select!r}; "
                f"expected 'exhaustive' or 'adaptive'"
            )
        self.select = select
        self.top_k = top_k
        self.history = history
        self.selector = selector
        self.seed = seed
        #: shared-prefix reuse statistics of the most recent :meth:`run`
        self.last_reuse: Optional[StageReuseStats] = None
        #: adaptive-selection report of the most recent :meth:`run`
        #: (``None`` after an exhaustive run)
        self.last_selection: Optional["SelectionReport"] = None

    def run(
        self,
        members: Optional[Sequence[str]] = None,
        dags: Sequence[ComputationalDag] = (),
        workers: Optional[int] = None,
        session: Optional[Session] = None,
    ) -> List[PortfolioResult]:
        """Run every member on every DAG; return one result per DAG (in order).

        Execution goes through the unified execution core: the member x
        instance fan-out becomes a :class:`~repro.exec.RunPlan` run by a
        :class:`~repro.exec.Session` (pass ``session=`` to share one across
        runs).  Jobs are submitted instance-major, so with ``workers > 1``
        all members of all instances execute concurrently; the reduction to
        the per-instance winner happens deterministically in submission
        order (ties broken by the position in ``members``).
        """
        members = list(DEFAULT_MEMBERS) if members is None else list(members)
        if not members:
            raise ConfigurationError("a portfolio needs at least one member")
        # members may be legacy names or raw pipeline specs; jobs are
        # submitted (and hashed, and disk-cached) under the *canonical* spec,
        # so two spellings of the same pipeline share one cache entry
        canonical = {member: resolve_member(member) for member in members}
        if session is None:
            session = Session(
                workers=self.workers if workers is None else workers,
                cache_dir=self.cache_dir,
                results_path=self.results_path,
                resume=self.resume,
            )
        dags = list(dags)
        selection = self._plan_selection(members, canonical, dags)
        self.last_selection = selection
        if selection is not None:
            return self._run_adaptive(selection, members, dags, session)
        plan = plan_pipelines(members, dags, self.config, self.prune_gap)
        # shared-prefix reuse: members with a common stage prefix (e.g. "m"
        # and "m|refine") evaluate it once per instance when jobs execute in
        # this process; the scope's stats feed the table footer
        with stage_reuse_scope() as reuse:
            flat = session.run(plan)
        self.last_reuse = reuse.stats
        return reduce_to_portfolio_rows(members, dags, flat)

    # ------------------------------------------------------------------
    # adaptive selection (repro.learn)
    # ------------------------------------------------------------------
    def _plan_selection(self, members, canonical, dags):
        """The adaptive selection plan, or ``None`` for exhaustive mode.

        A missing history warns and falls back to exhaustive evaluation
        (the warn-and-fall-back convention of the ``REPRO_*`` knobs) — an
        adaptive request must never crash a sweep just because no history
        was mined yet.
        """
        if self.select != "adaptive":
            return None
        history = self.history
        if history is None:
            warnings.warn(
                "adaptive selection requested without a mined history; "
                "falling back to exhaustive evaluation (mine one with "
                "'repro learn mine' and pass history=...)",
                UserWarning,
                stacklevel=3,
            )
            return None
        if isinstance(history, (str, bytes)) or hasattr(history, "__fspath__"):
            from repro.learn.history import LearnedHistory

            history = LearnedHistory.load(history)
        from repro.learn.select import plan_selection

        return plan_selection(
            history,
            dags,
            self.config,
            members,
            canonical,
            top_k=self.top_k,
            selector=self.selector,
            seed=self.seed,
        )

    def _run_adaptive(self, selection, members, dags, session):
        """Run only the chosen members per instance; reduce the ragged batch.

        The chosen subsets preserve the member order and the job parameters
        of the exhaustive plan, so every submitted job is content-hash
        identical to its exhaustive counterpart (shared cache entries), and
        ``top_k >= len(members)`` degenerates to the exhaustive plan.
        Members skipped by selection contribute neither a cost nor a status
        to the row (they render as ``-`` in the table); the per-instance
        decisions live in :attr:`last_selection`.
        """
        jobs = []
        slots: List[Optional[int]] = []
        for i, dag in enumerate(dags):
            chosen = selection.selections[i].chosen
            for member in members:
                if member in chosen:
                    slots.append(len(jobs))
                    jobs.append(
                        pipeline_job(dag, member, self.config, self.prune_gap)
                    )
                else:
                    slots.append(None)
        with stage_reuse_scope() as reuse:
            ran = session.run(RunPlan.from_jobs(jobs))
        self.last_reuse = reuse.stats
        flat = [None if slot is None else ran[slot] for slot in slots]
        out = reduce_to_portfolio_rows(members, dags, flat)
        selection.finalize(out)
        return out


def reduce_to_portfolio_rows(
    members: Sequence[str],
    dags: Sequence[ComputationalDag],
    flat: Sequence[Optional[InstanceResult]],
) -> List[PortfolioResult]:
    """Reduce an instance-major ``members x dags`` result batch to one
    :class:`PortfolioResult` per instance (the winner-per-instance view).

    This is *the* reduction of the portfolio (``repro exec run`` and
    adaptive selection share it): winner = strictly lowest
    ``member_cost``, ties keep the first member in ``members`` order.  A
    ``None`` slot is a member that did not run on the instance (skipped by
    adaptive selection); it contributes neither a cost nor a status.
    """
    out: List[PortfolioResult] = []
    for i, dag in enumerate(dags):
        row = PortfolioResult(instance_name=dag.name, num_nodes=dag.num_nodes)
        for j, member in enumerate(members):
            result = flat[i * len(members) + j]
            if result is None:
                continue
            cost = result.extra_costs.get("member_cost", result.ilp_cost)
            row.member_costs[member] = cost
            row.member_status[member] = result.solver_status
            if cost < row.best_cost:  # strict: first member wins ties
                row.best_cost = cost
                row.best_member = member
        out.append(row)
    return out


def format_portfolio_table(
    results: Sequence[PortfolioResult],
    reuse: Optional[StageReuseStats] = None,
    selection: Optional["SelectionReport"] = None,
) -> str:
    """Fixed-width text rendering of a portfolio run (one row per instance).

    Costs of members whose ILP solve was skipped by bound-aware pruning are
    marked with ``*`` and summarised in a footer line; pass the run's
    :class:`~repro.pipeline.StageReuseStats` (``Portfolio.last_reuse``) to
    also report the solver calls saved by shared-prefix reuse.  After an
    adaptive run, pass ``Portfolio.last_selection`` to append the
    selection/regret footer (members skipped by selection render as ``-``).
    """
    members: List[str] = []
    for row in results:
        for member in row.member_costs:
            if member not in members:
                members.append(member)
    header = f"{'instance':<20s} {'n':>5s}"
    for member in members:
        header += f" {member:>18s}"
    header += f"  {'winner':<18s}"
    lines = [header, "-" * len(header)]
    total_pruned = 0
    for row in results:
        line = f"{row.instance_name:<20s} {row.num_nodes:>5d}"
        pruned = set(row.pruned_members)
        total_pruned += len(pruned)
        for member in members:
            cost = row.member_costs.get(member, math.inf)
            if not math.isfinite(cost):
                line += f" {'-':>18s}"
            elif member in pruned:
                line += f" {cost:>17.1f}*"
            else:
                line += f" {cost:>18.1f}"
        line += f"  {row.best_member if row.has_winner else '(none applicable)':<18s}"
        lines.append(line)
    if total_pruned:
        lines.append(
            f"* {total_pruned} ILP solve(s) skipped by bound pruning "
            f"(baseline provably near-optimal)"
        )
    if reuse is not None and reuse.stages_reused:
        lines.append(f"= shared-prefix reuse: {reuse.describe()}")
    if selection is not None:
        lines.extend(selection.footer_lines())
    return "\n".join(lines)
