"""Composite pipeline stages: ``race(a,b,...)`` and wall-clock budgets.

These are the concurrency primitives of the pipeline spec language,
unlocked by the unified execution core (:mod:`repro.exec`):

* :class:`RaceStage` — the same incumbent fanned out to several *branches*
  (each branch is a sub-pipeline, e.g. ``race(ilp@bnb, ilp@scipy)`` or an
  anneal-seed race over ``refine(seed=..., strategy=anneal)`` variants).
  Branches run concurrently when the executing session granted slots
  (:func:`repro.exec.slots.branch_slots`), sequentially otherwise — the
  outcome is identical either way: the **winner is chosen
  deterministically** by lowest cost, ties broken by canonical branch
  order (branches canonicalize *sorted*, so shuffling them in the spec
  changes nothing).  Losers are cancelled — via the solver cancellation
  hooks (:mod:`repro.ilp.cancellation`) — only once the winner is
  *provably* decided: every branch ahead of the leader in canonical order
  has finished and the leader's cost already matches the instance's theory
  lower bound, which no branch can beat.  The race's ``StageResult``
  (status, schedule, cost, extras) derives from the winner alone, so
  fingerprints are independent of worker count and completion order.
* :class:`BudgetedStage` — a ``budget=<seconds>s`` option on any stage
  token wraps the stage with a wall-clock deadline, enforced through the
  same cancellation hooks (the branch-and-bound backend stops at node
  granularity; HiGHS has its time limit clamped; refinement caps its
  ``max_time``).  The budget is part of the canonical spec — and therefore
  of the job hash — so runs with different budgets never collide in
  the result cache, and a cache hit replays the budgeted outcome as-is.
  A budget that actually *binds* makes the outcome wall-clock dependent,
  exactly like ``--time-limit``; use node limits plus generous budgets for
  sweeps that must be bit-reproducible.
"""

from __future__ import annotations

import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import ConfigurationError
from repro.ilp.cancellation import CancelToken, cancel_scope, current_cancel_token
from repro.model.instance import MbspInstance
from repro.pipeline.registry import StageFactory, register_stage
from repro.pipeline.stage import Incumbent, StageContext, StageResult

#: Tolerance for "the leader's cost already matches the lower bound".
_BOUND_EPS = 1e-9

#: Ready-made race members (documented, tested and used by the CI smoke).
EXAMPLE_RACE_SPECS: Dict[str, str] = {
    # the ROADMAP's backend race: one incumbent, both ILP backends
    "backend race": "baseline|race(ilp@bnb,ilp@scipy)",
    # the anneal-seed race: concurrent annealing restarts, best seed wins
    "anneal-seed race": (
        "baseline|race(refine(seed=11,strategy=anneal),"
        "refine(seed=23,strategy=anneal),refine(seed=47,strategy=anneal))"
    ),
}


def splice_option(token: str, key: str, value: str) -> str:
    """Insert ``key=value`` into a canonical stage token.

    Positional arguments keep their order; options stay sorted — the same
    canonical layout the parser produces, so splicing commutes with
    parsing (``BudgetedStage.spec_token`` relies on this fixed point).
    """
    from repro.pipeline.spec import has_top_level, split_top_level

    item = f"{key}={value}"
    if token.endswith(")"):
        head, _, body = token.partition("(")
        body = body[:-1]
        items = [i.strip() for i in split_top_level(body, ",") if i.strip()]
        args = [i for i in items if not has_top_level(i, "=")]
        options = sorted([i for i in items if has_top_level(i, "=")] + [item])
        return f"{head}({','.join(args + options)})"
    return f"{token}({item})"


# ----------------------------------------------------------------------
# wall-clock budgets
# ----------------------------------------------------------------------
class BudgetedStage:
    """Wraps any stage with a wall-clock deadline (``budget=<seconds>s``)."""

    def __init__(self, inner, seconds: float) -> None:
        if seconds < 1e-6:
            raise ConfigurationError(
                "stage budget must be at least 1 microsecond"
            )
        self.inner = inner
        self.seconds = float(seconds)
        # the wrapper is transparent to the pipeline runner
        self.name = inner.name
        self.requires_incumbent = inner.requires_incumbent
        self.prunable = inner.prunable
        self.prune_label = inner.prune_label
        self.config_error_means_inapplicable = inner.config_error_means_inapplicable

    def spec_token(self) -> str:
        from repro.pipeline.spec import format_budget_seconds

        return splice_option(
            self.inner.spec_token(), "budget", format_budget_seconds(self.seconds)
        )

    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        token = CancelToken.after(self.seconds, parent=current_cancel_token())
        with obs.Meter() as meter, obs.trace_span(
            "budget", category="pipeline", spec=self.spec_token(), budget=self.seconds
        ) as span:
            with cancel_scope(token):
                result = self.inner.run(instance, incumbent, ctx)
            span.set(expired=token.deadline_expired())
        result.stage = self.spec_token()  # telemetry shows the budgeted token
        # deterministic budget accounting: the limit itself is part of the
        # spec token (and job hash); elapsed/expired are wall-clock
        # telemetry, excluded from result fingerprints
        result.telemetry["budget"] = self.seconds
        result.telemetry["budget_elapsed"] = meter.wall_time
        result.telemetry["budget_expired"] = token.deadline_expired()
        return result


# ----------------------------------------------------------------------
# races
# ----------------------------------------------------------------------
@dataclass
class _BranchOutcome:
    """What one race branch produced (or why it did not)."""

    token: str
    cost: float = math.inf
    schedule: Optional[object] = None
    status: str = ""
    solve_time: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    inapplicable: str = ""
    cancelled: bool = False
    cancel_reason: str = ""
    skipped: bool = False  # never started: the winner was already decided
    wall_time: float = 0.0
    solver_calls: int = 0
    solver_time: float = 0.0
    error: Optional[BaseException] = None


class RaceStage:
    """Concurrent branches from one incumbent; deterministic winner.

    Branches are stored (and canonicalized) in sorted canonical-spec
    order; the winner is the branch with the lowest final cost, ties
    broken by that order — both independent of execution interleaving.
    A branch whose stage does not apply to the instance (e.g. a ``dfs``
    first stage with ``P > 1``) competes with infinite cost; when *no*
    branch applies the race keeps the incumbent (or reports an infinite
    cost when it had none).
    """

    name = "race"
    prune_label = ("incumbent cost", "race pruned")
    config_error_means_inapplicable = False

    def __init__(self, branches: Sequence[str]) -> None:
        branches = [str(branch).strip() for branch in branches if str(branch).strip()]
        if len(branches) < 2:
            raise ConfigurationError(
                "stage 'race' needs at least two branches, e.g. "
                "'race(ilp@bnb, ilp@scipy)'"
            )
        parsed = []
        for branch in branches:
            specs = self._parse_branch(branch)
            stages = [spec.build() for spec in specs]
            token = "|".join(stage.spec_token() for stage in stages)
            parsed.append((token, stages))
        parsed.sort(key=lambda item: item[0])
        self._tokens: List[str] = [token for token, _ in parsed]
        self._branches: List[list] = [stages for _, stages in parsed]
        self.requires_incumbent = any(
            stages[0].requires_incumbent for stages in self._branches
        )
        self.prunable = all(
            stage.prunable for stages in self._branches for stage in stages
        )

    @staticmethod
    def _parse_branch(text: str):
        from repro.pipeline.spec import _parse_stage_token, split_top_level

        # validation happens when __init__ builds the stages (once)
        return [
            _parse_stage_token(token, text, validate=False)
            for token in split_top_level(text, "|")
        ]

    def spec_token(self) -> str:
        return f"{self.name}({','.join(self._tokens)})"

    # ------------------------------------------------------------------
    def run(
        self, instance: MbspInstance, incumbent: Optional[Incumbent], ctx: StageContext
    ) -> StageResult:
        from repro.exec.slots import branch_slots

        count = len(self._branches)
        parent = current_cancel_token()
        tokens = [CancelToken(parent=parent) for _ in range(count)]
        outcomes: List[Optional[_BranchOutcome]] = [None] * count
        lock = threading.Lock()

        def prefix_decides(ahead) -> bool:
            """Whether a complete canonical-order prefix already decides the
            winner: its best *ran* cost matches the theory lower bound,
            which no later branch can beat (skipped losers are part of a
            complete prefix but carry no cost of their own)."""
            costs = [o.cost for o in ahead if not o.skipped]
            if not costs:
                return False
            best = min(costs)
            return math.isfinite(best) and best <= ctx.lower_bound() + _BOUND_EPS

        def decided_before(idx: int) -> bool:
            ahead = [outcomes[j] for j in range(idx)]
            if not ahead or any(o is None for o in ahead):
                return False
            return prefix_decides(ahead)

        def note_done() -> None:
            """Cancel still-running losers once the winner is decided."""
            with lock:
                complete = 0
                while complete < count and outcomes[complete] is not None:
                    complete += 1
                if complete and prefix_decides(outcomes[:complete]):
                    for j in range(complete, count):
                        if outcomes[j] is None:
                            tokens[j].cancel(reason="race winner decided")

        def fail_fast() -> None:
            """A genuine error in one branch stops all the others."""
            for token in tokens:
                token.cancel(reason="sibling branch failed")

        slots = min(count, branch_slots())
        if slots > 1:
            with ThreadPoolExecutor(
                max_workers=slots, thread_name_prefix="repro-race"
            ) as pool:
                # each branch runs in its own copy of this context, so the
                # stage's and the job's meters count the branch's solves
                # (two threads cannot enter one context at once)
                futures = [
                    pool.submit(
                        contextvars.copy_context().run,
                        self._run_branch, i, instance, incumbent, ctx, tokens[i],
                        outcomes, note_done, fail_fast,
                    )
                    for i in range(count)
                ]
                for future in futures:
                    future.result()
        else:
            for i in range(count):
                if decided_before(i):
                    # sequential cancellation: the loser is not even started
                    outcomes[i] = _BranchOutcome(
                        token=self._tokens[i],
                        cancelled=True,
                        cancel_reason="race winner decided",
                        skipped=True,
                    )
                    continue
                self._run_branch(
                    i, instance, incumbent, ctx, tokens[i], outcomes,
                    lambda: None, fail_fast,
                )
                if outcomes[i] is not None and outcomes[i].error is not None:
                    break

        errors = [o.error for o in outcomes if o is not None and o.error is not None]
        if errors:
            raise errors[0]
        return self._reduce(outcomes, incumbent)

    def _run_branch(
        self,
        idx: int,
        instance: MbspInstance,
        incumbent: Optional[Incumbent],
        ctx: StageContext,
        token: CancelToken,
        outcomes: List[Optional[_BranchOutcome]],
        note_done,
        fail_fast,
    ) -> None:
        outcome = _BranchOutcome(token=self._tokens[idx])
        with obs.trace_span(
            "race.branch", category="pipeline", branch=self._tokens[idx], index=idx
        ) as span:
            try:
                with obs.Meter() as meter, cancel_scope(token):
                    current: Optional[Incumbent] = incumbent
                    for stage in self._branches[idx]:
                        if stage.requires_incumbent and current is None:
                            raise ConfigurationError(
                                f"race branch {self._tokens[idx]!r} needs an "
                                f"incumbent schedule; start the pipeline with a "
                                f"schedule-producing stage (e.g. 'baseline')"
                            )
                        try:
                            result = stage.run(instance, current, ctx)
                        except ConfigurationError as exc:
                            if getattr(stage, "config_error_means_inapplicable", False):
                                outcome.inapplicable = str(exc)
                                break
                            raise
                        outcome.solve_time += result.solve_time
                        for key, value in result.extras.items():
                            outcome.extras[key] = value
                        outcome.status = result.status
                        if result.schedule is not None:
                            current = Incumbent(
                                schedule=result.schedule,
                                cost=result.cost,
                                source=stage.spec_token(),
                            )
                    if not outcome.inapplicable and current is not incumbent and \
                            current is not None:
                        outcome.schedule = current.schedule
                        outcome.cost = current.cost
            except BaseException as exc:  # repro: lint-ignore[REP-C03] - stored on the outcome and re-raised by run()
                outcome.error = exc
                fail_fast()
            outcome.cancelled = token.cancel_requested
            if outcome.cancelled:
                outcome.cancel_reason = token.cancel_reason() or "cancelled"
            outcome.wall_time = meter.wall_time
            outcome.solver_calls = meter.solver_calls
            outcome.solver_time = meter.solver_time
            if obs.tracing_enabled():
                span.set(
                    cost=outcome.cost,
                    cancelled=outcome.cancelled,
                    cancel_reason=outcome.cancel_reason,
                    solver_calls=outcome.solver_calls,
                )
        outcomes[idx] = outcome
        note_done()

    def _reduce(
        self, outcomes: List[Optional[_BranchOutcome]], incumbent: Optional[Incumbent]
    ) -> StageResult:
        winner: Optional[_BranchOutcome] = None
        for outcome in outcomes:  # canonical order: first strict minimum wins
            if outcome is None or outcome.schedule is None:
                continue
            if winner is None or outcome.cost < winner.cost:
                winner = outcome
        telemetry = {
            "race_branches": {
                o.token: {
                    "cost": o.cost,
                    "wall_time": o.wall_time,
                    "solver_calls": o.solver_calls,
                    "solver_time": o.solver_time,
                    "cancelled": o.cancelled,
                    "cancel_reason": o.cancel_reason,
                    "winner": winner is not None and o is winner,
                    "started": not o.skipped,
                    "inapplicable": o.inapplicable,
                }
                for o in outcomes
                if o is not None
            },
            "race_winner": winner.token if winner is not None else "",
            "race_cancelled": sum(
                1 for o in outcomes if o is not None and o.cancelled
            ),
        }
        solve_time = sum(o.solve_time for o in outcomes if o is not None)
        if winner is None:
            # no branch applied (or none improved anything): keep the
            # incumbent when there is one, report infinite cost otherwise
            reasons = "; ".join(
                o.inapplicable for o in outcomes if o is not None and o.inapplicable
            )
            status = "race: no branch applicable" + (f" ({reasons})" if reasons else "")
            return StageResult(
                stage=self.spec_token(),
                schedule=incumbent.schedule if incumbent is not None else None,
                cost=incumbent.cost if incumbent is not None else math.inf,
                status=status,
                sticky_status=True,
                solve_time=solve_time,
                telemetry=telemetry,
            )
        status = f"race[{winner.token}] {winner.status}".rstrip()
        return StageResult(
            stage=self.spec_token(),
            schedule=winner.schedule,
            cost=winner.cost,
            status=status,
            sticky_status=True,
            solve_time=solve_time,
            extras=dict(winner.extras),
            telemetry=telemetry,
        )


def _race_build(options):  # pragma: no cover - build_composite always wins
    raise ConfigurationError(
        "stage 'race' needs at least two branches, e.g. 'race(ilp@bnb, ilp@scipy)'"
    )


register_stage(
    StageFactory(
        name="race",
        description="concurrent branch race from one incumbent: "
        "race(a,b,...) fans the incumbent out to every branch "
        "(sub-pipelines); winner = lowest cost, ties by canonical branch "
        "order (deterministic under any worker count); losers are "
        "cancelled once the winner is provably decided",
        build=_race_build,
        build_composite=lambda args, options: RaceStage(args),
    )
)
