"""The schedule refinement engine: seeded local search over MBSP schedules.

:class:`Refiner` post-optimizes any valid :class:`~repro.model.schedule.
MbspSchedule` by hill climbing (or simulated annealing) over the move
neighborhood of :mod:`repro.refine.moves`.  The engine's contract:

* **never worse** — the returned schedule's cost is at most the input's
  (simulated annealing tracks the best-seen snapshot);
* **always valid** — every accepted move passes a pebbling revalidation
  (:class:`~repro.refine.validation.IncrementalValidator`), so the result
  satisfies :func:`repro.model.validation.validate_schedule` whenever the
  input does;
* **deterministic** — for a fixed seed and budget the proposal order, the
  accepted moves and the final schedule are reproducible (no wall-clock
  dependence unless ``max_time`` is explicitly set).

Costs are evaluated **incrementally**: a proposal costs ``O(P)`` per edited
superstep (see :mod:`repro.refine.editing`), a full
:func:`~repro.model.cost.schedule_cost` is never recomputed per move.  The
default objective is the synchronous cost model; with ``synchronous=False``
the sync state still screens proposals cheaply, but acceptance is gated on
the exact asynchronous makespan — strict improvement under hill climbing, a
Metropolis test on the makespan delta under annealing.  (The makespan is
not superstep-separable, so it is evaluated exactly, once per candidate
that survives the screen — the same complexity class as the validity
replay it accompanies.)
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.model.cost import asynchronous_cost, schedule_cost
from repro.model.schedule import MbspSchedule
from repro.refine.editing import ScheduleEditor
from repro.refine.moves import MOVE_FAMILIES, generate_moves
from repro.refine.validation import IncrementalValidator

_EPS = 1e-9


@dataclass
class RefineConfig:
    """Configuration of the refinement engine.

    Attributes
    ----------
    enabled:
        Consumed by the experiment harness (``ExperimentConfig.refine``):
        whether the per-instance runners post-optimize their schedules.  The
        explicit ``"<member>+refine"`` portfolio members refine regardless.
    budget:
        Maximum number of move *proposals* examined (applied tentatively and
        evaluated); the deterministic resource knob.
    seed:
        Seed of the proposal-order RNG (and the annealing acceptance RNG).
    strategy:
        ``"hill"`` — first-improvement hill climbing to a local optimum;
        ``"anneal"`` — simulated annealing with geometric cooling, returning
        the best-seen schedule.
    initial_temperature / cooling:
        Annealing schedule: ``T_k = initial_temperature * cooling ** k``.
    moves:
        Enabled move families (see :data:`repro.refine.moves.MOVE_FAMILIES`).
    max_time:
        Optional wall-clock cap in seconds.  **Breaks determinism** — leave
        ``None`` (the default) anywhere results feed caches or comparisons.
    """

    enabled: bool = False
    budget: int = 3000
    seed: int = 0
    strategy: str = "hill"
    initial_temperature: float = 20.0
    cooling: float = 0.995
    moves: Tuple[str, ...] = MOVE_FAMILIES
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.strategy not in ("hill", "anneal"):
            raise ValueError(
                f"unknown refinement strategy {self.strategy!r}; "
                f"expected 'hill' or 'anneal'"
            )
        if self.budget < 0:
            raise ValueError("refinement budget must be non-negative")


@dataclass(frozen=True)
class TraceEntry:
    """One accepted move: its proposal index, family, delta and new cost.

    Delta and cost are in the search's objective: the editor's running
    total under the synchronous model, the exact makespan otherwise.
    """

    proposal: int
    move: str
    delta: float
    cost: float


@dataclass
class RefineResult:
    """Outcome of one :meth:`Refiner.refine` call.

    ``initial_cost`` and ``final_cost`` are the ``schedule_cost`` of the
    input and of the returned schedule.
    """

    schedule: MbspSchedule
    initial_cost: float
    final_cost: float
    trace: List[TraceEntry] = field(default_factory=list)
    proposals: int = 0
    accepted: int = 0
    invalid: int = 0       # cost-accepted candidates rejected by a screen or the replay
    rounds: int = 0
    wall_time: float = 0.0

    @property
    def improvement(self) -> float:
        """Absolute cost reduction (non-negative by contract)."""
        return self.initial_cost - self.final_cost

    @property
    def improvement_ratio(self) -> float:
        """Final cost over initial cost (``<= 1``)."""
        if self.initial_cost == 0:
            return 1.0
        return self.final_cost / self.initial_cost

    def telemetry(self, unrefined_cost: float) -> dict:
        """The standard ``extra_costs`` record of one refinement pass.

        Shared by every experiment runner that refines a schedule, so the
        recorded keys cannot drift between them.
        """
        return {
            "unrefined_cost": float(unrefined_cost),
            "refine_accepted": float(self.accepted),
            "refine_proposals": float(self.proposals),
        }

    def summary(self) -> str:
        return (
            f"refine: {self.initial_cost:g} -> {self.final_cost:g} "
            f"({self.improvement_ratio:.3f}x) in {self.accepted} accepted / "
            f"{self.proposals} proposed moves ({self.invalid} invalid), "
            f"{self.rounds} rounds, {self.wall_time:.2f}s"
        )


class Refiner:
    """Local-search post-optimizer for MBSP schedules."""

    def __init__(self, config: Optional[RefineConfig] = None) -> None:
        self.config = config or RefineConfig()

    # ------------------------------------------------------------------
    def refine(
        self,
        schedule: MbspSchedule,
        instance=None,
        budget: Optional[int] = None,
        synchronous: bool = True,
    ) -> RefineResult:
        """Refine ``schedule`` (left unmodified) within the proposal budget.

        ``instance`` defaults to the schedule's own instance; passing one
        re-targets the copy (the DAG and processor count must match).
        Raises :class:`~repro.exceptions.InvalidScheduleError` when the
        input schedule is not valid.
        """
        from repro import obs

        if not obs.tracing_enabled():
            return self._refine_impl(schedule, instance, budget, synchronous)
        config = self.config
        with obs.trace_span(
            "refine",
            category="refine",
            strategy=config.strategy,
            seed=config.seed,
            budget=config.budget if budget is None else int(budget),
        ) as span:
            result = self._refine_impl(schedule, instance, budget, synchronous)
            span.set(
                proposals=result.proposals,
                accepted=result.accepted,
                invalid=result.invalid,
                rounds=result.rounds,
                cost_in=result.initial_cost,
                cost_out=result.final_cost,
            )
            return result

    def _refine_impl(
        self,
        schedule: MbspSchedule,
        instance=None,
        budget: Optional[int] = None,
        synchronous: bool = True,
    ) -> RefineResult:
        config = self.config
        start = time.perf_counter()
        if instance is None or instance is schedule.instance:
            work = schedule.copy()
        else:
            work = MbspSchedule(instance, [s.copy() for s in schedule.supersteps])
        budget = config.budget if budget is None else max(0, int(budget))

        editor = ScheduleEditor(work)
        validator = IncrementalValidator(work)
        # the search runs on the objective it can track: under the
        # synchronous model the editor's running total, a per-step sum that
        # drifts from schedule_cost in the last bits on fractional weights.
        # The result reports schedule_cost of the schedules themselves
        initial_cost = schedule_cost(work, synchronous)
        search_cost = editor.cost.total if synchronous else initial_cost

        result = RefineResult(
            schedule=work, initial_cost=initial_cost, final_cost=initial_cost
        )
        if not work.supersteps or budget == 0:
            result.schedule = work.drop_empty_supersteps()
            result.wall_time = time.perf_counter() - start
            return result

        rng = random.Random(config.seed)
        anneal = config.strategy == "anneal"
        families = config.moves
        if not anneal:
            # splits always cost at least +L and reorders are cost-neutral:
            # under strict-improvement hill climbing neither can ever be
            # accepted, so proposing them would only burn budget (they stay
            # in the annealing neighborhood, where uphill/neutral moves are
            # the point)
            families = tuple(f for f in families if f not in ("split", "reorder"))
        deadline = None if config.max_time is None else start + config.max_time

        current_cost = search_cost
        best_cost = search_cost
        # annealing walks uphill, so the best-seen schedule must be kept
        # (starting with the input itself); hill climbing is monotone
        best_snapshot: Optional[MbspSchedule] = work.copy() if anneal else None

        def metropolis(delta: float) -> bool:
            """Annealing acceptance: downhill always, uphill by temperature."""
            if delta <= _EPS:
                return True
            temperature = max(
                config.initial_temperature * (config.cooling ** result.proposals),
                1e-9,
            )
            return rng.random() < math.exp(-delta / temperature)

        out_of_budget = False
        while not out_of_budget:
            result.rounds += 1
            candidates = generate_moves(work, families)
            rng.shuffle(candidates)
            accepted_this_round = 0
            for move_class, args in candidates:
                if result.proposals >= budget or (
                    deadline is not None and time.perf_counter() > deadline
                ):
                    out_of_budget = True
                    break
                result.proposals += 1
                move = move_class(*args)
                sync_before = editor.cost.total
                editor.begin()
                if not move.apply(editor):
                    editor.rollback()
                    continue
                sync_delta = editor.cost.total - sync_before
                if anneal:
                    if not metropolis(sync_delta):
                        editor.rollback()
                        continue
                elif sync_delta >= (-_EPS if synchronous else _EPS):
                    # hill climbing accepts strict improvements only; under
                    # the asynchronous objective the sync delta is just a
                    # cheap screen, so sync-*neutral* moves (e.g. a load
                    # moved into slack) pass through to the makespan gate
                    editor.rollback()
                    continue
                if not synchronous:
                    # the makespan is not superstep-separable: evaluate it
                    # exactly on the mutated schedule (the cheap sync delta
                    # above only screened the proposal) and gate acceptance
                    # on it — strict improvement under hill climbing, a
                    # second Metropolis test on the makespan delta under
                    # annealing
                    new_cost = asynchronous_cost(work)
                    if anneal:
                        if not metropolis(new_cost - current_cost):
                            editor.rollback()
                            continue
                    elif new_cost >= current_cost - _EPS:
                        editor.rollback()
                        continue
                else:
                    new_cost = editor.cost.total
                if move.doomed(work, validator) or not validator.revalidate(
                    editor.first_affected, editor.last_affected, editor.structural
                ):
                    result.invalid += 1
                    editor.rollback()
                    continue
                editor.commit()
                # the trace reports deltas in the *reported* objective, so
                # the async trace shows makespan deltas, not the sync screen
                objective_delta = new_cost - current_cost
                current_cost = new_cost
                result.accepted += 1
                accepted_this_round += 1
                result.trace.append(
                    TraceEntry(
                        proposal=result.proposals,
                        move=move.name,
                        delta=objective_delta,
                        cost=current_cost,
                    )
                )
                if current_cost < best_cost - _EPS:
                    best_cost = current_cost
                    best_snapshot = work.copy() if anneal else None
            if not accepted_this_round and not out_of_budget:
                break  # a full clean scan found nothing: local optimum
        # annealing may end uphill: fall back to the best-seen snapshot
        if anneal and best_snapshot is not None and current_cost > best_cost + _EPS:
            work = best_snapshot
        result.schedule = work.drop_empty_supersteps()
        result.final_cost = schedule_cost(result.schedule, synchronous)
        if result.final_cost > initial_cost:
            # belt and braces: the contract is "never worse"
            result.schedule = schedule.copy().drop_empty_supersteps()
            result.final_cost = initial_cost
        result.wall_time = time.perf_counter() - start
        return result


def refine_schedule(
    schedule: MbspSchedule,
    budget: Optional[int] = None,
    seed: int = 0,
    strategy: str = "hill",
    synchronous: bool = True,
    config: Optional[RefineConfig] = None,
) -> RefineResult:
    """Convenience wrapper: refine with an ad-hoc configuration."""
    if config is None:
        config = RefineConfig(seed=seed, strategy=strategy)
    return Refiner(config).refine(schedule, budget=budget, synchronous=synchronous)
