"""Load-adaptive pipeline selection for the scheduling service.

The service answers every request with one scheduler pipeline
(:mod:`repro.pipeline` spec).  Which pipeline is worth running depends on
the load the request arrives under: when the queue is deep or the deadline
is tight, a cheap two-stage heuristic keeps latency bounded; when the
service is idle, richer pipelines (refinement, ``race(...)``, the ILP) buy
better schedules with the spare capacity.

The policy is deliberately a pure function of the per-request load
observables ``(queue_depth, slack)`` — no wall clock, no randomness — so a
replay of the same arrival trace picks the same spec for every request
regardless of worker count or machine: the bit-identical-replay guarantee
of :mod:`repro.serve` rests on it.

The spec tiers are ordered by cost, and the default tiers keep the golden
cost invariant by construction: every tier starts from the ``baseline``
schedule (for the default ``P = 4`` the baseline stage *is* BSPg +
clairvoyant) and only ever appends improving stages, so the cost the
service reports is never worse than the ``baseline`` member's cost on the
same instance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pipeline import resolve_member

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.learn.features import FeatureVector
    from repro.learn.history import LearnedHistory


@dataclass(frozen=True)
class PolicyConfig:
    """Spec tiers plus the load thresholds that select between them.

    ``cheap_spec`` answers pressure (queue at least ``pressure_depth`` deep,
    or slack at most ``tight_slack``), ``rich_spec`` answers idleness
    (queue at most ``idle_depth`` deep with loose slack) and
    ``steady_spec`` answers everything in between.  Specs may be legacy
    member names or raw pipeline specs (``race(...)``/``budget=<s>s``
    included); they are canonicalized once, at policy construction.
    """

    cheap_spec: str = "baseline"
    steady_spec: str = "bspg+clairvoyant"
    rich_spec: str = "bspg+clairvoyant|refine"
    pressure_depth: int = 4
    tight_slack: float = 1.0
    idle_depth: int = 0

    def validate(self) -> None:
        try:
            finite = math.isfinite(self.tight_slack)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ConfigurationError("tight_slack must be finite")
        for name in ("pressure_depth", "idle_depth"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
        if self.pressure_depth <= self.idle_depth:
            raise ConfigurationError(
                "policy thresholds must satisfy idle_depth < pressure_depth "
                f"(got idle_depth={self.idle_depth}, "
                f"pressure_depth={self.pressure_depth})"
            )
        if self.tight_slack < 0:
            raise ConfigurationError("tight_slack must be >= 0")


class AdaptivePolicy:
    """Maps per-request load observables to a canonical pipeline spec."""

    def __init__(self, config: PolicyConfig = PolicyConfig()) -> None:
        config.validate()
        self.config = config
        # canonicalize once: the job content hashes (and hence the cache
        # keys) always see the canonical spelling, never the tier aliases
        self.cheap = resolve_member(config.cheap_spec)
        self.steady = resolve_member(config.steady_spec)
        self.rich = resolve_member(config.rich_spec)

    @property
    def specs(self) -> Tuple[str, str, str]:
        """The canonical ``(cheap, steady, rich)`` tier specs."""
        return (self.cheap, self.steady, self.rich)

    def choose(self, queue_depth: int, slack: float) -> str:
        """The canonical spec for a request arriving under the given load.

        ``queue_depth`` is the number of requests in the system when this
        one arrives; ``slack`` is the request's relative deadline.
        Pressure wins over idleness: a deep queue or a tight deadline
        always gets the cheap tier, even when ``idle_depth`` would match.
        """
        cfg = self.config
        if queue_depth >= cfg.pressure_depth or slack <= cfg.tight_slack:
            return self.cheap
        if queue_depth <= cfg.idle_depth:
            return self.rich
        return self.steady

    def choose_many(self, queue_depths: np.ndarray, slacks: np.ndarray) -> np.ndarray:
        """The tiers of a block of requests, as indices into :attr:`specs`.

        Element ``k`` is the index of ``choose(queue_depths[k],
        slacks[k])``: 0 (cheap) under pressure, else 2 (rich) when idle,
        else 1 (steady).  ``queue_depths`` is an ``int64`` array and
        ``slacks`` a ``float64`` array.  The comparisons are the ones
        ``choose`` makes, exactly:

        * the depth thresholds are integers (``PolicyConfig.validate``),
          and numpy compares an ``int64`` depth with an integer exactly,
          also beyond the ``int64`` range;
        * a float slack is at most ``tight_slack`` if and only if it is at
          most the largest float not above ``tight_slack``; that is
          ``float(tight_slack)``, or the float below it when the
          conversion rounded up (an int beyond ``2**53``).

        The service's block kernel calls this method only on a policy
        whose ``choose`` is defined on the same class (see
        ``repro.serve.service``).
        """
        cfg = self.config
        tight = float(cfg.tight_slack)
        if tight > cfg.tight_slack:
            tight = math.nextafter(tight, -math.inf)
        pressure = (queue_depths >= cfg.pressure_depth) | (slacks <= tight)
        idle = queue_depths <= cfg.idle_depth
        return np.where(pressure, 0, np.where(idle, 2, 1))


class LearnedPolicy:
    """Feature-aware tier chooser backed by a mined history (repro.learn).

    A drop-in for :class:`AdaptivePolicy` — same tiers, same thresholds,
    same ``choose`` — plus the duck-typed ``choose_for(features, ...)``
    hook the service consults when the policy carries one.  Pressure still
    always gets the cheap tier (latency bounds beat learned preferences);
    outside pressure the mined history ranks the steady and rich tier
    specs for the instance's features and promotes whichever it predicts
    wins.  On instances the history has never seen, the load-threshold
    tier is kept, so an empty history reproduces ``AdaptivePolicy``
    exactly.

    The chooser stays a pure function of ``(history, features, load)`` —
    no wall clock, no randomness — so the bit-identical-replay guarantee
    of :mod:`repro.serve` is preserved: same trace + same history file =>
    same spec for every request, regardless of worker count or machine.
    """

    def __init__(
        self,
        history: "LearnedHistory",
        config: PolicyConfig = PolicyConfig(),
        selector: str = "greedy",
        seed: int = 0,
    ) -> None:
        from repro.learn.model import SELECTORS

        if selector not in SELECTORS:
            raise ConfigurationError(
                f"unknown selector {selector!r} (choose from "
                f"{', '.join(SELECTORS)})"
            )
        self._base = AdaptivePolicy(config)
        self.config = self._base.config
        self.history = history
        self.selector = selector
        self.seed = seed
        self.cheap = self._base.cheap
        self.steady = self._base.steady
        self.rich = self._base.rich

    @property
    def specs(self) -> Tuple[str, str, str]:
        """The canonical ``(cheap, steady, rich)`` tier specs."""
        return self._base.specs

    def choose(self, queue_depth: int, slack: float) -> str:
        """Feature-free fallback: the plain load-threshold tier."""
        return self._base.choose(queue_depth, slack)

    def choose_for(
        self, features: "FeatureVector", queue_depth: int, slack: float
    ) -> str:
        """The canonical spec for a request, given the instance features.

        Candidate order encodes the fallback: the load-threshold tier goes
        first, and the ranking keeps unobserved specs in candidate order,
        so the history only *overrides* the threshold tier when it has
        actually observed the candidates.
        """
        from repro.learn.model import rank_members

        cfg = self.config
        if queue_depth >= cfg.pressure_depth or slack <= cfg.tight_slack:
            return self.cheap
        default_first = (
            (self.rich, self.steady)
            if queue_depth <= cfg.idle_depth
            else (self.steady, self.rich)
        )
        candidates = list(dict.fromkeys(default_first))
        ranking = rank_members(
            self.history,
            features,
            candidates,
            selector=self.selector,
            seed=self.seed,
        )
        return ranking[0]
