"""Rule pack B: the semantic checker for specs, plans and serve configs.

Unlike pack A (:mod:`repro.lint.rules`), these checks do not read source
files — they validate *configuration* the way the runtime would, without
executing anything: pipeline specs are parsed and built through the real
spec parser and stage registry (so every check is resolution-level-true,
not regex guesswork), shard counts go through the real
:func:`shard_assignment`, and serve policy tiers through the real
``resolve_member``.

Findings reuse the :class:`~repro.lint.engine.Finding` shape with a
virtual path such as ``<spec:baseline|ilp>`` or ``<policy.rich>``, so the
text/JSON reporters and exit codes are shared with ``repro lint``.

Checks
------

========  ========  ====================================================
REP-S01   error     spec does not parse/build (unknown stage or backend,
                    malformed option, ``budget=0s``, bad sweep, ...)
REP-S02   error     ``race(...)`` branches not distinct after
                    canonicalization (the duplicate can never win a tie)
REP-S03   warning   wall-clock ``budget=<s>s`` on a stage with no
                    cancellation point (the budget cannot bind)
REP-S04   error     incumbent-consuming stage whose upstream cannot
          /warning  produce an incumbent (all race branches inapplicable)
REP-S05   warning   sweep cardinality above the ``max_sweep`` threshold
REP-S06   error     serve policy invalid (thresholds, unresolvable tiers)
REP-S07   error     plan cannot split into the requested shard count
========  ========  ====================================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.lint.engine import Finding

#: Stages with no cancellation point: a wall-clock ``budget=<s>s`` wraps
#: them but can never interrupt anything (the two-stage heuristics and the
#: baseline run no solver and check no token).
_NON_BINDING_BUDGET_STAGES = frozenset(
    {"baseline", "bspg", "cilk", "etf", "dfs"}
)

#: Incumbent production status, ordered worst to best.
_NONE, _CONDITIONAL, _GUARANTEED = 0, 1, 2

#: Sweeps wider than this default trigger the REP-S05 cardinality warning.
DEFAULT_MAX_SWEEP = 16


def _semantic_finding(
    rule: str, severity: str, source: str, message: str
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=f"<{source}>",
        line=1,
        col=0,
        message=message,
    )


# ----------------------------------------------------------------------
# spec checking
# ----------------------------------------------------------------------
def _unwrap(stage):
    """The stage behind any BudgetedStage wrapper (and the wrapper)."""
    from repro.pipeline.composite import BudgetedStage

    if isinstance(stage, BudgetedStage):
        return stage.inner, stage
    return stage, None


def _producer_status(stage, processors: Optional[int]) -> Tuple[int, str]:
    """How surely ``stage`` leaves an incumbent behind for the next stage.

    Returns ``(status, detail)``: every non-race stage that applies to the
    instance produces a schedule; ``dfs`` applies only when ``P = 1``
    (``config_error_means_inapplicable`` — the pipeline returns early), so
    with ``P > 1`` it is *definitely* inapplicable and with unknown ``P``
    only *conditionally* a producer.  A race produces exactly when its
    best branch chain does.
    """
    from repro.pipeline.composite import RaceStage

    inner, _ = _unwrap(stage)
    if isinstance(inner, RaceStage):
        best = _NONE
        for branch in inner._branches:
            best = max(best, _branch_chain_produces(branch, processors))
        if best == _NONE:
            return _NONE, (
                "every race branch is inapplicable, so the race keeps "
                "an incumbent it does not have"
            )
        if best == _CONDITIONAL:
            return _CONDITIONAL, (
                "every race branch is only conditionally applicable"
            )
        return _GUARANTEED, ""
    if getattr(inner, "config_error_means_inapplicable", False):
        # the two-stage heuristics; only dfs actually restricts P
        if inner.name == "dfs":
            if processors is None:
                return _CONDITIONAL, "dfs requires P = 1"
            if processors != 1:
                return _NONE, f"dfs requires P = 1 but processors={processors}"
        return _GUARANTEED, ""
    return _GUARANTEED, ""


def _branch_chain_produces(stages, processors: Optional[int]) -> int:
    """Best-case incumbent production of one race branch chain.

    Incumbent-*consuming* stages inside a branch (``refine``, ``ilp``)
    transform the race's own incumbent and never add one, so only the
    producer stages of the chain count.
    """
    best = _NONE
    for stage in stages:
        inner, _ = _unwrap(stage)
        if getattr(inner, "requires_incumbent", False):
            continue
        status, _ = _producer_status(stage, processors)
        best = max(best, status)
    return best


def check_spec(
    text: str,
    *,
    processors: Optional[int] = None,
    source: Optional[str] = None,
    max_sweep: int = DEFAULT_MAX_SWEEP,
) -> List[Finding]:
    """Statically validate one pipeline spec (sweeps included).

    ``processors`` sharpens the REP-S04 incumbent analysis (``dfs``
    applies only when ``P = 1``); without it, definite errors downgrade
    to warnings.  Returns findings; an empty list means the runtime's
    parse/build path would accept the spec.
    """
    from repro.pipeline.spec import expand_spec

    label = source if source is not None else f"spec:{str(text).strip()}"
    findings: List[Finding] = []
    try:
        expanded = expand_spec(text)
    except ConfigurationError as exc:
        return [_semantic_finding("REP-S01", "error", label, str(exc))]
    if len(expanded) > max_sweep:
        findings.append(
            _semantic_finding(
                "REP-S05",
                "warning",
                label,
                f"sweep expands to {len(expanded)} member specs "
                f"(> {max_sweep}); every member runs on every instance — "
                f"narrow the sweep or raise --max-sweep deliberately",
            )
        )
    for spec_text in expanded:
        sub_label = label if len(expanded) == 1 else f"spec:{spec_text}"
        findings.extend(
            _check_one_spec(spec_text, processors=processors, source=sub_label)
        )
    return findings


def _check_one_spec(
    text: str, *, processors: Optional[int], source: str
) -> List[Finding]:
    from repro.pipeline.spec import parse

    findings: List[Finding] = []
    try:
        spec = parse(text)
        stages = spec.build_stages()
    except ConfigurationError as exc:
        return [_semantic_finding("REP-S01", "error", source, str(exc))]

    findings.extend(_check_stages(stages, processors, source))
    return findings


def _check_stages(stages, processors: Optional[int], source: str) -> List[Finding]:
    from repro.pipeline.composite import RaceStage

    findings: List[Finding] = []
    #: whether an incumbent is surely/maybe available before each stage
    incumbent = _NONE
    for position, stage in enumerate(stages):
        inner, budget = _unwrap(stage)
        is_race = isinstance(inner, RaceStage)

        # REP-S03: a budget that cannot bind
        if budget is not None and inner.name in _NON_BINDING_BUDGET_STAGES:
            findings.append(
                _semantic_finding(
                    "REP-S03",
                    "warning",
                    source,
                    f"stage {position + 1} ({inner.name!r}): wall-clock "
                    f"budget on a stage with no cancellation point — the "
                    f"budget can never bind; drop it or budget a solver-"
                    f"backed stage",
                )
            )

        if is_race:
            findings.extend(
                _check_race(inner, processors, source, position)
            )

        # REP-S04: incumbent availability
        if getattr(stage, "requires_incumbent", False):
            if incumbent == _NONE:
                findings.append(
                    _semantic_finding(
                        "REP-S04",
                        "error",
                        source,
                        f"stage {position + 1} ({inner.name!r}) consumes an "
                        f"incumbent, but no upstream stage can produce one "
                        f"— the pipeline would raise ConfigurationError at "
                        f"run time",
                    )
                )
            elif incumbent == _CONDITIONAL:
                findings.append(
                    _semantic_finding(
                        "REP-S04",
                        "warning",
                        source,
                        f"stage {position + 1} ({inner.name!r}) consumes an "
                        f"incumbent that is only conditionally produced "
                        f"upstream (e.g. 'dfs' applies only to P = 1 "
                        f"instances); the pipeline fails on instances "
                        f"where the producer is inapplicable",
                    )
                )
            continue  # a consumer does not change producer status

        status, detail = _producer_status(stage, processors)
        if status == _NONE and not is_race:
            # a *plain* definitely-inapplicable stage short-circuits the
            # whole pipeline (config_error_means_inapplicable): downstream
            # stages never run, so no runtime error — but the member can
            # never compete either
            findings.append(
                _semantic_finding(
                    "REP-S04",
                    "warning",
                    source,
                    f"stage {position + 1} ({inner.name!r}): {detail}; the "
                    f"pipeline always reports inapplicable and later "
                    f"stages never run",
                )
            )
            break
        incumbent = max(incumbent, status)
    return findings


def _check_race(
    race, processors: Optional[int], source: str, position: int
) -> List[Finding]:
    findings: List[Finding] = []

    # REP-S02: duplicate branches after canonicalization — RaceStage
    # stores sorted canonical branch tokens, so duplicates are adjacent
    tokens = race._tokens
    seen = set()
    for token in tokens:
        if token in seen:
            findings.append(
                _semantic_finding(
                    "REP-S02",
                    "error",
                    source,
                    f"stage {position + 1} ('race'): duplicate branch "
                    f"{token!r} after canonicalization — the copy can "
                    f"never win a tie and only burns a slot; a race needs "
                    f">= 2 *distinct* branches",
                )
            )
        seen.add(token)

    # recurse: budgets / nested races inside each branch chain (the REP-S04
    # incumbent analysis stays off here — branches inherit the race's own
    # incumbent, so a lone 'refine' branch is fine)
    for branch in race._branches:
        findings.extend(_check_branch(branch, processors, source, position))
    return findings


def _check_branch(branch, processors, source, position) -> List[Finding]:
    """Branch-level checks: budgets that cannot bind, nested races."""
    from repro.pipeline.composite import RaceStage

    findings: List[Finding] = []
    for stage in branch:
        inner, budget = _unwrap(stage)
        if budget is not None and inner.name in _NON_BINDING_BUDGET_STAGES:
            findings.append(
                _semantic_finding(
                    "REP-S03",
                    "warning",
                    source,
                    f"stage {position + 1} ('race'): branch stage "
                    f"{inner.name!r} carries a wall-clock budget with no "
                    f"cancellation point — the budget can never bind",
                )
            )
        if isinstance(inner, RaceStage):
            findings.extend(_check_race(inner, processors, source, position))
    return findings


# ----------------------------------------------------------------------
# serve policy / service config checking
# ----------------------------------------------------------------------
def check_policy(
    config=None,
    *,
    cheap: Optional[str] = None,
    steady: Optional[str] = None,
    rich: Optional[str] = None,
    processors: Optional[int] = None,
) -> List[Finding]:
    """Statically validate a serve policy (thresholds + tier specs).

    Accepts a :class:`~repro.serve.policy.PolicyConfig` (the shipped
    defaults when omitted) with optional per-tier overrides.  Tier specs
    are resolved through the real ``resolve_member`` (REP-S06) and then
    spec-checked like any pipeline (REP-S01..S05, labelled
    ``<policy.cheap>`` etc.).
    """
    from repro.pipeline.spec import resolve_member
    from repro.serve.policy import PolicyConfig

    if config is None:
        config = PolicyConfig()
    overrides = {"cheap": cheap, "steady": steady, "rich": rich}
    tiers = {
        "cheap": config.cheap_spec,
        "steady": config.steady_spec,
        "rich": config.rich_spec,
    }
    for tier, value in overrides.items():
        if value is not None:
            tiers[tier] = value

    findings: List[Finding] = []
    try:
        config.validate()
    except ConfigurationError as exc:
        findings.append(_semantic_finding("REP-S06", "error", "policy", str(exc)))
    for tier in ("cheap", "steady", "rich"):
        spec_text = tiers[tier]
        label = f"policy.{tier}"
        try:
            resolve_member(spec_text)
        except ConfigurationError as exc:
            findings.append(
                _semantic_finding("REP-S06", "error", label, str(exc))
            )
            continue
        findings.extend(
            check_spec(spec_text, processors=processors, source=label)
        )
    return findings


# ----------------------------------------------------------------------
# shard checking
# ----------------------------------------------------------------------
def check_shards(plan, shards: int, *, source: str = "plan") -> List[Finding]:
    """Dry-run the deterministic shard assignment of ``plan``.

    Reports the exact :class:`ConfigurationError` the coordinator would
    raise (a shard count below 1) as a REP-S07 error, before any worker
    starts.
    """
    from repro.exec.shard import shard_assignment

    try:
        shard_assignment(plan, shards)
    except ConfigurationError as exc:
        return [
            _semantic_finding(
                "REP-S07", "error", source, f"shards={shards}: {exc}"
            )
        ]
    return []


#: ``(id, severity, description)`` of every semantic check, for the CLI
#: rule table (semantic checks are not engine rules — they take structured
#: inputs, not files — but share the id space and reporters).
SEMANTIC_CHECKS: Tuple[Tuple[str, str, str], ...] = (
    ("REP-S01", "error", "pipeline spec does not parse/build"),
    ("REP-S02", "error", "race(...) branches not distinct after canonicalization"),
    ("REP-S03", "warning", "wall-clock budget on a stage that cannot bind it"),
    ("REP-S04", "error", "incumbent consumer with no upstream producer"),
    ("REP-S05", "warning", "sweep cardinality above the --max-sweep threshold"),
    ("REP-S06", "error", "serve policy invalid (thresholds / unresolvable tiers)"),
    ("REP-S07", "error", "plan cannot split into the requested shard count"),
)
