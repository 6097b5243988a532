"""The pipeline spec mini-language and the legacy member-name aliases.

Grammar (whitespace-insensitive)::

    pipeline := stage ("|" stage)*
    stage    := name ["@" backend] [ "(" item ("," item)* ")" ]
              | scheduler "+" policy           # two-stage shorthand
    item     := key "=" value                  # an option ...
              | branch                         # ... or (composites only) a
                                               #     positional sub-spec
    branch   := stage ("|" stage)*             # e.g. race(a, b|c)

Examples::

    bspg+clairvoyant                    one two-stage heuristic
    bspg+clairvoyant|refine|ilp         heuristic -> local search -> exact ILP
    cilk+lru | refine(budget=500) | ilp(warm=objective)
    baseline|race(ilp@bnb, ilp@scipy)   backend race from one incumbent
    baseline|race(refine(seed=1,strategy=anneal), refine(seed=2,strategy=anneal))
    dac(max_part_size=8, budget=5s)     wall-clock stage budget (note the 's')

Three orthogonal spec features thread through every stage token:

* ``name@backend`` pins the ILP solver backend of one stage (sugar for the
  ``backend=`` option; canonicalized back to the ``@`` form);
* ``budget=<seconds>s`` — the ``s`` suffix distinguishes a *wall-clock*
  stage budget (enforced through the solver cancellation hooks; part of
  the canonical spec and hence of the job hash) from deterministic
  counter budgets like ``refine(budget=500)``;
* ``option={a,b,c}`` is **sweep syntax**: :func:`expand_spec` expands the
  cartesian product into one canonical spec per combination (e.g.
  ``dac(max_part_size={2,4,8})`` -> three member specs).  Sweeps are an
  expansion-time feature — :func:`parse` rejects a lone ``{``.

Parsing produces a :class:`PipelineSpec`; :func:`canonicalize` renders it
back into the canonical string (options sorted, defaults omitted, race
branches sorted, ``baseline`` auto-prepended when the first stage needs an
incumbent), and ``parse(canonicalize(parse(s)))`` is a fixed point —
property-tested in ``tests/property``.

**Backward compatibility.**  Every legacy portfolio member name
(``"bspg+clairvoyant"``, ``"ilp"``, ``"dac"``, ``"<member>+refine"`` …) is a
valid spec: :data:`LEGACY_MEMBER_SPECS` pins each one to the pipeline that
reproduces its historical behaviour *exactly* — in particular the legacy
``ilp``-backed members canonicalize with ``warm=objective`` (the historical
cost-only warm start), while newly written specs default to the full
warm-start-solution encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.pipeline.registry import get_stage_factory, make_stage
from repro.pipeline.stage import Stage
from repro.pipeline.stages import TWO_STAGE_POLICIES, TWO_STAGE_SCHEDULERS

#: Suffix naming the refined variant of a legacy member name.
REFINE_SUFFIX = "+refine"

#: Spelling of a wall-clock stage budget value: seconds with an ``s`` suffix.
WALL_BUDGET_RE = re.compile(r"^([0-9]+(?:\.[0-9]+)?)s$")

_OPENERS = {"(": ")", "{": "}"}
_CLOSERS = {")": "(", "}": "{"}


# ----------------------------------------------------------------------
# nesting-aware text utilities (shared with repro.pipeline.composite)
# ----------------------------------------------------------------------
def split_top_level(text: str, sep: str) -> List[str]:
    """Split ``text`` on ``sep`` at bracket depth zero (``()`` and ``{}``)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth -= 1
            if depth < 0:
                raise ConfigurationError(
                    f"unbalanced {ch!r} in pipeline spec fragment {text!r}"
                )
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ConfigurationError(
            f"unbalanced brackets in pipeline spec fragment {text!r}"
        )
    parts.append("".join(current))
    return parts


def has_top_level(text: str, char: str) -> bool:
    """Whether ``char`` occurs in ``text`` at bracket depth zero."""
    depth = 0
    for ch in text:
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth -= 1
        elif ch == char and depth == 0:
            return True
    return False


def wall_budget_seconds(value: str) -> Optional[float]:
    """Seconds of a wall-clock budget value (``"2.5s"``), else ``None``."""
    match = WALL_BUDGET_RE.match(str(value).strip().lower())
    if match is None:
        return None
    seconds = float(match.group(1))
    if seconds < 1e-6:
        raise ConfigurationError(
            f"wall-clock stage budget must be at least 1 microsecond, "
            f"got {value!r}"
        )
    return seconds


def format_budget_seconds(seconds: float) -> str:
    """Canonical spelling of a wall-clock budget (``2.5 -> "2.5s"``).

    Fixed-point with microsecond resolution, never scientific notation —
    ``"%g"`` would render a generous ``1000000``-second budget as
    ``"1e+06s"``, which the grammar cannot parse, and would silently round
    budgets beyond six significant digits (diverging the enforced budget
    from the hashed one).
    """
    text = f"{float(seconds):.6f}".rstrip("0").rstrip(".")
    return f"{text}s"


@dataclass(frozen=True)
class StageSpec:
    """One parsed stage token: a registered stage name, its options and —
    for composite stages like ``race`` — positional sub-spec arguments."""

    name: str
    options: Tuple[Tuple[str, str], ...] = ()
    args: Tuple[str, ...] = ()

    def build(self) -> Stage:
        """Build the stage, applying any wall-clock ``budget=<s>s`` wrapper."""
        wall: Optional[float] = None
        plain: List[Tuple[str, str]] = []
        for key, value in self.options:
            seconds = wall_budget_seconds(value) if key == "budget" else None
            if seconds is not None:
                wall = seconds if wall is None else min(wall, seconds)
            else:
                plain.append((key, value))
        stage = make_stage(self.name, dict(plain), self.args)
        if wall is not None:
            from repro.pipeline.composite import BudgetedStage

            stage = BudgetedStage(stage, wall)
        return stage

    def token(self) -> str:
        """Canonical token (delegated to the stage, which knows defaults)."""
        return self.build().spec_token()


@dataclass(frozen=True)
class PipelineSpec:
    """A parsed pipeline: an ordered tuple of stage specs."""

    stages: Tuple[StageSpec, ...]

    def canonical(self) -> str:
        return "|".join(spec.token() for spec in self.stages)

    def build_stages(self) -> List[Stage]:
        return [spec.build() for spec in self.stages]


# ----------------------------------------------------------------------
# legacy member names
# ----------------------------------------------------------------------
def _legacy_member_stages(name: str) -> Optional[List[StageSpec]]:
    """Stage sequence of a legacy portfolio member name (None: not one)."""
    name = name.strip().lower()
    refined = name.endswith(REFINE_SUFFIX)
    base = name[: -len(REFINE_SUFFIX)] if refined else name
    objective = (("warm", "objective"),)
    if base == "ilp":
        if refined:
            # the historical "ilp+refine": refine the baseline, seed the
            # holistic ILP with the refined incumbent, refine the result
            return [
                StageSpec("baseline"),
                StageSpec("refine"),
                StageSpec("ilp", objective),
                StageSpec("refine"),
            ]
        return [StageSpec("baseline"), StageSpec("ilp", objective)]
    if base in ("dac", "divide-and-conquer", "divide_and_conquer"):
        stages = [StageSpec("dac")]
        return stages + [StageSpec("refine")] if refined else stages
    scheduler, sep, policy = base.partition("+")
    if sep and scheduler in TWO_STAGE_SCHEDULERS and policy in TWO_STAGE_POLICIES:
        stages = [StageSpec(scheduler, (("policy", policy),))]
        return stages + [StageSpec("refine")] if refined else stages
    return None


def legacy_member_names() -> List[str]:
    """Every legacy member name (base members first, then refined variants)."""
    members = [
        f"{scheduler}+{policy}"
        for scheduler in TWO_STAGE_SCHEDULERS
        for policy in TWO_STAGE_POLICIES
    ]
    members += ["ilp", "dac"]
    return members + [member + REFINE_SUFFIX for member in members]


#: Legacy member name -> canonical pipeline spec string.
LEGACY_MEMBER_SPECS: Dict[str, str] = {}


def _build_legacy_table() -> None:
    for member in legacy_member_names():
        stages = _legacy_member_stages(member)
        assert stages is not None
        LEGACY_MEMBER_SPECS[member] = PipelineSpec(tuple(stages)).canonical()


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def _parse_stage_token(token: str, spec_text: str, validate: bool = True) -> StageSpec:
    token = token.strip()
    if not token:
        raise ConfigurationError(
            f"empty stage in pipeline spec {spec_text!r}; write 'a|b|c' with "
            f"one registered stage per segment"
        )
    options: List[Tuple[str, str]] = []
    args: List[str] = []
    name = token
    if "(" in token:
        name, _, rest = token.partition("(")
        if not rest.endswith(")"):
            raise ConfigurationError(
                f"malformed stage options in {token!r} (expected "
                f"'name(key=value,...)')"
            )
        body = rest[:-1].strip()
        if body:
            for item in split_top_level(body, ","):
                item = item.strip()
                if not item:
                    raise ConfigurationError(
                        f"empty item in stage options of {token!r}"
                    )
                if not has_top_level(item, "="):
                    # a positional argument: a sub-spec of a composite stage
                    args.append(item.lower())
                    continue
                key, _, value = item.partition("=")
                key, value = key.strip().lower(), value.strip().lower()
                if not key or not value:
                    raise ConfigurationError(
                        f"malformed stage option {item!r} in {token!r} "
                        f"(expected 'key=value')"
                    )
                if "{" in value:
                    raise ConfigurationError(
                        f"sweep value {value!r} in {token!r} must be expanded "
                        f"first; use repro.pipeline.expand_spec (the CLI "
                        f"--pipeline flags expand sweeps automatically)"
                    )
                options.append((key, value))
    name = name.strip().lower()
    if "@" in name:
        # 'ilp@scipy' pins the stage's solver backend (sugar for backend=)
        name, _, pinned = name.partition("@")
        name, pinned = name.strip(), pinned.strip()
        if not pinned:
            raise ConfigurationError(
                f"stage {token!r}: empty backend after '@' (write e.g. "
                f"'ilp@scipy')"
            )
        if any(key == "backend" for key, _ in options):
            raise ConfigurationError(
                f"stage {token!r} names a backend twice ('@' and option)"
            )
        options.append(("backend", pinned))
    if "+" in name:
        scheduler, _, policy = name.partition("+")
        if any(key == "policy" for key, _ in options):
            raise ConfigurationError(
                f"stage {token!r} names a policy twice (shorthand and option)"
            )
        options.append(("policy", policy.strip()))
        name = scheduler.strip()
    # resolve aliases to the canonical name (and fail early on unknowns)
    factory = get_stage_factory(name)
    spec = StageSpec(factory.name, tuple(sorted(options)), tuple(args))
    if validate:
        # validate the options/branches eagerly, at parse time; callers
        # that build the stage themselves right away (race branches) pass
        # validate=False to avoid constructing every stage twice
        spec.build()
    return spec


def parse(text: str) -> PipelineSpec:
    """Parse a pipeline spec (or a legacy member name) into a PipelineSpec.

    Raises :class:`~repro.exceptions.ConfigurationError` for unknown stages,
    malformed options, or a stage needing an incumbent with nothing before
    it (in which case the ``baseline`` stage is auto-prepended instead of
    failing, matching the documented grammar).
    """
    if not str(text).strip():
        raise ConfigurationError("empty pipeline spec")
    text = str(text).strip()
    if "|" not in text:
        legacy = _legacy_member_stages(text)
        if legacy is not None:
            return PipelineSpec(tuple(legacy))
    stages = [
        _parse_stage_token(token, text) for token in split_top_level(text, "|")
    ]
    # auto-prepend the baseline when the first stage consumes an incumbent
    if stages and stages[0].build().requires_incumbent:
        stages.insert(0, StageSpec("baseline"))
    return PipelineSpec(tuple(stages))


def canonicalize(text: str) -> str:
    """The canonical spelling of a pipeline spec or legacy member name."""
    return parse(text).canonical()


def is_pipeline_spec(text: str) -> bool:
    """Whether ``text`` parses as a pipeline spec (or legacy member name)."""
    try:
        parse(text)
        return True
    except ConfigurationError:
        return False


# ----------------------------------------------------------------------
# sweep expansion
# ----------------------------------------------------------------------
def expand_spec(text: str) -> List[str]:
    """Expand sweep syntax into canonical specs (one per combination).

    ``option={a,b,c}`` multiplies the spec once per listed value;
    several sweeps in one spec expand to their cartesian product::

        >>> expand_spec("dac(max_part_size={2,4,8})")
        ['dac(max_part_size=2)', 'dac(max_part_size=4)', 'dac(max_part_size=8)']

    A sweep-free spec returns its canonical form as a one-element list.
    Duplicate expansions (spellings canonicalizing identically) are
    dropped, preserving first-occurrence order.  Malformed sweeps
    (unbalanced or empty braces) raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    text = str(text).strip()
    open_at = text.find("{")
    if open_at < 0:
        return [canonicalize(text)]
    close_at = text.find("}", open_at)
    if close_at < 0:
        raise ConfigurationError(f"unbalanced '{{' in sweep spec {text!r}")
    values = [v.strip() for v in text[open_at + 1 : close_at].split(",")]
    values = [v for v in values if v]
    if not values:
        raise ConfigurationError(
            f"empty sweep '{{}}' in spec {text!r}; write e.g. "
            f"'dac(max_part_size={{2,4,8}})'"
        )
    expanded: List[str] = []
    seen = set()
    for value in values:
        for spec in expand_spec(text[:open_at] + value + text[close_at + 1 :]):
            if spec not in seen:
                seen.add(spec)
                expanded.append(spec)
    return expanded


def with_default_budget(text: str, seconds: float) -> str:
    """The canonical spec with a wall-clock budget on every unbudgeted stage.

    Backs the CLI's ``--budget`` flag: each stage without an explicit
    ``budget=<s>s`` option gains one (stages that already carry a wall
    budget keep theirs — per-stage spec overrides win).  Returns the
    canonical spelling, so the budget is part of the job hash.
    """
    seconds = float(seconds)
    if seconds <= 0:
        raise ConfigurationError("--budget must be positive (seconds)")
    budget = ("budget", format_budget_seconds(seconds))
    stages: List[StageSpec] = []
    for stage in parse(text).stages:
        budgeted = any(
            key == "budget" and wall_budget_seconds(value) is not None
            for key, value in stage.options
        )
        if budgeted:
            stages.append(stage)
        else:
            stages.append(
                StageSpec(
                    stage.name, tuple(sorted(stage.options + (budget,))), stage.args
                )
            )
    return PipelineSpec(tuple(stages)).canonical()


_build_legacy_table()
