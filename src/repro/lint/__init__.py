"""Static analysis for the repro codebase and its configurations.

Two halves share one engine, one finding shape and one set of reporters
and exit codes:

* **``repro lint`` (pack A)** — AST rules over source files catching the
  determinism and concurrency hazard classes that have actually bitten
  this repo: salted ``hash()`` material, wall-clock reads outside
  ``repro.obs``, global-RNG calls, unordered set iteration, fixed-name
  temp files next to ``os.replace``, blocking calls inside ``async def``
  and over-broad exception handlers.  See :mod:`repro.lint.rules`.
* **``repro check`` (pack B)** — semantic validation of pipeline specs,
  shard counts and serve policies *without executing anything*, through
  the real parser/registries, so a malformed config fails in milliseconds
  instead of mid-run.  See :mod:`repro.lint.semantic`.

Suppression comments (``# repro: lint-ignore[REP-D01]``) and the
checked-in JSON baseline (:mod:`repro.lint.baseline`) keep the gate
signal-only.
"""

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    baseline_from_findings,
    filter_baselined,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import (
    Finding,
    FileContext,
    Rule,
    available_rules,
    get_rule,
    lint_file,
    lint_paths,
    register_rule,
    rule_descriptions,
    scan_suppressions,
)
from repro.lint.report import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    exit_code,
    gating_findings,
    render_json,
    render_text,
    report_dict,
)
from repro.lint.semantic import (
    SEMANTIC_CHECKS,
    check_policy,
    check_shards,
    check_spec,
)

# importing the rule pack registers every pack-A rule
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "DEFAULT_BASELINE",
    "EXIT_FINDINGS",
    "EXIT_OK",
    "EXIT_USAGE",
    "Finding",
    "FileContext",
    "Rule",
    "SEMANTIC_CHECKS",
    "available_rules",
    "baseline_from_findings",
    "check_policy",
    "check_shards",
    "check_spec",
    "exit_code",
    "filter_baselined",
    "gating_findings",
    "get_rule",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "report_dict",
    "rule_descriptions",
    "scan_suppressions",
    "write_baseline",
]
