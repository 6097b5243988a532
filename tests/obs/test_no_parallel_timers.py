"""Regions are timed by ``repro.obs``, not by timers of their own.

Jobs, pipeline stages, race branches, stage budgets and solver dispatch
read their wall time and solve counts from a :class:`repro.obs.Meter`.
Outside ``repro.obs`` only the clocks that decide something may read the
time: cancellation deadlines, the solvers' own result clocks, refine's
``max_time`` and the session's ``job_timeout``.  A module that imports
:mod:`time` anywhere else is a new parallel timer.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

ALLOWED = {
    "ilp/cancellation.py",  # cancellation deadlines
    "ilp/branch_and_bound.py",  # IlpSolution.solve_time and its deadline
    "ilp/scipy_backend.py",  # IlpSolution.solve_time
    "refine/engine.py",  # Refiner's max_time clock
    "exec/session.py",  # the session's job_timeout clock
}


def _imports_time(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "time" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "time":
                return True
    return False


def test_only_obs_and_decision_clocks_import_time():
    timers, clocks = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        if name.startswith("obs/"):
            continue
        if _imports_time(path.read_text(encoding="utf-8")):
            (clocks if name in ALLOWED else timers).append(name)
    assert timers == [], (
        f"modules outside repro.obs import time: {timers}; read wall time "
        f"and solve counts from repro.obs.Meter instead"
    )
    # the allow-list names only modules that still keep a clock
    assert sorted(clocks) == sorted(ALLOWED)
