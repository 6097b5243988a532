"""The package layering: every import in ``src/repro`` points down or sideways.

The packages form five levels::

    dag model ilp core bsp cache refine theory obs  ->  pipeline  ->  exec
        ->  experiments portfolio serve learn  ->  cli (and lint)

A module may import only from its own level or from levels before it.
Top-level, deferred (inside a function) and ``TYPE_CHECKING`` imports all
count: a deferred import that points up still ties the lower package to
the upper one, and only hides the cycle from whichever package happens to
be imported first.  ``repro.lint`` is exempt as an importer (its semantic
checks load the real registries on demand); as an import target it sits
with the CLI.

Exactly one upward import is allowed: ``Session._events`` looks up
``repro.experiments.parallel.execute_job`` on every run, because the
repository benchmark wraps that name and its wrapper is how forked pool
workers hand their spans back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LEVELS = {
    **dict.fromkeys(
        ["dag", "model", "ilp", "core", "bsp", "cache", "refine", "theory",
         "obs", "exceptions"],
        0,
    ),
    "pipeline": 1,
    "exec": 2,
    **dict.fromkeys(["experiments", "portfolio", "serve", "learn"], 3),
    "cli": 4,
    "lint": 4,
}

#: (importing module, enclosing function, imported module, name)
ALLOWED = {
    ("repro.exec.session", "Session._events", "repro.experiments.parallel",
     "execute_job"),
}


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def _level(module: str):
    """The level of a ``repro...`` module name (``repro`` itself is 0)."""
    parts = module.split(".")
    if len(parts) == 1:
        return 0
    package = parts[1]
    if package not in LEVELS:
        pytest.fail(f"package repro.{package} has no level; add it to LEVELS")
    return LEVELS[package]


def _imports(tree: ast.AST, module: str, is_package: bool):
    """``(imported module, name, enclosing function, line)`` of every
    ``repro`` import in ``tree``, nested ones included."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    found.append((alias.name, None, ".".join(scope), child.lineno))
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:
                    base = module.split(".")
                    base = base[: len(base) - child.level + (1 if is_package else 0)]
                    target = ".".join(base + ([target] if target else []))
                for alias in child.names:
                    # `from repro import obs` imports the subpackage
                    name = target if target != "repro" else f"repro.{alias.name}"
                    found.append((name, alias.name, ".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return [entry for entry in found if entry[0].split(".")[0] == "repro"]


def _upward_imports():
    upward = []
    for module, path in _modules():
        if module.split(".")[1:2] == ["lint"]:
            continue
        own = _level(module)
        tree = ast.parse(path.read_text(), filename=str(path))
        for target, name, scope, line in _imports(
            tree, module, path.name == "__init__.py"
        ):
            if _level(target) > own:
                upward.append((module, scope, target, name, line))
    return upward


def test_no_import_points_up_except_the_job_runner_lookup():
    violations = [
        f"{module}:{line} ({scope or 'module level'}) imports {target}"
        for module, scope, target, name, line in _upward_imports()
        if (module, scope, target, name) not in ALLOWED
    ]
    assert not violations, "imports that point up a level:\n" + "\n".join(violations)


def test_the_allowed_exception_is_still_in_use():
    used = {(m, s, t, n) for m, s, t, n, _ in _upward_imports()}
    assert used == ALLOWED


def test_the_scan_sees_deferred_and_typing_only_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.exec.plan import ExperimentJob\n"
        "def f():\n"
        "    from repro import serve\n"
    )
    found = _imports(ast.parse(source), "repro.pipeline.stage", False)
    assert [(t, s) for t, _, s, _ in found] == [
        ("repro.exec.plan", ""),
        ("repro.serve", "f"),
    ]


@pytest.mark.parametrize(
    "module",
    [
        "repro.pipeline",
        "repro.exec",
        "repro.experiments",
        "repro.portfolio",
        "repro.serve",
        "repro.learn",
        "repro.cli",
    ],
)
def test_each_package_imports_first_in_a_fresh_interpreter(module):
    # pytest imports modules in one order; a cycle that breaks only when
    # one given package is imported first shows only in a fresh process
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
