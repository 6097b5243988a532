"""scipy is imported where an ILP is compiled or solved, not at import time.

``import repro`` reaches :mod:`repro.ilp` through the scheduler exports,
yet the heuristic pipelines and the serve loop never build an ILP.  The
modules that use scipy (``ilp.model``, ``ilp.scipy_backend``,
``ilp.branch_and_bound``) import it inside the functions that need it, so
a process that only schedules heuristically never pays for
``scipy.sparse`` or ``scipy.optimize``.  Both solver backends need the
HiGHS binding vendored with scipy (``scipy.optimize._highspy``); the
script checks that it imports.  The check runs in a fresh interpreter,
because the test process has long imported scipy.
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = """
import sys

import repro, repro.exec, repro.portfolio, repro.serve.bench
from repro.exec import Session, plan_pipelines
from repro.experiments.datasets import tiny_dataset
from repro.experiments.runner import ExperimentConfig
from repro.serve.bench import run_serve_bench

def loaded():
    return [name for name in ("scipy.sparse", "scipy.optimize") if name in sys.modules]

summary = run_serve_bench(seed=3, requests=200, limit=2)
assert summary["slo"]["requests"] == 200, summary
config = ExperimentConfig(name="lazy-scipy")
(result,) = Session().run(
    plan_pipelines(["bspg+clairvoyant"], tiny_dataset(limit=1), config)
)
assert result.ilp_cost > 0, result
assert loaded() == [], f"loaded before any ILP: {loaded()}"

from repro.ilp import IlpModel, SolutionStatus, solve
from repro.ilp.scipy_backend import highs_binding

model = IlpModel("lazy")
cols = list(model.add_variables("x", 2, upper=1.0, is_integer=True))
model.add_rows([cols], [[1.0, 1.0]], upper=1.0)
model.minimize(cols, [-1.0, -2.0])
model.compile()
assert "scipy.sparse" in sys.modules, "compile did not load scipy.sparse"
solution = solve(model, backend="scipy")
assert solution.status is SolutionStatus.OPTIMAL and solution.objective == -2.0, solution
assert loaded() == ["scipy.sparse", "scipy.optimize"], loaded()
assert highs_binding().__name__ == "scipy.optimize._highspy._core"
print("ok")
"""


def test_scipy_stays_unloaded_until_an_ilp_is_compiled():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok"), proc.stdout
