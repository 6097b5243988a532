"""An ILP process loads scipy's HiGHS binding and nothing else of scipy.

``import repro`` reaches :mod:`repro.ilp` through the scheduler exports,
yet the heuristic pipelines and the serve loop never build an ILP: they
load no scipy module at all.  A process that does solve ILPs needs only
the HiGHS binding vendored with scipy (``scipy.optimize._highspy._core``).
:func:`repro.ilp.scipy_backend.highs_binding` loads it from scipy's
install without running ``scipy/optimize/__init__.py``, and the compiled
constraint matrix is a numpy :class:`~repro.ilp.model.CsrMatrix`, so a
branch-and-bound solve and a scipy-backend solve with a warm start (the
cutoff row) leave ``scipy.optimize`` and ``scipy.sparse`` unimported.
``CsrMatrix.tocsr()`` loads ``scipy.sparse`` for a caller that asks, and a
later ``import scipy.optimize`` adopts the loaded binding.

The first load holds a lock, so threads making the first call at once
load the extension once; when the direct load fails, the package import is
the fallback and gives the same solve results.  Every check runs in a
fresh interpreter, because the test process has long imported scipy; the
heuristic footprint and the ILP footprint run in separate ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from repro.ilp import IlpModel, SolverOptions, solve

PRELUDE = """
import sys

import numpy as np

import repro, repro.exec, repro.portfolio, repro.serve.bench
from repro.exec import Session, plan_pipelines
from repro.experiments.datasets import tiny_dataset
from repro.pipeline import ExperimentConfig
from repro.serve.bench import run_serve_bench

def loaded(*names):
    return [name for name in names if name in sys.modules]

def scipy_modules():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""

HEURISTIC_FOOTPRINT = PRELUDE + """
summary = run_serve_bench(seed=3, requests=200, limit=2)
assert summary["slo"]["requests"] == 200, summary
config = ExperimentConfig(name="lazy-scipy")
(result,) = Session().run(
    plan_pipelines(["bspg+clairvoyant"], tiny_dataset(limit=1), config)
)
assert result.ilp_cost > 0, result
assert scipy_modules() == [], f"loaded before any ILP: {scipy_modules()}"
print("ok")
"""

ILP_FOOTPRINT = PRELUDE + """
assert scipy_modules() == [], f"loaded by the imports: {scipy_modules()}"

from repro.ilp import IlpModel, SolutionStatus, SolverOptions, solve
from repro.ilp.scipy_backend import BINDING, highs_binding

model = IlpModel("lazy")
cols = list(model.add_variables("x", 2, upper=1.0, is_integer=True))
model.add_rows([cols], [[1.0, 1.0]], upper=1.0)
model.minimize(cols, [-1.0, -2.0])
compiled = model.compile()
# the warm solution is vetted by is_feasible; the objective adds the cutoff row
warm = SolverOptions(warm_start_solution=[1.0, 0.0], warm_start_objective=-1.0)
for backend in ("bnb", "scipy"):
    solution = solve(model, warm, backend=backend)
    assert solution.status is SolutionStatus.OPTIMAL, (backend, solution)
    assert solution.objective == -2.0, (backend, solution)
ilp = ExperimentConfig(name="lazy-ilp", ilp_backend="bnb", ilp_node_limit=2)
(result,) = Session().run(plan_pipelines(["baseline|ilp"], tiny_dataset(limit=1), ilp))
assert result.ilp_cost > 0, result
assert loaded("scipy.sparse", "scipy.optimize") == [], loaded("scipy.sparse", "scipy.optimize")
assert BINDING in sys.modules

matrix = compiled.A.tocsr()
assert loaded("scipy.sparse", "scipy.optimize") == ["scipy.sparse"]
for name in ("indptr", "indices", "data"):
    assert np.array_equal(getattr(matrix, name), getattr(compiled.A, name)), name
assert matrix.shape == compiled.A.shape
assert (matrix.toarray() == compiled.A.toarray()).all()

binding = highs_binding()
from scipy import optimize
from scipy.optimize._highspy import _core

assert _core is binding and sys.modules[BINDING] is binding
assert binding.__name__ == BINDING
reference = optimize.linprog(c=[-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                             bounds=[(0, 1), (0, 1)], method="highs")
assert reference.status == 0 and reference.fun == -2.0, reference
print("ok")
"""

CONCURRENT_FIRST_LOAD = """
import importlib.util
import sys
import threading
import time

from repro.ilp import scipy_backend

THREADS = 4
loads = []
module_from_spec = importlib.util.module_from_spec

def counted(spec):
    loads.append(spec.name)
    time.sleep(0.2)  # hold the first load open while the other threads arrive
    return module_from_spec(spec)

importlib.util.module_from_spec = counted
barrier = threading.Barrier(THREADS)
bindings = []

def first_call():
    barrier.wait()
    bindings.append(scipy_backend.highs_binding())

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_call) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a first call did not return"
finally:
    sys.setswitchinterval(interval)
assert loads == [scipy_backend.BINDING], loads
assert len(bindings) == THREADS, bindings
assert all(binding is sys.modules[scipy_backend.BINDING] for binding in bindings)
assert "scipy.optimize" not in sys.modules
print("ok")
"""

FALLBACK = """
import json
import sys

from repro.ilp import IlpModel, SolverOptions, scipy_backend, solve

class NoSpec:
    @staticmethod
    def find_spec(name, path=None):
        return None

scipy_backend.PathFinder = NoSpec
binding = scipy_backend.highs_binding()
assert "scipy.optimize" in sys.modules, "the package import did not run"
from scipy.optimize._highspy import _core
assert binding is _core

sys.path.insert(0, sys.argv[1])
from test_lazy_scipy import solve_digest

print(json.dumps(solve_digest()))
"""


def run_script(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def solve_digest() -> list:
    """Status, objective, vertex bytes and node count of a small MILP under
    both backends, with and without a warm start."""
    model = IlpModel("digest")
    x = list(model.add_variables("x", 4, upper=3.0, is_integer=True))
    model.add_rows([x, x], [[2.0, 3.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0]],
                   lower=[-1.0, 2.0], upper=[5.0, 6.0])
    model.maximize(x, [3.0, 0.0, 1.0, 2.0])
    digest = []
    for backend in ("bnb", "scipy"):
        for options in (SolverOptions(), SolverOptions(warm_start_objective=4.0)):
            solution = solve(model, options, backend=backend)
            values = None if solution.values is None else np.asarray(solution.values).tobytes().hex()
            digest.append([backend, solution.status.name, solution.objective, values,
                           solution.node_count])
    return digest


def test_scipy_stays_unloaded_until_an_ilp_is_compiled():
    assert run_script(HEURISTIC_FOOTPRINT).endswith("ok")


def test_an_ilp_process_loads_only_the_highs_binding():
    assert run_script(ILP_FOOTPRINT).endswith("ok")


def test_concurrent_first_calls_load_the_binding_once():
    assert run_script(CONCURRENT_FIRST_LOAD).endswith("ok")


def test_a_failed_direct_load_falls_back_to_the_package_import():
    here = os.path.dirname(os.path.abspath(__file__))
    fallback = json.loads(run_script(FALLBACK, here).splitlines()[-1])
    assert fallback == json.loads(json.dumps(solve_digest()))
