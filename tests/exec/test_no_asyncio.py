"""The execution core runs on ``concurrent.futures`` alone.

``Session.run`` and ``Session.stream`` drive plans inline or on a process
pool without an event loop, so a process that only runs plans never
imports :mod:`asyncio`.  The check runs in a fresh interpreter, because
the test process may have imported it already.
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = """
import sys

import repro.exec
from repro.exec import Session, plan_pipelines
from repro.experiments.datasets import tiny_dataset
from repro.pipeline import ExperimentConfig

config = ExperimentConfig(name="no-asyncio")
dags = tiny_dataset(limit=1)
(result,) = Session(workers=1).run(
    plan_pipelines(["bspg+clairvoyant"], dags, config)
)
assert result.ilp_cost > 0, result
events = list(
    Session(workers=2).stream(
        plan_pipelines(["bspg+clairvoyant", "cilk+lru"], dags, config)
    )
)
assert sorted(event.index for event in events) == [0, 1], events
assert {event.source for event in events} == {"executed"}, events
assert "asyncio" not in sys.modules, "the execution core imported asyncio"
print("ok")
"""


def test_plans_run_without_importing_asyncio():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok"), proc.stdout
