"""A byte pin of the ``sweep`` benchmark workload's answers.

The workload runs the nine two-stage members (BSPg, Cilk and ETF under
clairvoyant, LRU and FIFO eviction) plus ``bspg+clairvoyant|refine`` on the
ten paper-scale small DAGs, with memory weights redrawn from the seed.  This
test runs the same 100 jobs inline at seed 3 and pins the sha256 of their
``(instance, member, fingerprint, cost)`` rows, captured before the
converter, ETF and refine kernels were made incremental: any change to a
first stage, an eviction order or a refine proposal moves it.

A second pin holds the 100 plan keys, captured while each job was still
hashed on its own: the keys name every cache entry and JSONL record.
"""

import hashlib
import json
import zlib

from repro.dag.analysis import assign_random_memory_weights
from repro.exec import Session, plan_pipelines
from repro.experiments.datasets import small_dataset_specs
from repro.experiments.parallel import job_keys
from repro.experiments.runner import ExperimentConfig
from repro.refine import RefineConfig

MEMBERS = [
    f"{scheduler}+{policy}"
    for scheduler in ("bspg", "cilk", "etf")
    for policy in ("clairvoyant", "lru", "fifo")
] + ["bspg+clairvoyant|refine"]

#: sha256 of the JSON list of the 100 rows at seed 3
SWEEP_ROWS_SHA256 = "3eca69ecc5866b8ea719d8f600b29adc643a962ccb640ab7c0f4e1f3ef9ff0c5"
#: sha256 of the JSON list of the 100 plan keys at seed 3
SWEEP_KEYS_SHA256 = "da7c08c5b78fc15055b0990e44118b0327388832294b1b043bf2b5bd81f05a18"

CONFIG = ExperimentConfig(
    name="portfolio",
    num_processors=4,
    ilp_time_limit=5.0,
    ilp_backend="scipy",
    refine=RefineConfig(enabled=False),
)


def sweep_dags(seed: int):
    """The small dataset at paper scale, memory weights redrawn from ``seed``."""
    dags = []
    for spec in small_dataset_specs("paper"):
        dag = spec.build()
        weight_seed = zlib.crc32(f"{spec.name}:{seed}".encode("utf-8"))
        assign_random_memory_weights(dag, low=1, high=5, seed=weight_seed)
        dags.append(dag)
    return dags


def test_sweep_plan_keys_are_pinned():
    plan = plan_pipelines(MEMBERS, sweep_dags(3), CONFIG, prune_gap=0.0)
    keys = job_keys([node.job for node in plan])
    assert keys == [node.job.key() for node in plan]
    assert len(set(keys)) == 100
    digest = hashlib.sha256(json.dumps(keys).encode("utf-8")).hexdigest()
    assert digest == SWEEP_KEYS_SHA256


def test_sweep_rows_are_pinned():
    plan = plan_pipelines(MEMBERS, sweep_dags(3), CONFIG, prune_gap=0.0)
    rows = []
    for event in sorted(Session(workers=1).stream(plan), key=lambda e: e.index):
        result = event.result
        rows.append([
            event.instance,
            event.member,
            json.dumps(result.fingerprint(), sort_keys=True),
            float(result.extra_costs.get("member_cost", result.ilp_cost)),
        ])
    assert len(rows) == 100
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == SWEEP_ROWS_SHA256
