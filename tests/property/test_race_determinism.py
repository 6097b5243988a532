"""Property tests: ``race(...)`` is deterministic under any execution shape.

The race contract (the acceptance bar of the ``repro.exec`` redesign): the
winner, the reported costs and the full ``InstanceResult`` fingerprints are
identical

* across ``workers=1`` and ``workers=4`` sessions (process fan-out),
* across sequential and thread-fanned branch execution (slot scope),
* across *shuffled branch order* in the spec (branches canonicalize
  sorted; ties break by canonical order, not spelling order),

and the JSONL result logs of serial and parallel sessions match key for
key.  Branches here are deterministic stages (seeded refine variants and
node-limited ILP solves), so any fingerprint difference is an execution
core bug, never solver noise.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import random_layered_dag, spmv
from repro.exec import Session, plan_pipelines
from repro.pipeline import ExperimentConfig, canonicalize, run_member, slot_scope

CFG = ExperimentConfig(
    name="race-prop",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=10,
    step_cap=4,
)

#: Deterministic branch pool: seeded refinements and node-limited ILPs.
BRANCHES = (
    "refine(seed=1)",
    "refine(seed=2,strategy=anneal)",
    "refine(budget=200,seed=3)",
    "ilp@bnb",
    "ilp@scipy",
)


def _race_spec(branch_indices) -> str:
    branches = ",".join(BRANCHES[i] for i in branch_indices)
    return f"baseline|race({branches})"


@st.composite
def _race_cases(draw):
    count = draw(st.integers(min_value=2, max_value=3))
    indices = draw(
        st.lists(
            st.sampled_from(range(len(BRANCHES))),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    shuffle_seed = draw(st.integers(min_value=0, max_value=999))
    dag_seed = draw(st.integers(min_value=1, max_value=50))
    return indices, shuffle_seed, dag_seed


@settings(max_examples=12, deadline=None)
@given(_race_cases())
def test_race_fingerprints_invariant_to_branch_order_and_slots(case):
    indices, shuffle_seed, dag_seed = case
    dag = spmv(3, seed=dag_seed)
    assign_random_memory_weights(dag, seed=dag_seed)
    dag.name = f"spmv_{dag_seed}"

    spec = _race_spec(indices)
    shuffled = list(indices)
    random.Random(shuffle_seed).shuffle(shuffled)
    shuffled_spec = _race_spec(shuffled)
    # shuffling the branches does not even change the canonical spec ...
    assert canonicalize(spec) == canonicalize(shuffled_spec)

    # ... nor the outcome, sequentially or thread-fanned
    baseline = run_member(dag, CFG, spec)
    assert baseline.solver_status.startswith(("race[", "skipped:"))
    for candidate_spec in (spec, shuffled_spec):
        with slot_scope(4):
            fanned = run_member(dag, CFG, candidate_spec)
        assert fanned.fingerprint() == baseline.fingerprint()


def test_race_results_and_jsonl_identical_across_worker_counts(tmp_path):
    """workers=1 vs workers=4: same fingerprints, same JSONL keys."""
    from repro.exec import iter_jsonl_records

    dags = []
    for seed in (1, 2):
        dag = random_layered_dag(3, 3, edge_probability=0.5, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"layered_{seed}"
        dags.append(dag)
    specs = [
        "baseline|race(ilp@bnb,ilp@scipy)",
        "baseline|race(refine(seed=1),refine(seed=2,strategy=anneal))",
    ]
    runs = {}
    for workers in (1, 4):
        path = tmp_path / f"results_w{workers}.jsonl"
        session = Session(workers=workers, results_path=path)
        results = session.run(plan_pipelines(specs, dags, CFG))
        runs[workers] = (
            [r.fingerprint() for r in results],
            [record["key"] for record in iter_jsonl_records(path)],
        )
    assert runs[1] == runs[4]
    winners = [fp["solver_status"] for fp in runs[1][0]]
    assert all(status.startswith("race[") for status in winners)
