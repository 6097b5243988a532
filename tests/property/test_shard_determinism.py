"""Property tests: sharded execution is invariant in shard and worker count.

The sharding contract (the acceptance bar of the coordinator/worker mode):
for any plan of deterministic jobs,

* the results' fingerprints are identical across shard counts {1, 2, 3}
  and worker counts {1, 4} — with no cache in play, so the invariance is
  the execution core's, not the store's;
* the merged JSONL file is *byte-identical* to the single-process results
  file when the shards share the content-hash cache directory (the
  deployment layout: shards replay the recorded results, so even the
  wall-clock telemetry fields match byte for byte).

Jobs are seeded two-stage/refine pipelines and a refine race, so any
divergence is a sharding bug, never solver noise.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exec import Session, plan_pipelines, run_sharded
from repro.pipeline import ExperimentConfig

CFG = ExperimentConfig(
    name="shard-prop",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=10,
    step_cap=4,
)

#: Deterministic member pool: seeded heuristics, refinements and a race.
SPECS = (
    "bspg+clairvoyant",
    "cilk+lru",
    "bspg+clairvoyant|refine(seed=1)",
    "baseline|race(refine(seed=1),refine(seed=2,strategy=anneal))",
)


def _plan(dag_seeds, spec_indices):
    dags = []
    for seed in dag_seeds:
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    return plan_pipelines([SPECS[i] for i in spec_indices], dags, CFG)


def test_shard_worker_matrix_matches_single_process_run():
    """The acceptance matrix: workers {1,4} x shards {1,2,3} -> identical
    fingerprints and byte-identical merged JSONL (shared cache)."""
    plan = _plan((1, 2), (0, 3))
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        cache = td / "cache"
        single = td / "single.jsonl"
        reference = Session(
            workers=1, cache_dir=cache, results_path=single
        ).run(plan)
        ref_fps = [r.fingerprint() for r in reference]
        ref_bytes = single.read_bytes()
        for workers in (1, 4):
            for shards in (1, 2, 3):
                merged = td / f"merged_w{workers}_s{shards}.jsonl"
                results = run_sharded(
                    plan,
                    shards,
                    workers=workers,
                    cache_dir=cache,
                    results_path=merged,
                )
                assert [r.fingerprint() for r in results] == ref_fps, (
                    f"fingerprints diverged at workers={workers}, "
                    f"shards={shards}"
                )
                assert merged.read_bytes() == ref_bytes, (
                    f"merged JSONL diverged at workers={workers}, "
                    f"shards={shards}"
                )


@st.composite
def _shard_cases(draw):
    dag_seeds = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    spec_indices = draw(
        st.lists(
            st.sampled_from(range(len(SPECS))),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    shards = draw(st.integers(min_value=2, max_value=3))
    workers = draw(st.sampled_from((1, 4)))
    return tuple(dag_seeds), tuple(spec_indices), shards, workers


@settings(max_examples=6, deadline=None)
@given(_shard_cases())
def test_sharded_fingerprints_invariant_without_any_cache(case):
    """Fresh (uncached) sharded runs reproduce the single-process
    fingerprints for arbitrary small plans: the execution core alone
    guarantees the invariance, the store only extends it to bytes."""
    dag_seeds, spec_indices, shards, workers = case
    plan = _plan(dag_seeds, spec_indices)
    reference = [r.fingerprint() for r in Session(workers=1).run(plan)]
    sharded = run_sharded(plan, shards, workers=workers)
    assert [r.fingerprint() for r in sharded] == reference


@settings(max_examples=4, deadline=None)
@given(_shard_cases())
def test_merged_bytes_invariant_with_a_shared_cache(case):
    """With a shared cache directory (the deployment layout), the merged
    shard JSONL is byte-identical to the single-process results file."""
    dag_seeds, spec_indices, shards, workers = case
    plan = _plan(dag_seeds, spec_indices)
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        cache = td / "cache"
        single = td / "single.jsonl"
        Session(workers=1, cache_dir=cache, results_path=single).run(plan)
        merged = td / "merged.jsonl"
        run_sharded(
            plan, shards, workers=workers, cache_dir=cache, results_path=merged
        )
        assert merged.read_bytes() == single.read_bytes()
