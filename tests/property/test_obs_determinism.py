"""Property tests: observability never changes results.

The zero-interference contract of :mod:`repro.obs` (the acceptance bar of
the tracing layer): for any plan of deterministic jobs, a traced run —
spans, metrics, spill files and all — produces

* ``InstanceResult`` fingerprints identical to the untraced run, across
  worker counts {1, 4} and shard counts {1, 2};
* a JSONL results file *byte-identical* to the untraced one when both
  replay a shared content-hash cache (the CI obs-smoke layout: the traced
  run populates the cache, the untraced run replays it).

Jobs are seeded two-stage/refine pipelines and a refine race, so any
divergence is an instrumentation bug, never solver noise.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exec import Session, plan_pipelines, run_sharded
from repro.pipeline import ExperimentConfig

CFG = ExperimentConfig(
    name="obs-prop",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=10,
    step_cap=4,
)

#: Deterministic member pool: seeded heuristics, a refinement and a race.
SPECS = (
    "bspg+clairvoyant",
    "cilk+lru",
    "bspg+clairvoyant|refine(seed=1)",
    "baseline|race(refine(seed=1),refine(seed=2,strategy=anneal))",
)


@pytest.fixture(autouse=True)
def clean_observability():
    obs.configure_tracing(False, spill_dir=None)
    obs.get_tracer().reset()
    obs.metrics().reset()
    yield
    obs.configure_tracing(False, spill_dir=None)
    obs.get_tracer().reset()
    obs.metrics().reset()


def _plan(dag_seeds, spec_indices):
    dags = []
    for seed in dag_seeds:
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    return plan_pipelines([SPECS[i] for i in spec_indices], dags, CFG)


@settings(max_examples=4, deadline=None)
@given(
    dag_seeds=st.lists(
        st.integers(min_value=1, max_value=50), min_size=1, max_size=2,
        unique=True,
    ),
    spec_indices=st.lists(
        st.integers(min_value=0, max_value=len(SPECS) - 1),
        min_size=1, max_size=2, unique=True,
    ),
    workers=st.sampled_from([1, 4]),
)
def test_traced_run_fingerprints_match_untraced(
    dag_seeds, spec_indices, workers
):
    """No cache in play: the invariance is the instrumentation's."""
    plan = _plan(dag_seeds, spec_indices)
    untraced = Session(workers=workers).run(plan)
    with tempfile.TemporaryDirectory() as td:
        with obs.trace_scope(spill_dir=str(Path(td) / "spill")):
            traced = Session(workers=workers).run(plan)
    assert [r.fingerprint() for r in traced] == [
        r.fingerprint() for r in untraced
    ]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("shards", [1, 2])
def test_traced_jsonl_byte_identical_against_shared_cache(workers, shards):
    """The CI obs-smoke layout: traced first (fresh, populates the cache),
    untraced second (replays) — byte-identical JSONL either way round the
    matrix of worker and shard counts."""
    plan = _plan((1, 2), (0, 3))
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        cache = td / "cache"
        traced_path = td / "traced.jsonl"
        untraced_path = td / "untraced.jsonl"
        with obs.trace_scope(spill_dir=str(td / "spill")):
            traced = run_sharded(
                plan, shards, workers=workers, cache_dir=cache,
                results_path=traced_path,
            )
        untraced = run_sharded(
            plan, shards, workers=workers, cache_dir=cache,
            results_path=untraced_path,
        )
        assert [r.fingerprint() for r in traced] == [
            r.fingerprint() for r in untraced
        ]
        assert traced_path.read_bytes() == untraced_path.read_bytes()
        # the trace actually observed the traced run
        spans = obs.read_spill_spans(str(td / "spill"))
        assert any(span.name == "shard.run" for span in spans)
        assert any(span.name == "session.job" for span in spans)
