"""Unit tests for coordinator/worker sharded execution (repro.exec.shard).

Deterministic partitioning by job index, per-shard result paths, the
byte-stable plan-order merge, and the fork-join coordinator — against the
same fast two-stage jobs the session tests use.
"""

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.exec import (
    ExperimentJob,
    RunPlan,
    Session,
    merge_shard_logs,
    plan_pipelines,
    run_sharded,
    shard_assignment,
    shard_plan,
    shard_results_path,
)
from repro.pipeline import ExperimentConfig

CFG = ExperimentConfig(name="shard-test", num_processors=2, ilp_time_limit=1.0)


def _dags(count=3):
    dags = []
    for seed in range(1, count + 1):
        dag = spmv(3, seed=seed)
        assign_random_memory_weights(dag, seed=seed)
        dag.name = f"spmv_{seed}"
        dags.append(dag)
    return dags


def _fast_jobs(dags=None, member="bspg+clairvoyant"):
    return [
        ExperimentJob.make(dag, CFG, member=member)
        for dag in (dags or _dags())
    ]


class TestShardAssignment:
    def test_edge_free_plan_shards_round_robin_by_index(self):
        plan = RunPlan.from_jobs(_fast_jobs(_dags(5)))
        assert shard_assignment(plan, 2) == [0, 1, 0, 1, 0]
        assert shard_assignment(plan, 3) == [0, 1, 2, 0, 1]
        assert shard_assignment(plan, 1) == [0] * 5

    def test_more_shards_than_nodes_leaves_trailing_shards_empty(self):
        plan = RunPlan.from_jobs(_fast_jobs(_dags(2)))
        assert shard_assignment(plan, 4) == [0, 1]

    def test_invalid_shard_counts_and_ids_are_rejected(self):
        plan = RunPlan.from_jobs(_fast_jobs(_dags(2)))
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            shard_assignment(plan, 0)
        with pytest.raises(ConfigurationError, match="shard_id"):
            shard_plan(plan, 2, 2)
        with pytest.raises(ConfigurationError, match="shard_id"):
            shard_plan(plan, 2, -1)


class TestShardPlan:
    def test_subplan_keeps_ids_edges_and_full_plan_indices(self):
        jobs = _fast_jobs(_dags(4))
        plan = RunPlan()
        for job, node_id in zip(jobs, "abcd"):
            plan.add(job, id=node_id)
        shard0 = shard_plan(plan, 2, 0)
        shard1 = shard_plan(plan, 2, 1)
        assert [n.id for n in shard0.plan] == ["a", "c"]
        assert shard0.indices == (0, 2)
        assert [n.id for n in shard1.plan] == ["b", "d"]
        assert shard1.indices == (1, 3)
        # every node is in exactly one shard
        assert sorted(shard0.indices + shard1.indices) == [0, 1, 2, 3]

    def test_subset_rejects_broken_dependencies_and_bad_indices(self):
        jobs = _fast_jobs(_dags(2))
        plan = RunPlan()
        plan.add(jobs[0], id="a")
        plan.add(jobs[1], id="b")
        assert [n.id for n in plan.subset([1])] == ["b"]
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.subset([5])
        assert len(plan.subset([0, 1])) == 2


class TestShardResultsPath:
    def test_name_concatenation_preserves_the_base_path(self):
        path = shard_results_path("out/results.jsonl", 4, 2)
        assert str(path) == "out/results.jsonl.shard2of4"
        # dots in the base name survive verbatim
        path = shard_results_path("a.b.c.jsonl", 2, 0)
        assert str(path) == "a.b.c.jsonl.shard0of2"


class TestRunSharded:
    def test_forkjoin_matches_single_process_results_and_bytes(self, tmp_path):
        plan = plan_pipelines(
            ["bspg+clairvoyant", "cilk+lru"], _dags(2), CFG
        )
        cache = tmp_path / "cache"
        single = tmp_path / "single.jsonl"
        reference = Session(
            workers=1, cache_dir=cache, results_path=single
        ).run(plan)

        merged = tmp_path / "merged.jsonl"
        session = Session(workers=1, cache_dir=cache, results_path=merged)
        results = session.run_sharded(plan, 2)
        assert [r.fingerprint() for r in results] == [
            r.fingerprint() for r in reference
        ]
        # shards replay the shared cache -> the merge is byte-identical
        assert merged.read_bytes() == single.read_bytes()
        assert session.stats.cache_hits == len(plan)
        # the per-shard files remain as artifacts
        assert shard_results_path(merged, 2, 0).is_file()
        assert shard_results_path(merged, 2, 1).is_file()

    def test_fresh_sharded_run_is_fingerprint_identical(self, tmp_path):
        plan = plan_pipelines(["bspg+clairvoyant"], _dags(2), CFG)
        reference = Session(workers=1).run(plan)
        results = run_sharded(plan, 2)
        assert [r.fingerprint() for r in results] == [
            r.fingerprint() for r in reference
        ]

    def test_sharded_without_results_path_writes_nothing(self, tmp_path):
        plan = plan_pipelines(["bspg+clairvoyant"], _dags(1), CFG)
        results = run_sharded(plan, 2, cache_dir=tmp_path / "cache")
        assert len(results) == 1
        assert list(tmp_path.glob("*.jsonl*")) == []

    def test_sharded_resume_skips_recorded_jobs(self, tmp_path):
        plan = plan_pipelines(["bspg+clairvoyant"], _dags(2), CFG)
        base = tmp_path / "results.jsonl"
        session = Session(workers=1, results_path=base)
        session.run_sharded(plan, 2)
        again = Session(workers=1, results_path=base, resume=True)
        again.run_sharded(plan, 2)
        assert again.stats.resumed == len(plan)
        assert again.stats.executed == 0

    def test_merge_validates_against_the_wrong_shard_count(self, tmp_path):
        plan = plan_pipelines(["bspg+clairvoyant"], _dags(2), CFG)
        base = tmp_path / "results.jsonl"
        run_sharded(plan, 2, results_path=base)
        with pytest.raises(ConfigurationError, match="re-run shard"):
            merge_shard_logs(plan, base, 3)
