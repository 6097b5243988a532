"""Multi-process safety of the result stores (the sharding prerequisite).

N processes concurrently ``store()`` the same and distinct keys while also
``load()``-ing them: every read must be a complete old or new entry (never
torn), no ``.tmp`` litter may remain, and filesystem-level failures must
degrade to cache misses / warn-and-skip instead of crashing the run.  Plus
the :class:`ResultLog` contract sharding relies on: per-shard files merge
byte-identically into the single-process stream.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exec import ResultCache, ResultLog, RunPlan, merge_shard_logs
from repro.exec.shard import shard_results_path
from repro.pipeline import InstanceResult


def _result(tag: int) -> InstanceResult:
    # fully deterministic content (fixed solve_time) so byte comparisons
    # are meaningful without a cache
    return InstanceResult(
        instance_name=f"inst_{tag}",
        num_nodes=tag + 1,
        baseline_cost=10.0 + tag,
        ilp_cost=5.0 + tag,
        solver_status="optimal",
        solve_time=0.25,
        extra_costs={"member_cost": 5.0 + tag},
    )


def _hammer(payload):
    """One writer+reader process of the stress test (module-level: must be
    picklable into the worker processes)."""
    cache_dir, worker_id, rounds = payload
    cache = ResultCache(cache_dir)
    torn = 0
    for r in range(rounds):
        cache.store("contended.key", _result(worker_id))
        cache.store(f"distinct.{worker_id}.{r}", _result(r))
        loaded = cache.load("contended.key")
        # a miss (None) is acceptable mid-replace on some filesystems; a
        # torn/partial read is not — from_dict would have raised and load
        # would have returned None, so any non-None result is complete
        if loaded is not None and not loaded.instance_name.startswith("inst_"):
            torn += 1
    return torn


class TestResultCacheMultiProcess:
    def test_concurrent_writers_and_readers_no_torn_reads_no_litter(self, tmp_path):
        cache_dir = tmp_path / "cache"
        workers, rounds = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            torn = list(pool.map(
                _hammer, [(str(cache_dir), w, rounds) for w in range(workers)]
            ))
        assert sum(torn) == 0
        # no stray temp files survive the concurrent stores
        assert [p for p in cache_dir.iterdir() if p.suffix == ".tmp"] == []
        # the contended key holds one complete entry from some writer
        final = ResultCache(cache_dir).load("contended.key")
        assert final is not None and final.solver_status == "optimal"
        # every distinct key is present and loads cleanly
        cache = ResultCache(cache_dir)
        for w in range(workers):
            for r in range(rounds):
                loaded = cache.load(f"distinct.{w}.{r}")
                assert loaded is not None and loaded.instance_name == f"inst_{r}"

    def test_key_with_dot_maps_to_exact_json_name(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("a.b", _result(1))
        # name concatenation: "<key>.json", never with_suffix clobbering
        assert (tmp_path / "a.b.json").is_file()
        assert cache.path("a.b").name == "a.b.json"
        assert cache.load("a.b").instance_name == "inst_1"
        # and "a.b" cannot shadow a different key "a"
        assert cache.load("a") is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        # the entry path occupied by a directory: load misses, store warns
        (tmp_path / "blocked.json").mkdir()
        assert cache.load("blocked") is None
        with pytest.warns(UserWarning, match="cache store failed"):
            cache.store("blocked", _result(1))
        # the run continues: other keys still store fine
        cache.store("fine", _result(2))
        assert cache.load("fine").instance_name == "inst_2"

    def test_store_into_unwritable_dir_warns_instead_of_crashing(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind as root")
        cache_dir = tmp_path / "ro"
        cache_dir.mkdir()
        cache_dir.chmod(0o500)
        try:
            cache = ResultCache(cache_dir)
            with pytest.warns(UserWarning, match="cache store failed"):
                cache.store("key", _result(1))
        finally:
            cache_dir.chmod(0o700)

    def test_corrupt_entry_still_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_text("{not json")
        assert cache.load("bad") is None


class _FakeJob:
    """Duck-typed plan job: enough surface for ResultLog + shard merging."""

    def __init__(self, key: str, instance: str):
        self._key = key
        self.kind = "fake"
        self.instance_name = instance

    def key(self) -> str:
        return self._key


def _log_plan(count: int) -> RunPlan:
    plan = RunPlan()
    for i in range(count):
        plan.add(_FakeJob(f"key-{i:03d}", f"inst_{i}"), id=f"n{i}")
    return plan


class TestResultLogShardMerge:
    def test_per_shard_files_merge_byte_identically(self, tmp_path):
        plan = _log_plan(7)
        results = [_result(i) for i in range(7)]

        # the single-process stream: one appender, plan order
        single = tmp_path / "single.jsonl"
        log = ResultLog(single)
        for node, result in zip(plan.nodes, results):
            log.append(node.job.key(), node.job, result)

        # per-shard streams (chain-free assignment: index % shards)
        shards = 3
        base = tmp_path / "merged.jsonl"
        shard_logs = [
            ResultLog(shard_results_path(base, shards, s)) for s in range(shards)
        ]
        for i, (node, result) in enumerate(zip(plan.nodes, results)):
            shard_logs[i % shards].append(node.job.key(), node.job, result)

        merged = merge_shard_logs(plan, base, shards)
        assert merged == base
        assert base.read_bytes() == single.read_bytes()

    def test_merge_skips_duplicate_keys_like_the_single_appender(self, tmp_path):
        plan = RunPlan()
        job = _FakeJob("dup-key", "inst_0")
        plan.add(job, id="a")
        plan.add(job, id="b")  # same key twice in the plan

        single = tmp_path / "single.jsonl"
        log = ResultLog(single)
        for node in plan.nodes:
            log.append(node.job.key(), node.job, _result(0))
        assert len(single.read_text().splitlines()) == 1

        base = tmp_path / "merged.jsonl"
        for s in range(2):
            shard_log = ResultLog(shard_results_path(base, 2, s))
            shard_log.append(job.key(), job, _result(0))
        merge_shard_logs(plan, base, 2)
        assert base.read_bytes() == single.read_bytes()

    def test_missing_shard_record_raises_a_clear_error(self, tmp_path):
        from repro.exceptions import ConfigurationError

        plan = _log_plan(4)
        base = tmp_path / "merged.jsonl"
        # only shard 0 ran
        log = ResultLog(shard_results_path(base, 2, 0))
        for i in (0, 2):
            node = plan.nodes[i]
            log.append(node.job.key(), node.job, _result(i))
        with pytest.raises(ConfigurationError, match="re-run shard 1 of 2"):
            merge_shard_logs(plan, base, 2)

    def test_malformed_shard_lines_are_skipped(self, tmp_path):
        plan = _log_plan(2)
        base = tmp_path / "merged.jsonl"
        shard_file = shard_results_path(base, 1, 0)
        log = ResultLog(shard_file)
        for i, node in enumerate(plan.nodes):
            log.append(node.job.key(), node.job, _result(i))
        with open(shard_file, "a") as handle:
            handle.write("{truncated-after-a-crash\n")
        merge_shard_logs(plan, base, 1)
        records = base.read_text().splitlines()
        assert len(records) == 2
        assert all(json.loads(line)["kind"] == "fake" for line in records)

    def test_invalidate_reparses_the_rewritten_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        log = ResultLog(path)
        job = _FakeJob("k1", "inst_1")
        log.append(job.key(), job, _result(1))
        assert set(log.recorded()) == {"k1"}
        # the file changes underneath (as after a shard merge)
        other = _FakeJob("k2", "inst_2")
        ResultLog(path).append(other.key(), other, _result(2))
        assert set(log.recorded()) == {"k1"}  # stale by contract
        log.invalidate()
        assert set(log.recorded()) == {"k1", "k2"}
