"""Mining and byte-stability tests for the learned history (repro.learn)."""

from __future__ import annotations

import json

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.pipeline import ExperimentConfig
from repro.learn import (
    HISTORY_SCHEMA_VERSION,
    LearnedHistory,
    MemberObservation,
    instance_features,
    mine_history,
)


CONFIG = ExperimentConfig(name="history-test", num_processors=4)


def make_dags(count=2):
    dags = []
    for i in range(count):
        dag = spmv(3 + i, seed=i)
        assign_random_memory_weights(dag, seed=i)
        dags.append(dag)
    return dags


def result_payload(cost, solver_calls=0.0):
    return {
        "instance_name": "x",
        "num_nodes": 5,
        "baseline_cost": cost + 1,
        "ilp_cost": cost,
        "solver_status": "optimal",
        "solve_time": 0.1,
        "extra_costs": {"member_cost": cost},
        "solver_stats": {"solver_calls": solver_calls},
    }


def write_results(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def sample_records(dags):
    records = []
    for i, dag in enumerate(dags):
        for j, (spec, cost) in enumerate(
            [("bspg+clairvoyant", 10.0 + i), ("cilk+lru", 14.0 + i)]
        ):
            records.append({
                "key": f"k{i}-{j}",
                "kind": "portfolio",
                "instance": dag.name,
                "member": spec,
                "result": result_payload(cost, solver_calls=float(j)),
            })
    return records


class TestMining:
    def test_mines_member_records(self, tmp_path):
        dags = make_dags()
        path = tmp_path / "results.jsonl"
        write_results(path, sample_records(dags))
        history, stats = mine_history([path], dags, CONFIG)
        assert stats.observations == 4
        assert history.num_observations == 4
        assert history.specs() == ["bspg+clairvoyant", "cilk+lru"]
        assert history.best_cost(dags[0].name) == 10.0

    def test_skips_memberless_unknown_and_nonfinite(self, tmp_path):
        dags = make_dags(1)
        records = sample_records(dags)
        records.append({  # no member spec (pre-PR-10 record)
            "key": "k-old", "kind": "pipeline", "instance": dags[0].name,
            "result": result_payload(5.0),
        })
        records.append({  # unknown instance: no DAG to feature
            "key": "k-ghost", "kind": "portfolio", "instance": "ghost",
            "member": "ilp", "result": result_payload(5.0),
        })
        records.append({  # non-finite cost
            "key": "k-inf", "kind": "portfolio", "instance": dags[0].name,
            "member": "ilp",
            "result": dict(result_payload(1.0), ilp_cost=float("inf"),
                           extra_costs={}),
        })
        path = tmp_path / "results.jsonl"
        write_results(path, records)
        history, stats = mine_history([path], dags, CONFIG)
        assert stats.skipped_no_member == 1
        assert stats.skipped_unknown_instance == 1
        assert stats.skipped_nonfinite == 1
        assert history.num_observations == 2
        assert "observation(s)" in stats.describe()

    def test_malformed_lines_are_skipped(self, tmp_path):
        dags = make_dags(1)
        path = tmp_path / "results.jsonl"
        good = json.dumps(sample_records(dags)[0], sort_keys=True)
        path.write_text("not json\n" + good + "\n{\"truncated\": \n")
        history, stats = mine_history([path], dags, CONFIG)
        assert history.num_observations == 1


class TestByteStability:
    def test_remining_is_idempotent(self, tmp_path):
        dags = make_dags()
        path = tmp_path / "results.jsonl"
        write_results(path, sample_records(dags))
        once, _ = mine_history([path], dags, CONFIG)
        twice, _ = mine_history([path, path], dags, CONFIG)
        assert once.to_json() == twice.to_json()
        assert once.digest() == twice.digest()

    def test_record_order_does_not_matter(self, tmp_path):
        dags = make_dags()
        forward = tmp_path / "fwd.jsonl"
        backward = tmp_path / "bwd.jsonl"
        records = sample_records(dags)
        write_results(forward, records)
        write_results(backward, list(reversed(records)))
        a, _ = mine_history([forward], dags, CONFIG)
        b, _ = mine_history([backward], dags, CONFIG)
        assert a.to_json() == b.to_json()

    def test_no_wall_clock_in_serialization(self, tmp_path):
        dags = make_dags(1)
        path = tmp_path / "results.jsonl"
        write_results(path, sample_records(dags))
        history, _ = mine_history([path], dags, CONFIG)
        text = history.to_json()
        assert "solve_time" not in text
        assert "solver_time" not in text

    def test_observation_merge_is_order_free(self):
        a = MemberObservation(cost=10.0, solver_calls=1.0)
        a.merge(8.0, 3.0)
        a.merge(9.0, 2.0)
        b = MemberObservation(cost=9.0, solver_calls=2.0)
        b.merge(8.0, 3.0)
        b.merge(10.0, 1.0)
        assert (a.cost, a.solver_calls) == (b.cost, b.solver_calls) == (8.0, 3.0)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        dags = make_dags()
        results = tmp_path / "results.jsonl"
        write_results(results, sample_records(dags))
        history, _ = mine_history([results], dags, CONFIG)
        target = tmp_path / "history.json"
        history.save(target)
        loaded = LearnedHistory.load(target)
        assert loaded.to_json() == history.to_json()
        assert loaded.digest() == history.digest()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            LearnedHistory.load(tmp_path / "nope.json")

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("definitely not json")
        with pytest.raises(ConfigurationError, match="malformed"):
            LearnedHistory.load(path)

    def test_load_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "schema_version": HISTORY_SCHEMA_VERSION + 1, "instances": {}
        }))
        with pytest.raises(ConfigurationError, match="schema version"):
            LearnedHistory.load(path)

    def test_observe_directly(self):
        dag = make_dags(1)[0]
        features = instance_features(dag, CONFIG)
        history = LearnedHistory(processors=4)
        history.observe(dag.name, features, dag.num_nodes, "ilp", 5.0, 1.0)
        history.observe(dag.name, features, dag.num_nodes, "ilp", 7.0, 2.0)
        observation = history.instances[dag.name].members["ilp"]
        assert observation.cost == 5.0
        assert observation.solver_calls == 2.0
        assert history.best_cost(dag.name) == 5.0
