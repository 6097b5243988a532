"""Selector (greedy / knn) ranking tests for repro.learn.model."""

from __future__ import annotations

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.pipeline import ExperimentConfig
from repro.learn import (
    LearnedHistory,
    instance_features,
    rank_greedy,
    rank_knn,
    rank_members,
)


CONFIG = ExperimentConfig(name="model-test", num_processors=4)


def make_instance(seed=1):
    dag = spmv(4, seed=seed)
    assign_random_memory_weights(dag, seed=seed)
    return dag, instance_features(dag, CONFIG)


def history_with(observations, dag=None, features=None):
    """A history with the given ``spec -> (cost, solver_calls)`` table."""
    if dag is None:
        dag, features = make_instance()
    history = LearnedHistory(processors=4)
    for spec, (cost, calls) in observations.items():
        history.observe(dag.name, features, dag.num_nodes, spec, cost, calls)
    return history


class TestGreedy:
    def test_orders_by_mean_relative_cost(self):
        dag, features = make_instance()
        history = history_with(
            {"fast": (10.0, 0.0), "slow": (15.0, 0.0), "ilp": (10.0, 5.0)},
            dag=dag, features=features,
        )
        ranked = rank_greedy(history, features, ["slow", "ilp", "fast"])
        # fast and ilp tie on cost; fewer solver calls breaks the tie
        assert ranked == ["fast", "ilp", "slow"]

    def test_unobserved_candidates_rank_last_in_order(self):
        dag, features = make_instance()
        history = history_with(
            {"fast": (10.0, 0.0), "slow": (15.0, 0.0)},
            dag=dag, features=features,
        )
        ranked = rank_greedy(
            history, features, ["mystery-b", "slow", "mystery-a", "fast"]
        )
        assert ranked == ["fast", "slow", "mystery-b", "mystery-a"]

    def test_empty_history_preserves_candidate_order(self):
        _, features = make_instance()
        candidates = ["c", "a", "b"]
        assert rank_greedy(LearnedHistory(), features, candidates) == candidates

    def test_seed_rotates_only_exact_ties(self):
        dag, features = make_instance()
        history = history_with(
            {"x": (10.0, 1.0), "y": (10.0, 1.0), "worse": (20.0, 0.0)},
            dag=dag, features=features,
        )
        candidates = ["worse", "y", "x"]
        seed0 = rank_greedy(history, features, candidates, seed=0)
        seed1 = rank_greedy(history, features, candidates, seed=1)
        assert seed0 == ["x", "y", "worse"]
        assert seed1 == ["y", "x", "worse"]
        # cuts at tie-group boundaries select the same set regardless of
        # seed; a cut *inside* the group picks equivalent (exactly tied)
        # members, so selection quality never depends on the seed
        assert set(seed0[:2]) == set(seed1[:2])
        assert set(seed0[:3]) == set(seed1[:3])
        assert seed0[0] in ("x", "y") and seed1[0] in ("x", "y")

    def test_unseen_bucket_falls_back_to_global_table(self):
        mined_dag, mined_features = make_instance(seed=1)
        history = history_with(
            {"fast": (10.0, 0.0), "slow": (30.0, 0.0)},
            dag=mined_dag, features=mined_features,
        )
        # a much larger instance lands in a bucket the history never saw
        other = spmv(40, seed=9)
        assign_random_memory_weights(other, seed=9)
        other_features = instance_features(other, CONFIG)
        assert (
            rank_greedy(history, other_features, ["slow", "fast"])
            == ["fast", "slow"]
        )

    def test_ranking_is_pure(self):
        dag, features = make_instance()
        history = history_with(
            {"fast": (10.0, 0.0), "slow": (15.0, 0.0)},
            dag=dag, features=features,
        )
        before = history.digest()
        rank_greedy(history, features, ["slow", "fast"])
        rank_knn(history, features, ["slow", "fast"])
        assert history.digest() == before


class TestKnn:
    def test_empty_history_preserves_candidate_order(self):
        _, features = make_instance()
        candidates = ["b", "a"]
        assert rank_knn(LearnedHistory(), features, candidates) == candidates

    def test_neighbours_vote_with_relative_costs(self):
        history = LearnedHistory(processors=4)
        for seed in (1, 2, 3):
            dag, features = make_instance(seed=seed)
            history.observe(
                dag.name, features, dag.num_nodes, "fast", 10.0, 0.0
            )
            history.observe(
                dag.name, features, dag.num_nodes, "slow", 14.0, 0.0
            )
        _, query = make_instance(seed=4)
        assert rank_knn(history, query, ["slow", "fast"]) == ["fast", "slow"]


class TestRankMembers:
    def test_dispatches_both_selectors(self):
        dag, features = make_instance()
        history = history_with(
            {"fast": (10.0, 0.0), "slow": (15.0, 0.0)},
            dag=dag, features=features,
        )
        for selector in ("greedy", "knn"):
            ranked = rank_members(
                history, features, ["slow", "fast"], selector=selector
            )
            assert ranked == ["fast", "slow"]

    def test_unknown_selector_raises(self):
        _, features = make_instance()
        with pytest.raises(ConfigurationError, match="unknown selector"):
            rank_members(LearnedHistory(), features, ["a"], selector="bogus")
