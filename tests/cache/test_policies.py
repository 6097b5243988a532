"""Unit tests for the cache eviction policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import (
    CacheEntryInfo,
    ClairvoyantPolicy,
    FifoPolicy,
    LargestFirstPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
    victim_rank,
)

INF = float("inf")


def entry(node, mu=1.0, next_use=INF, last_use=0.0, insertion=0.0):
    return CacheEntryInfo(node=node, mu=mu, next_use=next_use, last_use=last_use, insertion=insertion)


class TestClairvoyant:
    def test_evicts_furthest_next_use(self):
        policy = ClairvoyantPolicy()
        candidates = [entry("a", next_use=3), entry("b", next_use=10), entry("c", next_use=5)]
        assert policy.choose_victim(candidates) == "b"

    def test_prefers_dead_values(self):
        policy = ClairvoyantPolicy()
        candidates = [entry("a", next_use=2), entry("dead", next_use=INF)]
        assert policy.choose_victim(candidates) == "dead"

    def test_tie_break_on_memory_weight(self):
        policy = ClairvoyantPolicy()
        candidates = [entry("small", mu=1, next_use=4), entry("big", mu=5, next_use=4)]
        assert policy.choose_victim(candidates) == "big"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ClairvoyantPolicy().choose_victim([])


class TestLru:
    def test_evicts_least_recently_used(self):
        policy = LruPolicy()
        candidates = [entry("a", last_use=5), entry("b", last_use=1), entry("c", last_use=9)]
        assert policy.choose_victim(candidates) == "b"

    def test_ignores_future_information(self):
        policy = LruPolicy()
        candidates = [entry("soon", next_use=1, last_use=0), entry("later", next_use=99, last_use=5)]
        # LRU evicts 'soon' (oldest last use) even though it is needed next
        assert policy.choose_victim(candidates) == "soon"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            LruPolicy().choose_victim([])


class TestOtherPolicies:
    def test_fifo(self):
        policy = FifoPolicy()
        candidates = [entry("a", insertion=3), entry("b", insertion=1)]
        assert policy.choose_victim(candidates) == "b"

    def test_largest_first(self):
        policy = LargestFirstPolicy()
        candidates = [entry("a", mu=2), entry("b", mu=7)]
        assert policy.choose_victim(candidates) == "b"

    def test_random_is_deterministic_with_seed(self):
        candidates = [entry(f"n{i}") for i in range(5)]
        picks1 = [RandomPolicy(seed=3).choose_victim(candidates) for _ in range(3)]
        picks2 = [RandomPolicy(seed=3).choose_victim(candidates) for _ in range(3)]
        assert picks1 == picks2

    def test_random_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomPolicy().choose_victim([])


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("clairvoyant", ClairvoyantPolicy),
            ("belady", ClairvoyantPolicy),
            ("LRU", LruPolicy),
            ("fifo", FifoPolicy),
            ("largest_first", LargestFirstPolicy),
            ("random", RandomPolicy),
        ],
    )
    def test_known_policies(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("magic")


class TestVictimRank:
    """A ranked policy's victims, in one stable sort on the rank with the
    highest first, are the ones repeated ``choose_victim`` calls pick."""

    RANKED = (ClairvoyantPolicy, LargestFirstPolicy, LruPolicy, FifoPolicy)

    @staticmethod
    def ranked_order(policy, candidates):
        names = sorted({str(e.node) for e in candidates})
        rank_of = victim_rank(policy)
        rank = {
            e.node: rank_of(e.next_use, e.mu, e.last_use, e.insertion, names.index(str(e.node)))
            for e in candidates
        }
        return sorted((e.node for e in candidates), key=rank.__getitem__, reverse=True)

    @staticmethod
    def chosen_order(policy, candidates):
        remaining, order = list(candidates), []
        while remaining:
            victim = policy.choose_victim(remaining)
            order.append(victim)
            remaining = [e for e in remaining if e.node != victim]
        return order

    @given(
        st.lists(
            st.tuples(
                # 1 and "1" are distinct nodes with one name
                st.sampled_from([0, 1, 2, "0", "1", "2", "a", ("t", 1)]),
                st.sampled_from([0.0, 1.0, 2.5]),
                st.sampled_from([0, 1, 2, INF]),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda row: row[0],
        ),
        st.sampled_from(RANKED),
    )
    @settings(max_examples=300, deadline=None)
    def test_rank_order_is_repeated_choose_victim(self, rows, policy_cls):
        candidates = [entry(node, mu, next_use, last_use, insertion)
                      for node, mu, next_use, last_use, insertion in rows]
        policy = policy_cls()
        assert self.ranked_order(policy, candidates) == self.chosen_order(policy, candidates)

    def test_unranked_policies(self):
        class Custom(LruPolicy):
            def choose_victim(self, candidates):
                return candidates[-1].node

        patched = LruPolicy()
        patched.choose_victim = lambda candidates: candidates[-1].node
        assert victim_rank(RandomPolicy()) is None
        assert victim_rank(Custom()) is None
        assert victim_rank(patched) is None
        assert victim_rank(make_policy("belady")) is victim_rank(ClairvoyantPolicy())
