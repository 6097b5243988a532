"""Arrival-process tests: seeded traces are pure functions of the config."""

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import ArrivalConfig, generate_requests, request_pool


class TestGenerateRequests:
    def test_same_seed_same_trace(self):
        config = ArrivalConfig(seed=11, requests=50, rate=3.0)
        assert generate_requests(config, 5) == generate_requests(config, 5)

    def test_different_seeds_differ(self):
        a = generate_requests(ArrivalConfig(seed=1, requests=50), 5)
        b = generate_requests(ArrivalConfig(seed=2, requests=50), 5)
        assert a != b

    def test_trace_shape(self):
        config = ArrivalConfig(
            seed=4, requests=200, rate=5.0, deadline_min=0.5, deadline_max=2.0
        )
        trace = generate_requests(config, 3)
        assert len(trace) == 200
        assert [r.index for r in trace] == list(range(200))
        # arrivals are strictly increasing (exponential gaps are positive)
        assert all(b.arrival > a.arrival for a, b in zip(trace, trace[1:]))
        assert all(0.5 <= r.deadline <= 2.0 for r in trace)
        assert all(0 <= r.template < 3 for r in trace)
        # with 200 draws over 3 templates, every template appears
        assert {r.template for r in trace} == {0, 1, 2}

    def test_mean_rate_is_roughly_honoured(self):
        config = ArrivalConfig(seed=9, requests=2000, rate=4.0)
        trace = generate_requests(config, 2)
        mean_gap = trace[-1].arrival / len(trace)
        assert mean_gap == pytest.approx(1 / 4.0, rel=0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"rate": 0.0},
            {"rate": -1.0},
            {"deadline_min": 0.0},
            {"deadline_min": 3.0, "deadline_max": 2.0},
            {"dataset": "huge"},
            {"limit": 0},
            {"rate": float("nan")},
            {"rate": float("inf")},
            {"deadline_min": float("nan")},
            {"deadline_max": float("nan")},
            {"deadline_max": float("inf")},
            {"requests": 5.5},
            {"limit": 2.5},
        ],
    )
    def test_invalid_configs_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_requests(ArrivalConfig(**kwargs), 4)

    def test_empty_pool_is_rejected(self):
        with pytest.raises(ConfigurationError, match="pool is empty"):
            generate_requests(ArrivalConfig(), 0)


class TestRequestPool:
    def test_pool_is_a_dataset_prefix(self):
        pool = request_pool(ArrivalConfig(dataset="tiny", limit=4))
        assert len(pool) == 4
        # seeded dataset builds: the same config yields the same DAGs
        again = request_pool(ArrivalConfig(dataset="tiny", limit=4))
        assert [d.name for d in pool] == [d.name for d in again]
