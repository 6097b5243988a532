"""LearnedPolicy tests: the mined history may promote a tier, never break
the determinism or the pressure guarantees of the serve loop."""

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.pipeline import ExperimentConfig
from repro.learn import LearnedHistory, instance_features
from repro.serve import (
    AdaptivePolicy,
    ArrivalConfig,
    LearnedPolicy,
    PolicyConfig,
    ScheduleService,
    ServiceConfig,
)


POLICY_CONFIG = PolicyConfig(pressure_depth=4, tight_slack=1.0, idle_depth=0)
LOAD_GRID = [(depth, slack) for depth in range(6) for slack in (0.5, 1.5, 4.0)]


def make_features(seed=1):
    dag = spmv(4, seed=seed)
    assign_random_memory_weights(dag, seed=seed)
    config = ExperimentConfig(name="learned-policy", num_processors=4)
    return dag, instance_features(dag, config)


def history_preferring(spec_costs, dag, features):
    history = LearnedHistory(processors=4)
    for spec, cost in spec_costs.items():
        history.observe(dag.name, features, dag.num_nodes, spec, cost, 0.0)
    return history


class TestChooseFor:
    def test_empty_history_reproduces_adaptive_policy(self):
        _, features = make_features()
        base = AdaptivePolicy(POLICY_CONFIG)
        learned = LearnedPolicy(LearnedHistory(), config=POLICY_CONFIG)
        for depth, slack in LOAD_GRID:
            assert (
                learned.choose_for(features, depth, slack)
                == base.choose(depth, slack)
            )

    def test_pressure_beats_any_learned_preference(self):
        dag, features = make_features()
        learned = LearnedPolicy(
            history_preferring(
                {"bspg+clairvoyant|refine": 1.0, "baseline": 99.0},
                dag, features,
            ),
            config=POLICY_CONFIG,
        )
        assert learned.choose_for(features, 4, 5.0) == learned.cheap
        assert learned.choose_for(features, 0, 0.5) == learned.cheap

    def test_history_promotes_rich_in_steady_zone(self):
        dag, features = make_features()
        learned = LearnedPolicy(
            history_preferring(
                {"bspg+clairvoyant|refine": 5.0, "bspg+clairvoyant": 10.0},
                dag, features,
            ),
            config=POLICY_CONFIG,
        )
        # depths 1..3 are the steady zone; the history says rich wins here
        for depth in (1, 2, 3):
            assert learned.choose_for(features, depth, 5.0) == learned.rich

    def test_history_demotes_rich_in_idle_zone(self):
        dag, features = make_features()
        learned = LearnedPolicy(
            history_preferring(
                {"bspg+clairvoyant": 5.0, "bspg+clairvoyant|refine": 10.0},
                dag, features,
            ),
            config=POLICY_CONFIG,
        )
        assert learned.choose_for(features, 0, 5.0) == learned.steady

    def test_choose_without_features_matches_base(self):
        learned = LearnedPolicy(LearnedHistory(), config=POLICY_CONFIG)
        base = AdaptivePolicy(POLICY_CONFIG)
        for depth, slack in LOAD_GRID:
            assert learned.choose(depth, slack) == base.choose(depth, slack)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown selector"):
            LearnedPolicy(LearnedHistory(), selector="bogus")


class TestServiceIntegration:
    def _config(self):
        return ServiceConfig(
            arrivals=ArrivalConfig(seed=3, requests=20, rate=8.0, limit=3)
        )

    def test_empty_history_service_is_bit_identical_to_base(self):
        config = self._config()
        base = ScheduleService(config).run()
        learned = ScheduleService(
            self._config(),
            policy=LearnedPolicy(LearnedHistory(), config=config.policy),
        ).run()
        assert learned.trace_digest() == base.trace_digest()
        assert learned.slo_summary() == base.slo_summary()

    def test_learned_service_replays_deterministically(self):
        history = LearnedHistory()
        digests = set()
        for _ in range(2):
            report = ScheduleService(
                self._config(),
                policy=LearnedPolicy(history, config=PolicyConfig()),
            ).run()
            digests.add(report.trace_digest())
        assert len(digests) == 1
