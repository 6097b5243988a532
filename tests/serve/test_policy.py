"""Policy tests: spec tiers are a pure function of the load observables."""

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import AdaptivePolicy, PolicyConfig


class TestAdaptivePolicy:
    def test_default_tiers_are_canonical_specs(self):
        policy = AdaptivePolicy()
        assert policy.specs == (
            "baseline", "bspg+clairvoyant", "bspg+clairvoyant|refine"
        )

    def test_legacy_names_canonicalize_at_construction(self):
        policy = AdaptivePolicy(PolicyConfig(rich_spec="ilp"))
        assert policy.rich == "baseline|ilp(warm=objective)"

    def test_pressure_gets_the_cheap_tier(self):
        policy = AdaptivePolicy(
            PolicyConfig(pressure_depth=4, tight_slack=1.0, idle_depth=0)
        )
        assert policy.choose(queue_depth=4, slack=5.0) == policy.cheap
        assert policy.choose(queue_depth=9, slack=5.0) == policy.cheap
        # a tight deadline is pressure even on an empty queue
        assert policy.choose(queue_depth=0, slack=1.0) == policy.cheap

    def test_idleness_gets_the_rich_tier(self):
        policy = AdaptivePolicy()
        assert policy.choose(queue_depth=0, slack=5.0) == policy.rich

    def test_intermediate_load_gets_the_steady_tier(self):
        policy = AdaptivePolicy(
            PolicyConfig(pressure_depth=4, tight_slack=1.0, idle_depth=0)
        )
        for depth in (1, 2, 3):
            assert policy.choose(queue_depth=depth, slack=5.0) == policy.steady

    def test_choice_is_deterministic(self):
        policy = AdaptivePolicy()
        cases = [(d, s) for d in range(6) for s in (0.5, 1.5, 4.0)]
        first = [policy.choose(d, s) for d, s in cases]
        assert first == [policy.choose(d, s) for d, s in cases]

    def test_unknown_spec_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown portfolio member"):
            AdaptivePolicy(PolicyConfig(cheap_spec="warp-drive"))

    def test_inverted_thresholds_are_rejected(self):
        with pytest.raises(ConfigurationError, match="idle_depth < pressure_depth"):
            AdaptivePolicy(PolicyConfig(pressure_depth=1, idle_depth=2))

    def test_negative_slack_threshold_is_rejected(self):
        with pytest.raises(ConfigurationError, match="tight_slack"):
            AdaptivePolicy(PolicyConfig(tight_slack=-0.5))

    def test_non_finite_slack_threshold_is_rejected(self):
        with pytest.raises(ConfigurationError, match="tight_slack must be finite"):
            AdaptivePolicy(PolicyConfig(tight_slack=float("nan")))

    def test_slack_threshold_beyond_the_float_range_is_rejected(self):
        # math.isfinite raises OverflowError on such an int
        with pytest.raises(ConfigurationError, match="tight_slack must be finite"):
            AdaptivePolicy(PolicyConfig(tight_slack=10**400))

    @pytest.mark.parametrize("field", ["pressure_depth", "idle_depth"])
    @pytest.mark.parametrize("depth", [float("nan"), 2.5, "3"])
    def test_non_integer_depth_threshold_is_rejected(self, field, depth):
        # a NaN pressure_depth used to validate and then never count a
        # queue as pressure
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            AdaptivePolicy(PolicyConfig(**{field: depth}))
