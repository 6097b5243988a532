"""Pack B: the semantic checker mirrors the runtime's acceptance exactly.

The contract (ISSUE 9 acceptance): every malformed spec/plan fixture the
runtime would reject is rejected *statically*, and everything the runtime
accepts checks clean.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import (
    check_policy,
    check_shards,
    check_spec,
)
from repro.pipeline.composite import EXAMPLE_RACE_SPECS
from repro.pipeline.spec import LEGACY_MEMBER_SPECS, parse
from repro.portfolio import DEFAULT_MEMBERS


def rules_of(findings):
    return sorted({f.rule for f in findings})


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


class TestSpecAcceptance:
    """Everything the runtime accepts must check clean."""

    @pytest.mark.parametrize("member", sorted(LEGACY_MEMBER_SPECS))
    def test_every_legacy_member_is_clean(self, member):
        # dfs members are P-conditional: clean for P=1, advisory otherwise
        processors = 1 if member.startswith("dfs") else 4
        assert check_spec(member, processors=processors) == []

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RACE_SPECS))
    def test_example_race_specs_are_clean(self, name):
        assert check_spec(EXAMPLE_RACE_SPECS[name], processors=4) == []

    @pytest.mark.parametrize("member", DEFAULT_MEMBERS)
    def test_default_portfolio_members_are_clean(self, member):
        assert check_spec(member, processors=4) == []

    def test_budgeted_solver_stage_is_clean(self):
        assert check_spec("baseline|ilp(budget=5s)", processors=4) == []

    def test_sweep_within_threshold_is_clean(self):
        assert check_spec("dac(max_part_size={2,4,8})", processors=4) == []


class TestSpecRejection:
    """Every runtime ConfigurationError path is caught statically."""

    @pytest.mark.parametrize(
        "spec",
        [
            "nosuchstage",                        # unknown stage
            "ilp@nosuchbackend",                  # unknown backend
            "ilp(warm=bogus)",                    # bad option value
            "refine(budget=0s)",                  # sub-microsecond budget
            "refine(budget=-1)",                  # negative counter budget
            "race(ilp@bnb)",                      # < 2 branches
            "dac(max_part_size=0)",               # invalid option
            "bspg+nosuchpolicy",                  # unknown policy
            "a|",                                 # empty stage
            "dac(max_part_size={})",              # empty sweep
            "dac(max_part_size={2,4}",            # unbalanced sweep
        ],
    )
    def test_statically_rejected_iff_runtime_rejects(self, spec):
        findings = check_spec(spec)
        assert rules_of(findings) == ["REP-S01"], findings
        # ground truth: the runtime parser rejects the same spec
        with pytest.raises(ConfigurationError):
            specs = parse(spec)
            specs.build_stages()

    def test_duplicate_race_branches(self):
        findings = check_spec("race(ilp@scipy,ilp@scipy)")
        assert rules_of(findings) == ["REP-S02"]
        # shuffled spellings canonicalize to the same branch token
        findings = check_spec(
            "race(refine(seed=1,strategy=anneal),refine(strategy=anneal,seed=1))"
        )
        assert rules_of(findings) == ["REP-S02"]

    def test_distinct_branches_clean(self):
        assert check_spec("race(ilp@bnb,ilp@scipy)", processors=4) == []

    def test_budget_on_non_binding_stage_warns(self):
        findings = check_spec("baseline(budget=5s)", processors=4)
        assert rules_of(findings) == ["REP-S03"]
        assert not errors_of(findings)

    def test_budget_on_non_binding_race_branch_warns(self):
        findings = check_spec(
            "race(bspg+clairvoyant(budget=5s),ilp)", processors=4
        )
        assert rules_of(findings) == ["REP-S03"]

    def test_refine_with_no_producer_through_race_errors(self):
        # race of definitely-inapplicable branches keeps incumbent=None;
        # the downstream refine then raises at run time (the REP-S04 gap)
        findings = check_spec(
            "race(dfs+clairvoyant,dfs+lru)|refine", processors=4
        )
        assert rules_of(findings) == ["REP-S04"]
        assert errors_of(findings)

    def test_refine_with_conditional_producer_warns(self):
        findings = check_spec("race(dfs+clairvoyant,dfs+lru)|refine")
        assert rules_of(findings) == ["REP-S04"]
        assert not errors_of(findings)

    def test_inapplicable_plain_stage_warns_not_errors(self):
        # a plain dfs pipeline short-circuits to 'inapplicable' (no raise)
        findings = check_spec("dfs+clairvoyant|ilp", processors=4)
        assert rules_of(findings) == ["REP-S04"]
        assert not errors_of(findings)

    def test_mixed_race_with_one_applicable_branch_is_clean(self):
        assert check_spec(
            "race(dfs+clairvoyant,bspg+clairvoyant)|refine", processors=4
        ) == []

    def test_sweep_cardinality_warning(self):
        findings = check_spec(
            "dac(max_part_size={1,2,3,4,5})|refine(seed={1,2,3,4})",
            processors=4,
            max_sweep=16,
        )
        assert "REP-S05" in rules_of(findings)

    def test_sweep_threshold_is_tunable(self):
        spec = "dac(max_part_size={2,4,8})"
        assert check_spec(spec, max_sweep=2) != []
        assert check_spec(spec, max_sweep=3) == []


class TestPolicy:
    def test_shipped_default_policy_is_clean(self):
        assert check_policy(processors=4) == []

    def test_unresolvable_tier(self):
        findings = check_policy(rich="nosuchmember")
        assert rules_of(findings) == ["REP-S06"]
        assert findings[0].path == "<policy.rich>"

    def test_bad_thresholds(self):
        from repro.serve.policy import PolicyConfig

        findings = check_policy(
            PolicyConfig(pressure_depth=0, idle_depth=0), processors=4
        )
        assert "REP-S06" in rules_of(findings)

    def test_tier_spec_hazards_surface(self):
        findings = check_policy(
            cheap="race(ilp@scipy,ilp@scipy)", processors=4
        )
        assert "REP-S02" in rules_of(findings)


class TestShards:
    def _plan(self, n):
        # jobs are irrelevant to shard assignment: use stand-ins
        from repro.exec.plan import PlanNode, RunPlan

        return RunPlan(PlanNode(id=f"n{i}", job=None) for i in range(n))

    def test_edge_free_plan_shards_freely(self):
        plan = self._plan(6)
        assert check_shards(plan, 3) == []

    def test_bad_shard_count_rejected(self):
        plan = self._plan(2)
        findings = check_shards(plan, 0)
        assert rules_of(findings) == ["REP-S07"]
