"""Unit and integration tests of the refinement engine."""

import random

import pytest

from repro.core.two_stage import baseline_schedule, run_two_stage
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import fork_join_dag, iterated_spmv, spmv
from repro.exceptions import InvalidScheduleError
from repro.experiments.datasets import tiny_dataset
from repro.experiments.runner import ExperimentConfig
from repro.model.cost import asynchronous_cost, schedule_cost, synchronous_cost
from repro.model.instance import make_instance
from repro.model.validation import validate_schedule
from repro.pipeline import Pipeline
from repro.portfolio.members import schedule_digest
from repro.refine import (
    MOVE_FAMILIES,
    IncrementalValidator,
    Move,
    RefineConfig,
    Refiner,
    generate_moves,
    refine_schedule,
)


def _instance(dag_builder=lambda: spmv(4, seed=1), mem_seed=7, processors=2):
    dag = dag_builder()
    assign_random_memory_weights(dag, seed=mem_seed)
    return make_instance(dag, num_processors=processors, cache_factor=3.0, g=1.0, L=10.0)


@pytest.fixture
def baseline():
    return baseline_schedule(_instance(), synchronous=True, seed=0)


class TestRefiner:
    def test_refined_schedule_is_valid_and_never_worse(self, baseline):
        result = refine_schedule(baseline.mbsp_schedule, budget=2000, seed=0)
        validate_schedule(result.schedule)
        assert result.final_cost <= result.initial_cost + 1e-9
        assert result.final_cost == pytest.approx(
            synchronous_cost(result.schedule), abs=1e-9
        )
        assert result.initial_cost == pytest.approx(baseline.cost)

    def test_input_schedule_is_not_mutated(self, baseline):
        digest = schedule_digest(baseline.mbsp_schedule)
        refine_schedule(baseline.mbsp_schedule, budget=1000, seed=0)
        assert schedule_digest(baseline.mbsp_schedule) == digest

    def test_deterministic_for_fixed_seed(self, baseline):
        first = refine_schedule(baseline.mbsp_schedule, budget=1500, seed=3)
        second = refine_schedule(baseline.mbsp_schedule, budget=1500, seed=3)
        assert first.final_cost == second.final_cost
        assert schedule_digest(first.schedule) == schedule_digest(second.schedule)
        assert [(e.move, e.delta) for e in first.trace] == [
            (e.move, e.delta) for e in second.trace
        ]

    def test_budget_zero_returns_input_cost(self, baseline):
        result = refine_schedule(baseline.mbsp_schedule, budget=0, seed=0)
        assert result.final_cost == pytest.approx(baseline.cost)
        assert result.proposals == 0
        assert result.accepted == 0

    def test_budget_is_respected(self, baseline):
        result = refine_schedule(baseline.mbsp_schedule, budget=50, seed=0)
        assert result.proposals <= 50

    def test_trace_costs_are_monotone_under_hill_climbing(self, baseline):
        result = refine_schedule(baseline.mbsp_schedule, budget=2500, seed=0)
        costs = [result.initial_cost] + [entry.cost for entry in result.trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert result.accepted == len(result.trace)

    def test_annealing_never_returns_worse_than_input(self, baseline):
        config = RefineConfig(strategy="anneal", budget=1500, seed=11)
        result = Refiner(config).refine(baseline.mbsp_schedule)
        validate_schedule(result.schedule)
        assert result.final_cost <= result.initial_cost + 1e-9
        assert result.final_cost == pytest.approx(
            synchronous_cost(result.schedule), abs=1e-9
        )

    def test_asynchronous_mode_never_regresses_makespan(self):
        instance = _instance(lambda: iterated_spmv(3, 2, seed=42), mem_seed=42)
        base = baseline_schedule(instance, synchronous=False, seed=0)
        result = refine_schedule(base.mbsp_schedule, budget=1500, seed=0,
                                 synchronous=False)
        validate_schedule(result.schedule)
        assert result.final_cost <= base.cost + 1e-9
        assert result.final_cost == pytest.approx(
            asynchronous_cost(result.schedule), abs=1e-9
        )

    def test_annealing_asynchronous_mode_gates_on_the_makespan(self):
        instance = _instance(lambda: iterated_spmv(3, 2, seed=42), mem_seed=42)
        base = baseline_schedule(instance, synchronous=False, seed=0)
        config = RefineConfig(strategy="anneal", budget=1200, seed=4)
        result = Refiner(config).refine(base.mbsp_schedule, synchronous=False)
        validate_schedule(result.schedule)
        assert result.final_cost <= base.cost + 1e-9
        assert result.final_cost == pytest.approx(
            asynchronous_cost(result.schedule), abs=1e-9
        )

    def test_invalid_input_schedule_raises(self, baseline):
        broken = baseline.mbsp_schedule.copy()
        # drop every save phase: the sinks never reach slow memory
        for step in broken.supersteps:
            for ps in step.processor_steps:
                ps.save_phase.clear()
        with pytest.raises(InvalidScheduleError):
            refine_schedule(broken, budget=10)

    def test_refines_multiple_pipelines(self):
        instance = _instance(processors=4)
        for scheduler, policy in (("bspg", "clairvoyant"), ("cilk", "lru")):
            two_stage = run_two_stage(instance, scheduler=scheduler, policy=policy)
            result = refine_schedule(two_stage.mbsp_schedule, budget=1200, seed=0)
            validate_schedule(result.schedule)
            assert result.final_cost <= two_stage.cost + 1e-9

    def test_finds_improvements_on_reference_instance(self, baseline):
        """The spmv baseline is known to leave slack on the table."""
        result = refine_schedule(baseline.mbsp_schedule, budget=3000, seed=0)
        assert result.final_cost < baseline.cost - 1e-9
        assert result.accepted > 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RefineConfig(strategy="tabu")
        with pytest.raises(ValueError):
            RefineConfig(budget=-1)

    def test_summary_mentions_costs(self, baseline):
        result = refine_schedule(baseline.mbsp_schedule, budget=500, seed=0)
        text = result.summary()
        assert "refine:" in text and "accepted" in text


class TestReportedCost:
    """Refine reports ``schedule_cost`` of the schedules it takes and
    returns.  Its search follows the editor's running total, a per-step sum
    that drifts from ``schedule_cost`` in the last bits on fractional
    weights (66.00000000000001 against 66.0)."""

    @staticmethod
    def fractional_dags(seed):
        """The tiny dataset with one-decimal compute and memory weights."""
        for dag in tiny_dataset():
            rng = random.Random(f"{dag.name}:{seed}")
            for v in dag.nodes:
                dag.set_omega(v, rng.randint(1, 30) / 10)
                dag.set_mu(v, rng.randint(1, 30) / 10)
            yield dag

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pipeline_cost_is_the_schedule_cost(self, seed):
        config = ExperimentConfig(name="refine-cost", num_processors=4)
        for dag in self.fractional_dags(seed):
            result = Pipeline("bspg+clairvoyant|refine").run(dag, config)
            assert result.cost == schedule_cost(result.schedule), dag.name

    @pytest.mark.parametrize("strategy", ["hill", "anneal"])
    @pytest.mark.parametrize("synchronous", [True, False])
    def test_refine_result_costs(self, strategy, synchronous):
        config = RefineConfig(strategy=strategy, budget=400, seed=5)
        for dag in list(self.fractional_dags(2))[:6]:
            instance = make_instance(dag, num_processors=4, cache_factor=3.0, g=1.0, L=10.0)
            schedule = baseline_schedule(instance, synchronous=synchronous, seed=0).mbsp_schedule
            result = Refiner(config).refine(schedule, synchronous=synchronous)
            assert result.initial_cost == schedule_cost(schedule, synchronous), dag.name
            assert result.final_cost == schedule_cost(result.schedule, synchronous), dag.name
            assert result.final_cost <= result.initial_cost


class TestMoveGeneration:
    def test_families_cover_known_names(self, baseline):
        moves = generate_moves(baseline.mbsp_schedule)
        assert moves
        assert {move_class.name for move_class, _ in moves} <= set(MOVE_FAMILIES)

    def test_candidates_build_their_moves(self, baseline):
        for move_class, args in generate_moves(baseline.mbsp_schedule):
            assert isinstance(move_class(*args), Move)

    def test_unknown_family_rejected(self, baseline):
        with pytest.raises(ValueError):
            generate_moves(baseline.mbsp_schedule, families=("teleport",))

    def test_family_filter_restricts_neighborhood(self, baseline):
        merges = generate_moves(baseline.mbsp_schedule, families=("merge",))
        assert merges
        assert all(move_class.name == "merge" for move_class, _ in merges)


class TestIncrementalValidator:
    def test_accepts_valid_edit_and_rejects_invalid_one(self, baseline):
        work = baseline.mbsp_schedule.copy()
        validator = IncrementalValidator(work)
        # removing a load that is needed later must be rejected
        for s, step in enumerate(work.supersteps):
            for p, ps in enumerate(step.processor_steps):
                if ps.load_phase:
                    node = ps.load_phase.pop(0)
                    consumed_later = any(
                        node in work.dag.parents(v)
                        for later in work.supersteps[s + 1:]
                        for q in later.processor_steps
                        for v in q.computed_nodes()
                    )
                    if consumed_later:
                        assert validator.revalidate(s, s) is False
                        ps.load_phase.insert(0, node)
                        assert validator.revalidate(s, s) is True
                        return
                    ps.load_phase.insert(0, node)
        pytest.skip("no load feeding later computes in this schedule")

    def test_noop_revalidate_with_none_is_true(self, baseline):
        validator = IncrementalValidator(baseline.mbsp_schedule.copy())
        assert validator.revalidate(None) is True


def test_fork_join_refinement_on_one_processor():
    dag = fork_join_dag(width=3, stages=2)
    assign_random_memory_weights(dag, seed=5)
    instance = make_instance(dag, num_processors=1, cache_factor=3.0, g=1.0, L=10.0)
    base = baseline_schedule(instance, synchronous=True, seed=0)
    result = refine_schedule(base.mbsp_schedule, budget=1500, seed=0)
    validate_schedule(result.schedule)
    assert result.final_cost <= base.cost + 1e-9
