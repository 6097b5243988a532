"""Soundness of the refinement engine's precondition screens (hypothesis).

:meth:`repro.refine.moves.Move.doomed` lets the ``load``, ``save`` and
``reassign`` families reject a proposal from the validator's recorded
pebble configurations, without a replay.  A screen is a necessary
condition only: every proposal it rejects must fail the replay too.  Each
screened proposal is therefore also checked here: it must fail both
:meth:`~repro.refine.validation.IncrementalValidator.revalidate` (a failed
revalidation leaves the snapshots alone, so the run goes on exactly as
without the check) and a full
:func:`~repro.model.validation.validate_schedule` of the edited schedule.

The inputs are two-stage schedules of random layered DAGs (integer or
fractional memory weights) on 1 to 4 processors with caches of 1 to 4
times ``r0``, ``g`` in {0, 1, 2.5} and ``L`` in {0, 10}, some with extra
SAVEs so that a value can be saved more than once, refined by hill
climbing and by annealing under both objectives.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.two_stage import run_two_stage
from repro.dag.generators import random_layered_dag
from repro.exceptions import InfeasibleInstanceError, InvalidScheduleError, ScheduleError
from repro.model.instance import make_instance
from repro.model.pebbling import OpType, PebblingState
from repro.model.schedule import MbspSchedule
from repro.model.validation import replay_superstep, validate_schedule
from repro.refine import RefineConfig, Refiner
from repro.refine import engine
from repro.refine.editing import ScheduleEditor
from repro.refine.moves import MoveLoad, MoveSave, ReassignCompute

FRACTIONS = (0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5)


def layered_dag(layers, width, probability, seed, fractional):
    dag = random_layered_dag(layers, width, edge_probability=probability, seed=seed)
    if fractional:
        rng = random.Random(seed)
        for v in dag.nodes:
            dag.set_mu(v, rng.choice(FRACTIONS))
    return dag


def with_redundant_saves(schedule: MbspSchedule, seed: int) -> MbspSchedule:
    """A copy with extra, always valid SAVEs of values red after a compute phase."""
    rng = random.Random(seed)
    out = schedule.copy()
    instance = out.instance
    state = PebblingState(instance.dag, instance.num_processors, instance.cache_size)
    for s, step in enumerate(out.supersteps):
        for p, ps in enumerate(step.processor_steps):
            red = set(state.red[p])
            for op in ps.compute_phase:
                if op.op_type is OpType.COMPUTE:
                    red.add(op.node)
                else:
                    red.discard(op.node)
            extra = sorted((v for v in red if v not in ps.save_phase), key=repr)
            if extra and rng.random() < 0.3:
                ps.save_phase.append(rng.choice(extra))
        replay_superstep(state, step, s)
    return out


def two_stage_schedule(dag, P, factor, g, L, scheduler, policy):
    instance = make_instance(dag, num_processors=P, cache_factor=factor, g=g, L=L)
    return run_two_stage(instance, scheduler=scheduler, policy=policy).mbsp_schedule


def screen_name(move) -> str:
    if isinstance(move, MoveSave):
        return "save earlier" if move.t < move.s else "save later"
    return move.name


@contextmanager
def checked_screens(screened: Counter):
    """Check every screened proposal against the replay; count them by screen."""
    editors = []

    class RecordingEditor(ScheduleEditor):
        def __init__(self, schedule):
            super().__init__(schedule)
            editors.append(self)

    def checked(cls):
        doomed = cls.doomed

        def wrapper(move, schedule, validator):
            if not doomed(move, schedule, validator):
                return False
            editor = editors[-1]
            assert not validator.revalidate(
                editor.first_affected, editor.last_affected, editor.structural
            ), move
            with pytest.raises(InvalidScheduleError):
                validate_schedule(schedule, require_all_computed=False)
            screened[screen_name(move)] += 1
            return True

        return mock.patch.object(cls, "doomed", wrapper)

    with mock.patch.object(engine, "ScheduleEditor", RecordingEditor), checked(
        MoveLoad
    ), checked(MoveSave), checked(ReassignCompute):
        yield


class TestScreensAreSound:
    @given(
        st.tuples(
            st.integers(min_value=2, max_value=5),          # layers
            st.integers(min_value=1, max_value=4),          # width
            st.floats(min_value=0.2, max_value=0.9),        # edge probability
            st.integers(min_value=0, max_value=10_000),     # DAG seed
            st.booleans(),                                  # fractional weights
        ),
        st.integers(min_value=1, max_value=4),              # processors
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),         # cache factor
        st.sampled_from([0.0, 1.0, 2.5]),                   # g
        st.sampled_from([0.0, 10.0]),                       # L
        st.sampled_from(["bspg", "cilk", "etf"]),
        st.sampled_from(["clairvoyant", "lru", "fifo"]),
        st.sampled_from(["hill", "anneal"]),
        st.booleans(),                                      # synchronous
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_screened_proposal_fails_the_replay(
        self, shape, P, factor, g, L, scheduler, policy, strategy, synchronous, seed
    ):
        try:
            schedule = two_stage_schedule(layered_dag(*shape), P, factor, g, L, scheduler, policy)
        except (InfeasibleInstanceError, ScheduleError):
            assume(False)
        schedule = with_redundant_saves(schedule, seed)
        config = RefineConfig(strategy=strategy, budget=400, seed=seed)
        with checked_screens(Counter()):
            Refiner(config).refine(schedule, synchronous=synchronous)

    def test_every_screen_fires_on_a_fixed_sample(self):
        # the property above is vacuous if no screen ever fires: on this
        # sample each one rejects proposals, all of them doomed
        screened = Counter()
        with checked_screens(screened):
            for seed in range(12):
                dag = layered_dag(5, 4, 0.5, seed, fractional=seed % 2 == 1)
                schedule = two_stage_schedule(dag, 3, 1.5, 1.0, 10.0, "bspg", "lru")
                schedule = with_redundant_saves(schedule, seed)
                for strategy in ("hill", "anneal"):
                    config = RefineConfig(strategy=strategy, budget=600, seed=seed)
                    Refiner(config).refine(schedule, synchronous=seed % 3 != 0)
        assert set(screened) == {"load", "save earlier", "save later", "reassign"}
