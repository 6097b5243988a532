"""The event loop's block kernel against the verbatim per-request loop.

``ScheduleService._simulate`` answers runs of cache hits in numpy blocks
(``_advance``) and every other request in its loop body.  Its five record
columns, job slots, jobs and trace digest must equal, byte for byte, those
of ``reference_simulate``, the list-based loop kept verbatim in
``test_columnar_reference.py``.

Hypothesis draws 1-6000 requests over 1-5 servers at rates from light load
to overload, hit times from 1e-12 (below half an ulp of a large clock, so
a hit finishes at its own arrival) to 2, the policy thresholds, tier specs
that may share a canonical spec, a pool that may repeat a DAG (two slots,
one key) and block windows patched small, so block boundaries fall
everywhere.  Traces on a grid of eighths make finishes equal later
arrivals and arrivals equal each other.  ``choose_many`` is held to
``choose`` element by element, at the thresholds too.  One sha256 pins the record columns of the ``serve``
benchmark workload, on which at most 1 % of the requests may go through
the loop body.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import Session
from repro.serve import (
    AdaptivePolicy,
    ArrivalConfig,
    PolicyConfig,
    RequestTrace,
    ScheduleService,
    ServiceConfig,
    ServiceReport,
    generate_requests,
    request_pool,
)
from repro.serve import service as service_module

from test_columnar_reference import ReferenceReport, reference_simulate

#: tier specs to draw from; "baseline" twice makes shared tiers likelier
SPECS = ("baseline", "baseline", "bspg+clairvoyant", "bspg+clairvoyant|refine")

#: sha256 of the start, finish, queue-depth, cache-hit and job-slot columns
#: (float64, float64, int64, int8, int64, little-endian) of the ``serve``
#: workload: seed 17, 2*10^5 requests at rate 4, 2 servers, 6 templates;
#: captured from the per-request loop
SERVE_COLUMNS_SHA256 = "e154a0a4d5458dff8e26ab14ee7c2e7803cdcb83a3aecc9d906366fbd417bac5"


@pytest.fixture(scope="module")
def templates():
    return request_pool(ArrivalConfig(limit=3))


def record_columns(records):
    return [
        column.tobytes()
        for column in (
            records.start, records.finish, records.queue_depth,
            records.cache_hit, records.job,
        )
    ]


def reference_columns(records):
    """The reference records as columns and slot lists, one slot per
    ``(template, spec)`` pair in first-request order."""
    slots = {}
    for record in records:
        slots.setdefault((record.template, record.spec), record)
    index = {pair: slot for slot, pair in enumerate(slots)}
    columns = [
        array("d", [r.start for r in records]),
        array("d", [r.finish for r in records]),
        array("q", [r.queue_depth for r in records]),
        array("b", [r.cache_hit for r in records]),
        array("q", [index[r.template, r.spec] for r in records]),
    ]
    lists = [
        [r.instance for r in slots.values()],
        [r.spec for r in slots.values()],
        [r.key for r in slots.values()],
    ]
    return [column.tobytes() for column in columns], lists


def assert_simulation_matches(service, pool, trace) -> None:
    records, jobs = service._simulate(pool, trace)
    reference, reference_jobs = reference_simulate(service, pool, list(trace))
    columns, lists = reference_columns(reference)
    assert record_columns(records) == columns
    assert [records.instances, records.specs, records.keys] == lists
    assert list(jobs) == list(reference_jobs)
    report = ServiceReport(service.config, records, results={}, jobs=jobs)
    assert report.trace_digest() == ReferenceReport(reference, {}).trace_digest()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    requests=st.integers(1, 6000),
    rate=st.floats(0.05, 200.0),
    deadline_min=st.floats(0.01, 4.0),
    deadline_width=st.floats(0.0, 8.0),
    servers=st.integers(1, 5),
    pool_size=st.integers(1, 3),
    repeat=st.booleans(),
    cache_hit_time=st.one_of(
        st.sampled_from([1e-12, 0.05, 2.0]), st.floats(1e-12, 2.0)
    ),
    idle_depth=st.integers(0, 3),
    pressure_gap=st.integers(1, 6),
    tight_slack=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
    tiers=st.tuples(*[st.sampled_from(SPECS)] * 3),
    window_min=st.integers(1, 8),
    window_max=st.integers(2, 64),
)
def test_block_kernel_matches_the_per_request_loop(
    templates, seed, requests, rate, deadline_min, deadline_width, servers,
    pool_size, repeat, cache_hit_time, idle_depth, pressure_gap, tight_slack,
    tiers, window_min, window_max,
):
    arrivals = ArrivalConfig(
        seed=seed,
        requests=requests,
        rate=rate,
        deadline_min=deadline_min,
        deadline_max=deadline_min + deadline_width,
    )
    # a repeated DAG gives two templates one job key per spec: the second
    # template's first request creates a slot and is a cache hit
    pool = templates[:pool_size] + templates[:1] * repeat
    config = ServiceConfig(
        arrivals=arrivals,
        policy=PolicyConfig(
            cheap_spec=tiers[0],
            steady_spec=tiers[1],
            rich_spec=tiers[2],
            pressure_depth=idle_depth + pressure_gap,
            tight_slack=tight_slack,
            idle_depth=idle_depth,
        ),
        servers=servers,
        cache_hit_time=cache_hit_time,
    )
    service = ScheduleService(config, session=Session())
    trace = generate_requests(arrivals, len(pool))
    with mock.patch.object(service_module, "WINDOW_MIN", window_min), \
            mock.patch.object(service_module, "WINDOW_MAX", window_max):
        assert_simulation_matches(service, pool, trace)


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=3000),
    deadlines=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1),
    template_seed=st.integers(0, 2**16),
    servers=st.integers(1, 4),
    cache_hit_time=st.sampled_from([0.125, 0.25, 0.5]),
    tiers=st.tuples(*[st.sampled_from(SPECS)] * 3),
    window_min=st.integers(1, 8),
    window_max=st.integers(2, 64),
)
def test_times_on_a_grid_tie_everywhere(
    templates, gaps, deadlines, template_seed, servers, cache_hit_time, tiers,
    window_min, window_max,
):
    """Arrivals, hit and miss times on a grid of eighths: finishes equal
    later arrivals, arrivals equal each other and slacks equal the policy
    threshold, so every comparison of the loop meets its ties."""
    rng = np.random.default_rng(template_seed)
    trace = RequestTrace(
        np.cumsum(gaps) * 0.125,
        [deadlines[k % len(deadlines)] for k in range(len(gaps))],
        rng.integers(0, len(templates), len(gaps)).tolist(),
    )
    config = ServiceConfig(
        policy=PolicyConfig(
            cheap_spec=tiers[0], steady_spec=tiers[1], rich_spec=tiers[2],
            pressure_depth=2, tight_slack=1.0, idle_depth=1,
        ),
        servers=servers,
        cache_hit_time=cache_hit_time,
        service_time_scale=2.0**-6,
    )
    service = ScheduleService(config, session=Session())
    with mock.patch.object(service_module, "WINDOW_MIN", window_min), \
            mock.patch.object(service_module, "WINDOW_MAX", window_max):
        assert_simulation_matches(service, templates, trace)


def test_a_hit_time_absorbed_by_the_clock(templates):
    """At rate 0.05 the clock passes 10**4 within a few hundred requests,
    where adding 1e-12 leaves a time unchanged: hits finish at their own
    arrival, and the block kernel must count them out of the queue."""
    arrivals = ArrivalConfig(seed=4, requests=3000, rate=0.05)
    config = ServiceConfig(arrivals=arrivals, servers=2, cache_hit_time=1e-12)
    service = ScheduleService(config, session=Session())
    trace = generate_requests(arrivals, len(templates))
    records, _ = service._simulate(templates, trace)
    finish, arrival = np.asarray(records.finish), np.asarray(trace.arrival)
    assert np.count_nonzero(finish == arrival) > 1000
    assert_simulation_matches(service, templates, trace)


# ----------------------------------------------------------------------
# the block chooser
# ----------------------------------------------------------------------
thresholds = st.integers(-3, 12)  # depths are integers (PolicyConfig.validate)


@settings(max_examples=200, deadline=None)
@given(
    pressure=thresholds,
    idle=thresholds,
    tight_slack=st.one_of(
        st.floats(0.0, 10.0),
        st.integers(0, 10),
        st.sampled_from([2**53 + 1, 2**60 + 200, 2**60 + 100, 10**20 + 1]),
    ),
    depths=st.lists(st.integers(0, 10**6), max_size=20),
    slacks=st.lists(st.floats(0.0, 1e21), max_size=20),
)
def test_choose_many_is_choose_per_element(pressure, idle, tight_slack, depths, slacks):
    if not idle < pressure:
        pressure, idle = idle + 1, pressure
    config = PolicyConfig(
        pressure_depth=pressure, idle_depth=idle, tight_slack=tight_slack
    )
    policy = AdaptivePolicy(config)
    # the thresholds themselves and their float neighbours
    edge = float(tight_slack)
    slacks = slacks + [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    depths = depths + [
        value
        for threshold in (pressure, idle)
        for value in (threshold - 1, threshold, threshold + 1)
        if value >= 0
    ]
    pairs = [(depth, slack) for depth in depths for slack in slacks]
    chosen = policy.choose_many(
        np.array([depth for depth, _ in pairs], np.int64),
        np.array([slack for _, slack in pairs], np.float64),
    )
    assert [policy.specs[tier] for tier in chosen] == [
        policy.choose(depth, slack) for depth, slack in pairs
    ]


class ChooseOnly(AdaptivePolicy):
    """Overrides ``choose`` alone: its ``choose_many`` would answer for the
    parent's ``choose``, so the service must ask it per request."""

    def choose(self, queue_depth, slack):
        return self.specs[(queue_depth + int(slack)) % 3]


class ChooseBoth(AdaptivePolicy):
    def choose(self, queue_depth, slack):
        return self.specs[queue_depth % 3]

    def choose_many(self, queue_depths, slacks):
        return queue_depths % 3


def test_a_subclass_overriding_choose_alone_is_asked_per_request(templates):
    assert service_module._block_chooser(AdaptivePolicy()) is not None
    assert service_module._block_chooser(ChooseOnly()) is None
    assert service_module._block_chooser(ChooseBoth()) is not None
    patched = AdaptivePolicy()
    patched.choose = lambda queue_depth, slack: patched.cheap
    assert service_module._block_chooser(patched) is None

    arrivals = ArrivalConfig(seed=2, requests=2000, rate=6.0)
    trace = generate_requests(arrivals, len(templates))
    for policy, in_blocks in ((ChooseOnly(), False), (ChooseBoth(), True)):
        service = ScheduleService(
            ServiceConfig(arrivals=arrivals), session=Session(), policy=policy
        )
        kernel = mock.Mock(wraps=service_module._advance)
        with mock.patch.object(service_module, "_advance", kernel):
            assert_simulation_matches(service, templates, trace)
        assert (kernel.call_count > 0) == in_blocks


# ----------------------------------------------------------------------
# the serve workload
# ----------------------------------------------------------------------
def test_serve_workload_columns_are_pinned_and_answered_in_blocks():
    arrivals = ArrivalConfig(seed=17, requests=200_000, rate=4.0)
    service = ScheduleService(
        ServiceConfig(arrivals=arrivals, servers=2), session=Session()
    )
    pool = request_pool(arrivals)
    trace = generate_requests(arrivals, len(pool))
    kept, kernel = [], service_module._advance

    def advance(*args):
        result = kernel(*args)
        kept.append(result[0])
        return result

    with mock.patch.object(service_module, "_advance", advance):
        records, jobs = service._simulate(pool, trace)
    digest = hashlib.sha256()
    for column in record_columns(records):
        digest.update(column)
    assert digest.hexdigest() == SERVE_COLUMNS_SHA256
    assert len(jobs) == 18
    # a silent fallback to the loop body must not pass as byte-identical
    assert len(trace) - sum(kept) <= len(trace) // 100
    # no numpy view keeps a column's buffer exported
    for column in (trace.arrival, trace.template, records.start, records.job):
        column.append(0)
