"""The trace digest's byte kernel against the verbatim list-based digest.

``ServiceReport.trace_digest`` writes each block of digest rows straight
into a byte matrix and hashes the kept bytes; a block holding a time
outside the kernel's domain goes through ``json.dumps`` instead.  The bytes
must stay those of ``json.dumps(rows, sort_keys=True)``, which
``ReferenceReport.trace_digest`` (kept verbatim in
``test_columnar_reference.py``) computes row object by row object.

The kernel rests on two facts, each checked here directly and through the
digests of hand-built reports:

* ``_nanos`` computes ``n = round(x * 10**9)`` exactly, so ``n / 1e9 ==
  round(x, 9)``;
* when ``_plain`` holds, ``repr(round(x, 9))`` is the plain decimal of
  ``n`` that ``_decimal`` writes.

Times are drawn from [0, 2e6], from dyadic ties ``k * 2**-m`` (``2**-10``
rounds to ``0.000976562``) and from float neighbours of ``1e-4``, ``1e6``
and the rounding midpoints ``n * 1e-9 +- 5e-10``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    RequestRecords,
    RequestTrace,
    ServiceConfig,
    ServiceReport,
)
from repro.serve import service as service_module

from test_columnar_reference import ReferenceRecord, ReferenceReport

SPECS = ("baseline", "bspg+clairvoyant", "bspg+clairvoyant|refine")


class Row(NamedTuple):
    template: int
    spec: str
    arrival: float
    deadline: float
    start: float
    finish: float
    queue_depth: int
    cache_hit: bool


def hand_built(rows: List[Row]):
    """A columnar report and its list-based reference over ``rows``; each
    distinct ``(template, spec)`` pair gets one job slot."""
    records = RequestRecords(
        RequestTrace(
            [row.arrival for row in rows],
            [row.deadline for row in rows],
            [row.template for row in rows],
        )
    )
    slots = {}
    reference = []
    for index, row in enumerate(rows):
        slot = slots.get((row.template, row.spec))
        if slot is None:
            slot = slots[(row.template, row.spec)] = len(records.keys)
            records.instances.append(f"dag{row.template}")
            records.specs.append(row.spec)
            records.keys.append(f"k{slot}")
            records.costs.append(7.0 + slot)
        records.start.append(row.start)
        records.finish.append(row.finish)
        records.queue_depth.append(row.queue_depth)
        records.cache_hit.append(row.cache_hit)
        records.job.append(slot)
        reference.append(
            ReferenceRecord(
                index=index, instance=f"dag{row.template}",
                template=row.template, spec=row.spec, key=f"k{slot}",
                arrival=row.arrival, deadline=row.deadline,
                queue_depth=row.queue_depth, cache_hit=row.cache_hit,
                start=row.start, finish=row.finish, cost=7.0 + slot,
            )
        )
    results = {key: None for key in records.keys}
    report = ServiceReport(
        config=ServiceConfig(), records=records, results=results, jobs={}
    )
    return report, ReferenceReport(reference, results)


def digest_at(report, chunk: int) -> str:
    with mock.patch.object(service_module, "DIGEST_CHUNK", chunk):
        return report.trace_digest()


# ----------------------------------------------------------------------
def _walk(base: float, steps: int) -> float:
    """``base`` moved ``steps`` floats up (or down, when negative)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        base = math.nextafter(base, direction)
    return base


dyadic_ties = st.builds(
    lambda k, m: k * 2.0 ** -m, st.integers(1, 2**21), st.integers(1, 40)
)
neighbours = st.builds(
    _walk,
    st.one_of(
        st.sampled_from([1e-4, 1e6]),
        st.builds(
            lambda n, sign: n * 1e-9 + sign * 5e-10,
            st.integers(0, 2 * 10**15),
            st.sampled_from([-1, 1]),
        ),
    ),
    st.integers(-3, 3),
).filter(lambda x: x >= 0)
times = st.one_of(st.floats(0, 2e6), dyadic_ties, neighbours)


@settings(max_examples=400, deadline=None)
@given(st.lists(times, min_size=1, max_size=64))
def test_rounding_and_plain_decimals_are_exact(values):
    """Fact 1: ``_nanos(x) / 1e9 == round(x, 9)``.  Fact 2: inside the
    plain domain ``_decimal`` writes ``repr(round(x, 9))``."""
    x = np.array(values)
    nanos = service_module._nanos(x)
    assert (nanos / 1e9).tolist() == [round(value, 9) for value in values]
    for value, n in zip(values, nanos.tolist()):
        if service_module._plain(np.array([value]), np.array([n])):
            data, keep = service_module._decimal(np.array([n]))
            assert data[keep].tobytes().decode() == repr(round(value, 9))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(
            Row,
            template=st.integers(0, 12),
            spec=st.sampled_from(SPECS),
            arrival=times,
            deadline=st.one_of(times, st.floats(0, 10)),
            start=times,
            finish=times,
            queue_depth=st.integers(0, 150),
            cache_hit=st.booleans(),
        ),
        min_size=1,
        max_size=24,
    ),
    st.integers(1, 8),
)
def test_digest_matches_the_list_based_digest(rows, chunk):
    report, reference = hand_built(rows)
    assert digest_at(report, chunk) == reference.trace_digest()


# ----------------------------------------------------------------------
def test_deadline_boundary_is_not_a_miss():
    """A request that finishes exactly at ``arrival + deadline`` meets its
    deadline; one float later misses it."""
    arrival, deadline = 0.1, 0.2
    due = arrival + deadline
    report, reference = hand_built([
        Row(0, "baseline", arrival, deadline, arrival, due, 0, False),
        Row(0, "baseline", arrival, deadline, arrival,
            math.nextafter(due, math.inf), 1, True),
    ])
    for chunk in (1, service_module.DIGEST_CHUNK):
        assert digest_at(report, chunk) == reference.trace_digest()
    assert report.slo_summary()["deadline_miss_rate"] == 0.5
    assert reference.slo_summary()["deadline_miss_rate"] == 0.5
    records = [record.to_dict() for record in report.records]
    assert [record["deadline_miss"] for record in records] == [False, True]
    assert records == [record.to_dict() for record in reference.records]


#: rows the kernel renders, and two it does not: 3e-05 prints in exponent
#: form, 1234567.891 has 16 significant digits
MIXED = [
    Row(1, "bspg+clairvoyant", 3e-05, 2.5, 3e-05, 0.05003, 0, False),
    Row(0, "baseline", 0.25, 0.5, 0.25, 0.30000000000000004, 1, True),
    Row(2, "bspg+clairvoyant|refine", 2.0 ** -10, 4.0, 0.5, 3 * 2.0 ** -10, 10, False),
    Row(0, "baseline", 17.5, 0.75, 17.5, 29267.8355345365, 2, True),
    Row(1, "bspg+clairvoyant", 1234567.891, 1.0, 1234567.891, 1234568.0, 0, False),
    Row(3, "baseline", 999999.999999999, 0.5, 1e-4, 1e6 - 1e-9, 123, True),
]


@pytest.mark.parametrize("chunk, fallbacks", [(1, 2), (2, 2), (4096, 1)])
def test_mixed_report_falls_back_per_block(chunk, fallbacks):
    report, reference = hand_built(MIXED)
    with mock.patch.object(
        service_module, "_block_json", wraps=service_module._block_json
    ) as fallback:
        assert digest_at(report, chunk) == reference.trace_digest()
    assert fallback.call_count == fallbacks


@pytest.mark.parametrize("finish, template", [
    (-0.0, 0),          # rounds to -0.0
    (-1e-12, 0),        # rounds to -0.0 too
    (9.9999e-05, 0),    # exponent form, just below the plain domain
    (999999.9999999996, 0),  # rounds to 1000000.0, just above it
    (1e16, 0),          # exponent form
    (math.inf, 0),      # Infinity
    (2.5, -1),          # a negative integer
])
def test_out_of_domain_rows_fall_back(finish, template):
    report, reference = hand_built(
        [Row(template, "baseline", 1.5, 2.0, 1.5, finish, 0, True)]
    )
    with mock.patch.object(
        service_module, "_block_json", wraps=service_module._block_json
    ) as fallback:
        assert report.trace_digest() == reference.trace_digest()
    assert fallback.call_count == 1


def test_rendered_values_of_the_mixed_report():
    """The kernel's rows read back as the reference rows, ties rounded
    half to even and the Python-float rounding of 29267.8355345365."""
    report, _ = hand_built(MIXED[1:4])
    records, specs = report.records, service_module._byte_table(
        [json.dumps(spec).encode() for spec in report.records.specs]
    )
    body = service_module._block_bytes(records, slice(0, 3), specs)
    assert json.loads(b"[" + body.tobytes() + b"]") == [
        [0, 0, "baseline", 0.25, 0.25, 0.3, 1, True, False],
        [1, 2, "bspg+clairvoyant|refine", 0.000976562, 0.5, 0.002929688, 10,
         False, False],
        [2, 0, "baseline", 17.5, 17.5, 29267.835534537, 2, True, True],
    ]


def test_empty_report_digest():
    report, reference = hand_built([])
    assert report.trace_digest() == hashlib.sha256(b"[]").hexdigest()
    assert report.trace_digest() == reference.trace_digest()
