"""The arrival draw's block kernel against the verbatim per-request loop.

``generate_requests`` replays ``expovariate``/``uniform``/``randrange`` of
one ``random.Random(seed)`` from the generator's 32-bit words, a block of
``ARRIVAL_BLOCK`` requests at a time.  Its three columns must equal, bit
for bit, those of ``reference_generate_requests``, the loop kept verbatim
in ``test_columnar_reference.py``.

Hypothesis draws seeds that are negative, 0, above 2**64 or a ``str``; 1
to 3 blocks of requests with the block size patched small; pool sizes
around the powers of two up to ``2**32 - 1``; rates from 1e-3 to 1e3; and
deadline windows that are often a single point.  The first arrivals of
3000 seeds hold each first gap to ``math.log``.  A draw with the word
headroom patched to 0 makes the template rejections outrun a block's
words, so the kernel must draw more mid-block.  One sha256 pins the
columns of the ``serve`` benchmark workload's trace, and a ``tracemalloc``
guard keeps the draw's working memory in blocks.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.serve import ArrivalConfig, generate_requests
from repro.serve import arrivals as arrivals_module

from test_columnar_reference import reference_generate_requests

POOL_SIZES = (1, 2, 3, 4, 7, 8, 9, 2**31 - 1, 2**31, 2**32 - 1)

#: sha256 of the arrival, deadline and template columns (float64, float64,
#: int64, little-endian as on x86-64 and arm64) of the ``serve`` workload's
#: trace: seed 17, 2*10^5 requests at rate 4, a pool of 6 templates;
#: captured from the per-request loop
SERVE_TRACE_SHA256 = "a5ee6869bf6383c4359c07adc82ba2f1ecbe216b327ef21553a8e36cecae0926"


def column_bytes(arrival, deadline, template):
    """The arrival, deadline and template columns as float64, float64 and
    int64 bytes."""
    columns = (array("d", arrival), array("d", deadline), array("q", template))
    return [column.tobytes() for column in columns]


def assert_draw_matches(config: ArrivalConfig, pool_size: int) -> None:
    trace = generate_requests(config, pool_size)
    reference = reference_generate_requests(config, pool_size)
    assert column_bytes(trace.arrival, trace.deadline, trace.template) == column_bytes(
        [request.arrival for request in reference],
        [request.deadline for request in reference],
        [request.template for request in reference],
    )


seeds = st.one_of(
    st.integers(-(2**80), -1),
    st.just(0),
    st.integers(2**64 + 1, 2**80),
    st.text(max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    block=st.integers(1, 24),
    blocks=st.integers(1, 3),
    last_block_share=st.floats(0.0, 1.0),
    pool_size=st.sampled_from(POOL_SIZES),
    rate=st.floats(1e-3, 1e3),
    deadline_min=st.floats(0.01, 10.0),
    deadline_width=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    headroom=st.sampled_from([0, 3, arrivals_module.WORD_HEADROOM]),
)
def test_kernel_matches_the_per_request_loop(
    seed, block, blocks, last_block_share, pool_size, rate, deadline_min,
    deadline_width, headroom,
):
    requests = (blocks - 1) * block + max(1, round(last_block_share * block))
    config = ArrivalConfig(
        seed=seed,
        requests=requests,
        rate=rate,
        deadline_min=deadline_min,
        deadline_max=deadline_min + deadline_width,
    )
    with mock.patch.object(arrivals_module, "ARRIVAL_BLOCK", block), \
            mock.patch.object(arrivals_module, "WORD_HEADROOM", headroom):
        assert_draw_matches(config, pool_size)


def test_first_gaps_follow_math_log():
    """A later arrival adds its gap to a clock of up to thousands of time
    units, which mostly rounds a gap's last bit away; the first arrival is
    the first gap itself.  Over 3000 seeds, a gap one ulp off shows here
    (``np.log`` differs from ``math.log`` on about 0.35 % of inputs on an
    AVX512F host)."""
    for seed in range(3000):
        assert_draw_matches(ArrivalConfig(seed=seed, requests=2, rate=3.0), 6)


@pytest.mark.parametrize("pool_size", [9, 2**31 + 1])
def test_rejections_outrunning_the_headroom_draw_more_words(pool_size):
    """Without headroom, a block's words run out before its requests do
    about every other block: the kernel draws more mid-block."""
    config = ArrivalConfig(seed=5, requests=2000, rate=2.0)
    draws = mock.Mock(wraps=arrivals_module._words)
    with mock.patch.object(arrivals_module, "ARRIVAL_BLOCK", 100), \
            mock.patch.object(arrivals_module, "WORD_HEADROOM", 0), \
            mock.patch.object(arrivals_module, "_words", draws):
        assert_draw_matches(config, pool_size)
    # one draw per block (20), plus the extra ones
    assert draws.call_count > 25


def test_serve_workload_trace_is_pinned():
    trace = generate_requests(ArrivalConfig(seed=17, requests=200_000, rate=4.0), 6)
    digest = hashlib.sha256()
    for column in column_bytes(trace.arrival, trace.deadline, trace.template):
        digest.update(column)
    assert digest.hexdigest() == SERVE_TRACE_SHA256


def test_draw_works_in_blocks():
    """A 2*10^5-request draw peaks less than 2 MB above its final columns
    (4.8 MB): one block's words and arrays, not the whole trace's."""
    config = ArrivalConfig(seed=17, requests=200_000, rate=4.0)
    generate_requests(ArrivalConfig(requests=10), 6)  # warm up lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_requests(config, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(
        len(column) * column.itemsize
        for column in (trace.arrival, trace.deadline, trace.template)
    )
    assert columns == 4_800_000
    assert peak - before - columns < 2_000_000


def test_columns_are_released_to_the_caller():
    """No numpy view outlives the draw: the columns can still grow."""
    trace = generate_requests(ArrivalConfig(seed=3, requests=50), 4)
    trace.arrival.append(1e9)
    trace.deadline.append(1.0)
    trace.template.append(0)
    assert len(trace) == 51


@pytest.mark.parametrize("pool_size", [6.0, 2**32, "6", None])
def test_pool_sizes_outside_the_domain_are_rejected(pool_size):
    with pytest.raises(ConfigurationError, match="request pool size"):
        generate_requests(ArrivalConfig(requests=4), pool_size)


def test_largest_pool_size_is_drawn():
    assert_draw_matches(ArrivalConfig(seed=8, requests=300), 2**32 - 1)
