"""The bulk advertising-delay draw against the per-event loop it replaces.

``reference_starts`` is the loop ``gen_advertising`` used before it drew
its delays in blocks of Mersenne Twister words.  ``_event_starts`` must
give the same starts and leave the generator in the same state: it may
neither skip nor overdraw a word.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel.core import RADIO_CLOCK, AdvSettings, Duration, TimeInstant
from blechannel.simkit import _DRAW_BLOCK, _event_starts, gen_advertising


def reference_starts(start_ns, end_ns, base_ns, span, rng):
    """One ``rng.randrange(span)`` after each event, kept as the reference."""
    starts, t = [], start_ns
    while t <= end_ns:
        starts.append(t)
        t += base_ns + rng.randrange(span)
    return starts


def assert_same_draws(seed, start_ns, end_ns, base_ns, span):
    bulk, loop = random.Random(seed), random.Random(seed)
    got = _event_starts(start_ns, end_ns, base_ns, span, bulk)
    assert got.dtype == np.int64
    assert got.tolist() == reference_starts(start_ns, end_ns, base_ns, span, loop)
    assert bulk.getstate() == loop.getstate()


# Candidates take one word up to 2**32 and two words above it, and the
# rejection rate peaks just above a power of two.
EDGE_SPANS = [1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 1, 2**53, 2**54]
SPANS = st.one_of(
    st.sampled_from(EDGE_SPANS),
    st.integers(1, 64),
    st.integers(1, 2**54),
    st.integers(29, 36).map(lambda k: 2**k + 1),
)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    base_ns=st.one_of(st.integers(1, 1000), st.integers(1, 2**53)),
    span=SPANS,
    start_ns=st.integers(-(2**60), 2**60),
    periods=st.integers(-3, 1500),
    extra=st.floats(0.0, 1.0),
)
def test_bulk_draws_match_the_randrange_loop(seed, base_ns, span, start_ns, periods, extra):
    period = base_ns + span // 2
    end_ns = min(start_ns + periods * period + int(extra * period), 2**62)
    assert_same_draws(seed, start_ns, end_ns, base_ns, span)


@given(seed=st.integers(0, 2**64), span=SPANS, start_ns=st.integers(-(2**60), 2**60))
def test_empty_and_single_event_runs(seed, span, start_ns):
    assert_same_draws(seed, start_ns, start_ns - 1, 1, span)
    assert_same_draws(seed, start_ns, start_ns, 1, span)
    assert_same_draws(seed, start_ns, start_ns, 2**53 - 1, span)


def test_runs_longer_than_one_block():
    for seed, span in ((1, 1), (2, 3), (3, 10_000_001)):
        end_ns = 2 * _DRAW_BLOCK * (10 + span)
        assert_same_draws(seed, 0, end_ns, 10, span)


def test_gen_advertising_keeps_the_old_stream():
    adv = AdvSettings(Duration.from_seconds(0.1))
    end = TimeInstant(60 * 10**9, RADIO_CLOCK)
    bulk, loop = random.Random("adv:0"), random.Random("adv:0")
    events = gen_advertising(adv, "d", TimeInstant(5, RADIO_CLOCK), end, bulk)
    assert events.start_ns.tolist() == reference_starts(5, end.ns, 10**8, 10**7 + 1, loop)
    assert bulk.getstate() == loop.getstate()
