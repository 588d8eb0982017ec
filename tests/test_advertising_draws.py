"""The bulk advertising-delay draw against the per-event loop it replaces.

``reference_starts`` is the loop ``gen_advertising`` used before it drew
its delays in blocks of Mersenne Twister words.  ``_event_starts`` must
give the same starts and leave the generator where the loop leaves it.  It
may draw words past the end of the run only if it then sets the generator
back and draws the used words again.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel import simkit
from blechannel.core import RADIO_CLOCK, AdvSettings, Duration, TimeInstant
from blechannel.harness import ExperimentConfig, simulate_scenario
from blechannel.simkit import _DRAW_BLOCK, _event_starts, gen_advertising

INT64_MAX = 2**63 - 1


def reference_starts(start_ns, end_ns, base_ns, span, rng):
    """One ``rng.randrange(span)`` after each event, kept as the reference."""
    starts, t = [], start_ns
    while t <= end_ns:
        starts.append(t)
        t += base_ns + rng.randrange(span)
    return starts


class CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls: one per ``randrange`` candidate."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def assert_same_draws(seed, start_ns, end_ns, base_ns, span):
    """Same starts and state, in no more blocks than the loop drew candidates.

    Every block holds a candidate the loop draws too, so a run that stops
    advancing fails at the first block past that bound instead of hanging.
    """
    bulk, loop = random.Random(seed), CountingRandom(seed)
    want = reference_starts(start_ns, end_ns, base_ns, span, loop)
    real_words, blocks = simkit._words, 0

    def words(rng, n):
        nonlocal blocks
        blocks += 1
        assert blocks <= loop.calls, "more blocks than the loop drew candidates"
        return real_words(rng, n)

    with mock.patch.object(simkit, "_words", words):
        got = _event_starts(start_ns, end_ns, base_ns, span, bulk)
    assert got.dtype == np.int64
    assert got.tolist() == want
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


# Blocks of 1-7 candidates reach, in short runs, a block cut by the cap, a
# block with no candidate below the span, a block past the first that ends
# before the run does, and the set-back at the end of the run.
BLOCKS = st.sampled_from([1, 2, 3, 7, _DRAW_BLOCK])


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    base_ns=st.one_of(st.integers(1, 1000), st.integers(1, 2**53)),
    span=SPANS,
    start_ns=st.integers(-(2**60), 2**60),
    periods=st.integers(-3, 1500),
    extra=st.floats(0.0, 1.0),
    block=BLOCKS,
)
def test_bulk_draws_match_the_randrange_loop(seed, base_ns, span, start_ns, periods, extra, block):
    period = base_ns + span // 2
    end_ns = min(start_ns + periods * period + int(extra * period), 2**62)
    with mock.patch.object(simkit, "_DRAW_BLOCK", block):
        assert_same_draws(seed, start_ns, end_ns, base_ns, span)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    base_ns=st.one_of(st.integers(1, 1000), st.integers(2**52, 2**53)),
    span=st.one_of(st.sampled_from([2**53 + 1, 2**54 - 1, 2**54]), st.integers(2**53, 2**54)),
    periods=st.integers(0, 40),
    gap=st.one_of(st.integers(0, 3), st.integers(0, 2**55)),
    block=BLOCKS,
)
def test_runs_ending_at_the_top_of_int64(seed, base_ns, span, periods, gap, block):
    """The last start lies within one step of 2**63 - 1, the step near 2**54.

    Blocks past the first may hold starts past the end of the run; none of
    them may pass 2**63 - 1 (they would wrap below the end).
    """
    top = base_ns + span - 1
    end_ns = INT64_MAX - gap % top
    start_ns = end_ns - periods * (base_ns + span // 2)
    with mock.patch.object(simkit, "_DRAW_BLOCK", block):
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


@pytest.mark.parametrize("block", [1, 3, 7, _DRAW_BLOCK])
def test_a_run_across_the_whole_int64_range(block):
    """From -2**63 to 2**63 - 1, where an uncapped block's running sum of steps passes 2**63."""
    for seed, base_ns, span in ((1, 2**53, 2**54), (2, 1, 2**54), (3, 2**52, 2**53 + 1)):
        with mock.patch.object(simkit, "_DRAW_BLOCK", block):
            assert_same_draws(seed, -(2**63), INT64_MAX, base_ns, span)


@pytest.mark.parametrize("seed", [0, 7, 11, 31])
def test_a_default_advertiser_takes_at_most_three_blocks(seed):
    """Blocks sized by the expected count, not by the count certain to be used."""
    with mock.patch.object(simkit, "_words", wraps=simkit._words) as spy:
        simulate_scenario(ExperimentConfig(), seed)
    blocks = {}
    for call in spy.call_args_list:
        rng = call.args[0]
        blocks[id(rng)] = blocks.get(id(rng), 0) + 1
    assert len(blocks) == ExperimentConfig().n_advertisers == 4
    assert max(blocks.values()) <= 3, blocks
