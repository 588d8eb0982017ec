"""Scan-window columns against the object layouts they replace.

The ``reference_*`` functions are the per-window loops every scanner
behavior used before windows became int64 columns: each built one
``ScanWindow`` (and two ``TimeInstant``) per window.  For any epochs,
seed and settings, a behavior's ``ScanWindows`` must hold the same
(start, end, channel) rows and leave the generator in the same state.
"""

import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel.core import (
    ADVERTISING_CHANNELS,
    APP_CLOCK,
    CH37,
    RADIO_CLOCK,
    AdvSettings,
    Channel,
    Duration,
    ScanSettings,
    TimeInstant,
    next_channel,
)
from blechannel import simkit
from blechannel.errors import ClockMismatchError
from blechannel.simkit import (
    BEHAVIOR_TAGS,
    AltInterval,
    BalancedOffset,
    ClockModel,
    Compliant,
    ContinueChannel,
    LossModel,
    NonStandardOrder,
    RapidToggle,
    ScanWindow,
    ScanWindows,
    behavior_from_tag,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
    substream,
)

_ALL_CHANNELS = tuple(Channel.of(c) for c in ADVERTISING_CHANNELS)


def _cycle(ch: Channel = CH37):
    while True:
        yield ch
        ch = next_channel(ch)


def _random_walk(rng: random.Random):
    ch = CH37
    while True:
        yield ch
        ch = rng.choice([c for c in _ALL_CHANNELS if c != ch])


def _cadence(start_ns, end_ns, interval_ns, window_ns, channels):
    return [
        ScanWindow(
            TimeInstant(ws, RADIO_CLOCK),
            TimeInstant(min(ws + window_ns, end_ns), RADIO_CLOCK),
            next(channels),
        )
        for ws in range(start_ns, end_ns, interval_ns)
    ]


def reference_compliant(self, settings, epochs, rng):
    own = self.effective_settings(settings)
    interval, window = own.scan_interval.ns, own.scan_window.ns
    out = []
    for start, end in epochs:
        out += _cadence(start.ns, end.ns, interval, window, _cycle())
    return out


def reference_balanced_offset(self, settings, epochs, rng):
    interval = settings.scan_interval.ns
    window = settings.scan_window.ns
    random_channels = iter(lambda: rng.choice(_ALL_CHANNELS), None)
    out = []
    for start, end in epochs:
        span = round(self.offset_factor * interval)
        settle_ns = min(start.ns + rng.randrange(span + 1), end.ns)
        out += _cadence(start.ns, settle_ns, interval, window, random_channels)
        out += _cadence(settle_ns, end.ns, interval, window, _cycle())
    return out


def reference_rapid_toggle(self, settings, epochs, rng):
    out = []
    for start, end in epochs:
        walk = _random_walk(rng)
        cursor = start.ns
        while cursor < end.ns:
            ch = next(walk)
            dur = rng.randrange(self.min_window.ns, self.max_window.ns + 1)
            we = min(cursor + dur, end.ns)
            out.append(
                ScanWindow(TimeInstant(cursor, RADIO_CLOCK), TimeInstant(we, RADIO_CLOCK), ch)
            )
            cursor = we
        next(walk)  # the channel after an epoch's last window is drawn too
    return out


def reference_nonstandard_order(self, settings, epochs, rng):
    interval = settings.scan_interval.ns
    walk = _random_walk(rng)
    out = []
    for start, end in epochs:
        out += _cadence(start.ns, end.ns, interval, interval, walk)
    return out


def reference_continue_channel(self, settings, epochs, rng):
    interval = settings.scan_interval.ns
    window = settings.scan_window.ns
    out = []
    ch = CH37
    for start, end in epochs:
        made = _cadence(start.ns, end.ns, interval, window, _cycle(ch))
        out += made
        if made:
            last = made[-1]
            cut_short = last.end.ns == end.ns and last.duration.ns < window
            ch = last.channel if cut_short else next_channel(last.channel)
    return out


REFERENCES = {
    "compliant": reference_compliant,
    "balanced-offset": reference_balanced_offset,
    "alt-interval": reference_compliant,
    "rapid-toggle": reference_rapid_toggle,
    "nonstandard-order": reference_nonstandard_order,
    "continue-channel": reference_continue_channel,
}


def epochs_ns(*bounds):
    return [(TimeInstant(a, RADIO_CLOCK), TimeInstant(b, RADIO_CLOCK)) for a, b in bounds]


def rows(windows):
    return [(w.start.ns, w.end.ns, w.channel.id) for w in windows]


def test_every_behavior_has_a_reference():
    assert set(REFERENCES) == set(BEHAVIOR_TAGS)


MS = st.integers(1, 3_000).map(lambda v: v * 1_000_000)
# Window spreads below 2**32 ns take one word per randrange candidate, above
# it two; 1 ns windows (a spread of one) still reject half of their words.
WIDE = st.one_of(st.integers(1, 64), MS, st.integers(2**32 - 2, 2**33 + 2), st.integers(1, 2**62))


@st.composite
def scanners(draw, tag):
    """A behavior of ``tag`` with drawn parameters, and drawn requested settings."""
    if tag == "alt-interval":
        interval = draw(MS)
        behavior = AltInterval(Duration(interval), Duration(draw(st.integers(1, interval))))
    elif tag == "rapid-toggle":
        lo = draw(st.one_of(st.integers(1, 64), MS))
        behavior = RapidToggle(Duration(lo), Duration(lo + draw(WIDE) - 1))
    elif tag == "balanced-offset":
        behavior = BalancedOffset(draw(st.floats(min_value=0.0, max_value=4.0)))
    else:
        behavior = behavior_from_tag(tag)
    interval = draw(MS)
    window = draw(st.integers(1, interval))
    return behavior, ScanSettings(Duration(interval), Duration(window))


@st.composite
def epoch_lists(draw, max_ns):
    """Up to 40 epochs over up to ``max_ns``, empty and short ones included.

    Some draws cut the epochs at a horizon as gen_scan_windows does: an epoch
    that starts past it ends there, before its start.
    """
    edges = sorted(draw(st.lists(st.integers(0, max_ns), max_size=41)))
    horizon = draw(st.one_of(st.just(max_ns), st.integers(0, max_ns)))
    return epochs_ns(*[(a, min(b, horizon)) for a, b in zip(edges, edges[1:])])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tag=st.sampled_from(sorted(BEHAVIOR_TAGS)), seed=st.integers(0, 2**32))
def test_window_columns_equal_the_object_layout(data, tag, seed):
    behavior, requested = data.draw(scanners(tag))
    # at most about 3000 windows, enough for several blocks of rapid-toggle words
    epochs = data.draw(epoch_lists(min(40 * 10**9, 3000 * behavior.min_gap_ns(requested))))
    rng, ref_rng = substream(seed, "scan"), substream(seed, "scan")
    got = behavior.windows(requested, epochs, rng)
    assert isinstance(got, ScanWindows)
    assert [c.dtype.name for c in (got.start_ns, got.end_ns, got.channel)] == ["int64"] * 3
    want = REFERENCES[tag](behavior, requested, epochs, ref_rng)
    assert list(zip(got.start_ns.tolist(), got.end_ns.tolist(), got.channel.tolist())) == rows(want)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


@st.composite
def short_epoch_lists(draw, one_window_ns, most_ns):
    """1-8 epochs, each empty (ending at or before its start), shorter than
    ``one_window_ns`` (one window) or up to ``most_ns`` long, with gaps."""
    epochs, t = [], draw(st.integers(0, 10**12))
    for _ in range(draw(st.integers(1, 8))):
        span = draw(
            st.one_of(
                st.integers(-5, 0), st.integers(1, one_window_ns), st.integers(1, most_ns)
            )
        )
        epochs.append((t, t + span))
        t += max(span, 0) + draw(st.integers(0, 10**9))
    return epochs_ns(*epochs)


IGNORED = ScanSettings(Duration(10**8), Duration(10**8))  # rapid-toggle keeps its own timing
# Blocks of as few as 8 words, so windows run across many blocks, and the
# default block size.
BLOCKS = st.sampled_from([8, 64, simkit._DRAW_BLOCK])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bits=st.integers(1, 55), seed=st.integers(0, 2**32), block=BLOCKS)
def test_rapid_toggle_draws_in_bulk_as_the_loop_does(data, bits, seed, block):
    # a window spread of exactly ``bits`` bits: one-word draws up to 32, two above
    spread = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    lo = data.draw(st.one_of(st.integers(1, 64), MS))
    behavior = RapidToggle(Duration(lo), Duration(lo + spread - 1))
    # about 150 windows at most per epoch, and 8 epochs well inside int64
    epochs = data.draw(short_epoch_lists(lo, min(150 * (lo + spread // 2), 2**59)))
    rng, ref_rng = substream(seed, "scan"), substream(seed, "scan")
    with mock.patch.object(simkit, "_DRAW_BLOCK", block):
        got = behavior.windows(IGNORED, epochs, rng)
    want = reference_rapid_toggle(behavior, IGNORED, epochs, ref_rng)
    assert list(zip(got.start_ns.tolist(), got.end_ns.tolist(), got.channel.tolist())) == rows(
        want
    )
    assert got.channel.dtype == np.int64
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), block=BLOCKS)
def test_nonstandard_order_draws_its_walk_in_bulk_as_the_loop_does(data, seed, block):
    interval = data.draw(st.one_of(st.integers(1, 64), MS))
    requested = ScanSettings(Duration(interval), Duration(interval))
    epochs = data.draw(short_epoch_lists(interval, 600 * interval))
    rng, ref_rng = substream(seed, "scan"), substream(seed, "scan")
    with mock.patch.object(simkit, "_DRAW_BLOCK", block):
        got = NonStandardOrder().windows(requested, epochs, rng)
    want = reference_nonstandard_order(NonStandardOrder(), requested, epochs, ref_rng)
    assert list(zip(got.start_ns.tolist(), got.end_ns.tolist(), got.channel.tolist())) == rows(
        want
    )
    assert rng.getstate() == ref_rng.getstate()


def test_a_hundred_thousand_restarts_take_one_pass():
    """Restarts every 6 ms over 600 s; each epoch holds a full window and a short one."""
    scan = ScanSettings(Duration(4_000_000), Duration(2_500_000))
    restarts = [TimeInstant(ns, RADIO_CLOCK) for ns in range(0, 600 * 10**9, 6_000_000)]
    end = TimeInstant(600 * 10**9, RADIO_CLOCK)
    epochs = list(zip(restarts, restarts[1:] + [end]))
    assert len(epochs) == 100_000
    for behavior in (Compliant(), ContinueChannel()):
        got = gen_scan_windows(behavior, scan, restarts, end, substream(1, "scan"))
        want = rows(REFERENCES[behavior.tag](behavior, scan, epochs, substream(1, "scan")))
        assert list(zip(got.start_ns.tolist(), got.end_ns.tolist(), got.channel.tolist())) == want
    elapsed = []
    for _ in range(3):
        started = time.perf_counter()
        gen_scan_windows(Compliant(), scan, restarts, end, substream(1, "scan"))
        elapsed.append(time.perf_counter() - started)
    assert min(elapsed) < 1.0


@settings(max_examples=30, deadline=None)
@given(tag=st.sampled_from(sorted(BEHAVIOR_TAGS)), seed=st.integers(0, 2**32))
def test_reception_reads_a_view_as_its_window_list(tag, seed):
    behavior = behavior_from_tag(tag)
    scan = ScanSettings(Duration.from_seconds(1.0), Duration.from_seconds(0.5))
    epochs = epochs_ns((0, 7 * 10**9), (7 * 10**9, 20 * 10**9))
    view = behavior.windows(scan, epochs, substream(seed, "scan"))
    events = gen_advertising(
        AdvSettings(Duration.from_seconds(0.1)),
        "d",
        TimeInstant(0, RADIO_CLOCK),
        TimeInstant(20 * 10**9, RADIO_CLOCK),
        substream(seed, "adv"),
    )
    restarts = [start for start, _ in epochs]
    clock, loss = ClockModel(2e-4, (0.0, 0.01)), LossModel(0.1)
    from_view = simulate_reception(events, view, restarts, clock, loss, substream(seed, "rx"))
    shuffled = list(view)  # reception sorts the windows by start
    random.Random(seed).shuffle(shuffled)
    from_list = simulate_reception(events, shuffled, restarts, clock, loss, substream(seed, "rx"))
    for col in ("recv_ns", "device", "channel", "window_index"):
        assert getattr(from_view, col).tolist() == getattr(from_list, col).tolist()
    assert from_view == from_list


def test_of_takes_windows_and_views_in_order():
    ch = {c.id: c for c in _ALL_CHANNELS}
    one = ScanWindow(TimeInstant(0, RADIO_CLOCK), TimeInstant(5, RADIO_CLOCK), ch[38])
    two = ScanWindow(TimeInstant(5, RADIO_CLOCK), TimeInstant(9, RADIO_CLOCK), ch[39])
    both = ScanWindows.of([one, two])
    assert rows(both) == [(0, 5, 38), (5, 9, 39)]
    assert ScanWindows.of(both) is both
    assert len(ScanWindows.of([])) == 0
    app = ScanWindow(TimeInstant(0, APP_CLOCK), TimeInstant(5, APP_CLOCK), ch[37])
    with pytest.raises(ClockMismatchError):
        ScanWindows.of([one, app])
