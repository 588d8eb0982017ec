"""Property tests of the columnar int64 core against plain references.

``reference_reception`` is the per-beacon loop the simulator used before
it moved to numpy columns; the columnar ``simulate_reception`` must give
the same packets, in the same order, with the same window indexes, and
leave the random stream in the same state.  The classifier kernel is
checked against slot enumeration by integer division.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel.core import APP_CLOCK, RADIO_CLOCK, AdvSettings, Channel, Duration, TimeInstant
from blechannel.core import ScanSettings, preset_settings, radio_instant
from blechannel.detector import (
    CHANNEL,
    GUARD,
    KINDS,
    PRE_START,
    DetectorConfig,
    _slot_rule,
    classify_ns,
    classify_time,
    classify_trace,
)
from blechannel.errors import ConfigError
from blechannel.simkit import (
    BEHAVIOR_TAGS,
    INTER_BEACON_GAP,
    AdvertisingEvent,
    AdvertisingEvents,
    ClockModel,
    LossModel,
    PacketRecord,
    Packets,
    ScanWindow,
    behavior_from_tag,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
    substream,
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def reference_reception(events, windows, restarts, clock, loss, rng):
    """The per-beacon matching loop, kept as the reference."""
    if any(w.start.ns < restarts[0].ns for w in windows):
        raise ConfigError("scan windows must not open before the first restart")
    beacons = []
    for ev in events:
        for t, ch in ev.beacons():
            beacons.append((t.ns, ch, ev.device_id))
    beacons.sort(key=lambda b: b[0])
    windows = sorted(windows, key=lambda w: w.start.ns)
    restart_ns = [r.ns for r in restarts]
    jitters = [clock.draw_jitter(rng).ns for _ in restart_ns]
    received = []
    wi = 0
    for t, ch, dev in beacons:
        while wi < len(windows) and windows[wi].end.ns <= t:
            wi += 1
        if wi == len(windows):
            break
        w = windows[wi]
        if w.start.ns <= t and w.channel == ch:
            if loss.drops(rng):
                continue
            epoch = bisect_right(restart_ns, t) - 1
            app_ns = round(t / (1.0 + clock.drift_rate)) + jitters[epoch]
            received.append(
                PacketRecord(TimeInstant(app_ns, APP_CLOCK), dev, ch, window_index=wi)
            )
    received.sort(key=lambda p: p.recv.ns)
    return received


@st.composite
def scenarios(draw):
    """A short capture: devices, scan windows and restarts on the radio clock."""
    end_ns = draw(st.integers(min_value=1, max_value=30)) * 1_000_000_000
    later = st.sets(st.integers(min_value=1, max_value=end_ns - 1), max_size=3)
    restarts = sorted(draw(later) | {0})
    modes = ["SCAN_MODE_LOW_LATENCY", "SCAN_MODE_BALANCED", "SCAN_MODE_LOW_POWER"]
    scan = preset_settings(draw(st.sampled_from(modes)))
    behavior = behavior_from_tag(
        draw(st.sampled_from(sorted(BEHAVIOR_TAGS))), alt_interval=Duration.from_seconds(1.5)
    )
    seed = draw(st.integers(min_value=0, max_value=2**32))
    restart_instants = [TimeInstant(ns, RADIO_CLOCK) for ns in restarts]
    end = TimeInstant(end_ns, RADIO_CLOCK)
    windows = gen_scan_windows(behavior, scan, restart_instants, end, substream(seed, "scan"))

    # Devices in lockstep (no random delay, one shared start) put beacons of
    # different devices at the same instant.
    lockstep = draw(st.booleans())
    adv = AdvSettings(
        Duration.from_seconds(draw(st.sampled_from([0.02, 0.1, 0.25]))),
        rho_max=Duration(0) if lockstep else Duration.from_seconds(0.01),
    )
    channel_sets = st.sampled_from([(37, 38, 39), (39, 37), (38,), (37, 37, 38)])
    views = []
    for d in range(draw(st.integers(min_value=1, max_value=6))):
        start = 0 if lockstep else draw(st.integers(min_value=0, max_value=300_000_000))
        channels = tuple(Channel.of(c) for c in draw(channel_sets))
        rng = substream(seed, f"adv:{d}")
        views.append(
            gen_advertising(
                adv, f"dev{d}", TimeInstant(start, RADIO_CLOCK), end, rng, channels
            )
        )
    clock = ClockModel(
        drift_rate=draw(st.sampled_from([0.0, 5e-5, -2e-3, 1e-2])),
        jitter_range=draw(st.sampled_from([(0.0, 0.0), (0.0, 0.05), (0.01, 0.02)])),
    )
    loss = LossModel(draw(st.sampled_from([0.0, 0.3])))
    return views, windows, restart_instants, clock, loss, seed


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_columnar_reception_matches_the_per_beacon_loop(scenario):
    views, windows, restarts, clock, loss, seed = scenario
    events = [ev for view in views for ev in view]
    ref_rng, rng, list_rng = (substream(seed, "rx") for _ in range(3))
    expected = reference_reception(events, windows, restarts, clock, loss, ref_rng)
    got = simulate_reception(AdvertisingEvents.of(views), windows, restarts, clock, loss, rng)
    assert list(got) == expected
    # a plain list of event objects goes through the same columns
    from_list = simulate_reception(events, windows, restarts, clock, loss, list_rng)
    assert list(from_list) == expected
    # the same number of draws was taken from the stream
    assert rng.random() == ref_rng.random() == list_rng.random()


def assert_same_reception(events, windows, restarts, clock, loss, seed):
    """Columns, from a view and from a list, equal the loop; so does the final rng state."""
    ref_rng, rng, list_rng = (substream(seed, "rx") for _ in range(3))
    expected = reference_reception(events, windows, restarts, clock, loss, ref_rng)
    got = simulate_reception(AdvertisingEvents.of(events), windows, restarts, clock, loss, rng)
    assert list(got) == expected
    assert list(simulate_reception(events, windows, restarts, clock, loss, list_rng)) == expected
    assert rng.getstate() == ref_rng.getstate() == list_rng.getstate()
    return expected


GAP = INTER_BEACON_GAP.ns
CH = {c: Channel.of(c) for c in (37, 38, 39)}


@st.composite
def short_windows(draw):
    """Windows of 0.1-2 ms, shorter than a beacon burst; many touch the one before."""
    windows, cursor = [], draw(st.integers(min_value=0, max_value=2_000_000))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        cursor += draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=2_000_000)))
        end = cursor + draw(st.integers(min_value=100_000, max_value=2_000_000))
        channel = CH[draw(st.sampled_from(sorted(CH)))]
        span = TimeInstant(cursor, RADIO_CLOCK), TimeInstant(end, RADIO_CLOCK)
        windows.append(ScanWindow(*span, channel))
        cursor = end
    return draw(st.permutations(windows))


@st.composite
def edge_events(draw, windows, horizon):
    """Events that often put a beacon exactly on a window start or end."""
    edges = sorted({w.start.ns for w in windows} | {w.end.ns for w in windows})
    on_edge = st.tuples(st.sampled_from(edges), st.integers(min_value=0, max_value=2))
    starts = st.integers(min_value=0, max_value=horizon)
    if edges:
        starts = st.one_of(on_edge.map(lambda e: max(e[0] - e[1] * GAP, 0)), starts)
    channel_sets = st.sampled_from([(37, 38, 39), (39, 37), (38,), (37, 37, 38)])
    return [
        AdvertisingEvent(
            TimeInstant(draw(starts), RADIO_CLOCK),
            f"dev{draw(st.integers(min_value=0, max_value=3))}",
            tuple(CH[c] for c in draw(channel_sets)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=30)))
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reception_on_windows_shorter_than_a_burst_matches_the_loop(data):
    windows = data.draw(short_windows())
    horizon = max((w.end.ns for w in windows), default=0) + 2_000_000
    events = data.draw(edge_events(windows, horizon))
    later = data.draw(st.sets(st.integers(min_value=1, max_value=horizon), max_size=2))
    restarts = [TimeInstant(ns, RADIO_CLOCK) for ns in sorted(later | {0})]
    clock = ClockModel(
        drift_rate=data.draw(st.sampled_from([0.0, 5e-5])),
        jitter_range=data.draw(st.sampled_from([(0.0, 0.0), (0.0, 0.001)])),
    )
    loss = LossModel(data.draw(st.sampled_from([0.0, 0.3])))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    assert_same_reception(events, windows, restarts, clock, loss, seed)


@settings(max_examples=40, deadline=None)
@given(
    jitter_ms=st.lists(st.integers(0, 600), min_size=2, max_size=2).map(sorted),
    restart_every_ms=st.integers(50, 6000),
    loss=st.sampled_from([0.0, 0.1, 0.5]),
    tag=st.sampled_from(sorted(BEHAVIOR_TAGS)),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_reception_equals_sorting_by_app_time(jitter_ms, restart_every_ms, loss, tag, seed):
    # the loop sorts every capture by app time; reception sorts only where an
    # epoch's latency lets its first packets overtake the epoch before
    end_ns = 8 * 10**9
    restarts = [
        TimeInstant(ns, RADIO_CLOCK) for ns in range(0, end_ns, restart_every_ms * 1_000_000)
    ]
    end = TimeInstant(end_ns, RADIO_CLOCK)
    behavior = behavior_from_tag(tag, alt_interval=Duration.from_seconds(1.5))
    scan = preset_settings("SCAN_MODE_LOW_LATENCY")
    windows = gen_scan_windows(behavior, scan, restarts, end, substream(seed, "scan"))
    every_100ms = AdvSettings(Duration.from_seconds(0.1))
    events = [
        ev
        for d in range(2)
        for ev in gen_advertising(every_100ms, f"dev{d}", restarts[0], end, substream(seed, f"{d}"))
    ]
    clock = ClockModel(5e-5, (jitter_ms[0] / 1000, jitter_ms[1] / 1000))
    assert_same_reception(events, windows, restarts, clock, LossModel(loss), seed)


def test_reception_sorts_only_where_a_later_epoch_overtakes():
    # Restarts every 1 s with 0-0.5 s of latency: an epoch whose latency is
    # well below the one before delivers its first packets before that
    # epoch's last, so sorting by app time breaks window order.  Without
    # latency the caught beacons are in app order as caught, in window order.
    end = radio_instant(10.0)
    restarts = [radio_instant(float(s)) for s in range(10)]
    scan = preset_settings("SCAN_MODE_LOW_LATENCY")
    compliant = behavior_from_tag("compliant")
    windows = gen_scan_windows(compliant, scan, restarts, end, substream(1, "scan"))
    every_50ms = AdvSettings(Duration.from_seconds(0.05))
    events = list(gen_advertising(every_50ms, "d", restarts[0], end, substream(1, "adv")))
    for jitter, overtakes in (((0.0, 0.5), True), ((0.0, 0.0), False)):
        clock = ClockModel(jitter_range=jitter)
        packets = assert_same_reception(events, windows, restarts, clock, LossModel(), 1)
        in_order = [p.window_index for p in packets]
        assert (in_order != sorted(in_order)) is overtakes


def test_reception_of_no_events_draws_only_the_latencies():
    window = ScanWindow(radio_instant(0.0), radio_instant(1.0), CH[37])
    restarts = [radio_instant(0.0), radio_instant(0.5)]
    clock, loss = ClockModel(jitter_range=(0.0, 0.05)), LossModel(0.3)
    assert assert_same_reception([], [window], restarts, clock, loss, 3) == []


def test_reception_without_windows_catches_nothing():
    every_100ms = AdvSettings(Duration.from_seconds(0.1))
    view = gen_advertising(every_100ms, "d", radio_instant(0), radio_instant(1), substream(1, "a"))
    events = list(view)
    clock, loss = ClockModel(jitter_range=(0.0, 0.05)), LossModel(0.3)
    assert assert_same_reception(events, [], [radio_instant(0.0)], clock, loss, 3) == []


def test_one_and_three_channel_devices_in_lockstep_tie_in_event_order():
    # "three" sends 37, 38, 39; "one" sends 37 with it and "late" sends 38
    # one gap later, so every caught beacon ties with another device's.  A
    # tie keeps event order, though "late" sends from an earlier slot.
    every_100ms = AdvSettings(Duration.from_seconds(0.1), rho_max=Duration(0))
    end = radio_instant(0.55)
    views = [
        gen_advertising(every_100ms, dev, start, end, substream(1, dev), channels)
        for dev, start, channels in [
            ("three", radio_instant(0), (CH[37], CH[38], CH[39])),
            ("one", radio_instant(0), (CH[37],)),
            ("late", TimeInstant(GAP, RADIO_CLOCK), (CH[38],)),
        ]
    ]
    events = [ev for view in views for ev in view]
    windows = [
        ScanWindow(radio_instant(m / 10), radio_instant((m + 1) / 10), CH[37 + m % 2])
        for m in range(6)
    ]
    start = [radio_instant(0.0)]
    packets = assert_same_reception(events, windows, start, ClockModel(), LossModel(), 5)
    assert [p.device_id for p in packets] == ["three", "one", "three", "late"] * 3
    assert [p.recv.ns for p in packets[:4]] == [0, 0, 100_000_000 + GAP, 100_000_000 + GAP]
    lossy = LossModel(0.5)
    assert_same_reception(events, windows, start, ClockModel(jitter_range=(0.0, 0.01)), lossy, 5)


def receive(events, windows):
    start = [radio_instant(0.0)]
    return simulate_reception(events, windows, start, ClockModel(), LossModel(), substream(1, "rx"))


def test_lockstep_devices_keep_event_order_on_ties():
    ch37 = Channel.of(37)
    every_100ms = AdvSettings(Duration.from_seconds(0.1), rho_max=Duration(0))
    start, end = radio_instant(0), radio_instant(0.35)
    events = [
        gen_advertising(every_100ms, d, start, end, substream(1, d), (ch37,)) for d in "bac"
    ]
    window = ScanWindow(radio_instant(0.0), radio_instant(1.0), ch37)
    packets = receive(AdvertisingEvents.of(events), [window])
    assert [p.device_id for p in packets] == ["b", "a", "c"] * 4
    assert [p.recv.ns for p in packets[:3]] == [0, 0, 0]


def test_overlapping_windows_are_a_config_error():
    ch37, ch38 = Channel.of(37), Channel.of(38)
    settings = AdvSettings(Duration.from_seconds(0.1))
    events = gen_advertising(settings, "d", radio_instant(0), radio_instant(3), substream(1, "a"))
    first = ScanWindow(radio_instant(0.0), radio_instant(2.0), ch37)
    with pytest.raises(ConfigError, match="overlap"):
        receive(events, [first, ScanWindow(radio_instant(1.5), radio_instant(3.0), ch38)])
    # windows that only touch do not overlap
    packets = receive(events, [first, ScanWindow(radio_instant(2.0), radio_instant(3.0), ch38)])
    assert {p.window_index for p in packets} == {0, 1}


def test_a_window_before_the_first_restart_is_refused_before_any_draw():
    # A beacon it caught would belong to no epoch (it once took the last
    # epoch's latency).
    event = AdvertisingEvent(radio_instant(0.5), "d", (CH[37],))
    window = [ScanWindow(radio_instant(0.0), radio_instant(3.0), CH[37])]
    restarts = [radio_instant(1.0), radio_instant(2.0)]
    clock = ClockModel(jitter_range=(0.0, 0.05))
    message = "^scan windows must not open before the first restart$"
    for receive_with in (simulate_reception, reference_reception):
        rng = substream(1, "rx")
        state = rng.getstate()
        with pytest.raises(ConfigError, match=message):
            receive_with([event], window, restarts, clock, LossModel(), rng)
        assert rng.getstate() == state
    # opening on the first restart is fine
    window = [ScanWindow(radio_instant(1.0), radio_instant(3.0), CH[37])]
    assert assert_same_reception([event], window, restarts, clock, LossModel(), 1) == []


BOTTOM, TOP = -(2**63), 2**63 - 1


def bottom_window(start_ms, end_ms, channel):
    return ScanWindow(
        TimeInstant(BOTTOM + start_ms * 1_000_000, RADIO_CLOCK),
        TimeInstant(BOTTOM + end_ms * 1_000_000, RADIO_CLOCK),
        CH[channel],
    )


def test_reception_refuses_a_beacon_past_int64_before_any_draw():
    # the second beacon would go out at 2**63 + 399_899 ns, which int64 wraps
    # into the window at the bottom of the range
    late = TimeInstant(TOP - 100, RADIO_CLOCK)
    window = [bottom_window(0, 2, 38)]
    start = [TimeInstant(BOTTOM, RADIO_CLOCK)]
    rng = substream(1, "rx")
    state = rng.getstate()
    event = AdvertisingEvent(late, "d", (CH[37], CH[38]))
    message = "^advertising beacons must stay within the int64 ns range$"
    with pytest.raises(ConfigError, match=message):
        simulate_reception([event], window, start, ClockModel(), LossModel(0.3), rng)
    assert rng.getstate() == state
    # one beacon at the same instant stays in range
    alone = AdvertisingEvent(late, "d", (CH[38],))
    assert assert_same_reception([alone], window, start, ClockModel(), LossModel(), 1) == []


def test_reception_at_the_int64_bottom_matches_the_loop():
    # Windows from the first int64 ns, on channels each list sends in a later
    # slot too, so a window start less a slot's offset would pass the bottom.
    windows = [bottom_window(0, 1, 38), bottom_window(1, 3, 39), bottom_window(3, 9, 37)]
    lists = [tuple(CH[c] for c in chs) for chs in [(37, 38, 39), (39, 37), (38,), (37, 37, 38)]]
    events = [
        AdvertisingEvent(TimeInstant(BOTTOM + offset, RADIO_CLOCK), f"dev{d}", chs)
        for offset in (0, 1, GAP - 1, GAP, 700_000, 2_000_000, 8_999_999)
        for d, chs in enumerate(lists)
    ]
    start = [TimeInstant(BOTTOM, RADIO_CLOCK)]
    for chosen in ([ev for ev in events if ev.channels == lists[0]], events):
        packets = assert_same_reception(chosen, windows, start, ClockModel(), LossModel(), 2)
        assert {p.window_index for p in packets} == {0, 1, 2}
        assert_same_reception(chosen, windows, start, ClockModel(), LossModel(0.3), 2)


def division_oracle(t, starts, interval, guard):
    """(kind, slot, rem, anchor) by enumerating the slot with Python ints."""
    i = bisect_right(starts, t) - 1
    if i < 0:
        return PRE_START, 0, 0, 0
    slot, rem = divmod(t - starts[i], interval)
    inside = guard <= 2 * rem <= 2 * interval - guard
    return (CHANNEL if inside else GUARD), slot, rem, i


@st.composite
def interval_and_guard(draw):
    interval = draw(st.integers(min_value=2, max_value=10**13))
    guard = draw(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=(interval - 2) // 2).map(lambda k: 2 * k + 1),
            st.integers(min_value=0, max_value=interval - 1),
        )
    )
    return interval, guard


@settings(max_examples=300, deadline=None)
@given(
    recv=st.lists(INT64, max_size=60),
    restarts=st.lists(INT64, min_size=1, max_size=8, unique=True),
    timing=interval_and_guard(),
)
def test_kernel_matches_the_division_oracle(recv, restarts, timing):
    interval, guard = timing
    columns = classify_ns(recv, restarts, interval, guard)
    starts = sorted(restarts)
    expected = [division_oracle(t, starts, interval, guard) for t in recv]
    assert list(zip(*(c.tolist() for c in columns))) == expected


@settings(max_examples=100, deadline=None)
@given(
    recv=st.lists(st.integers(min_value=-(10**12), max_value=10**13), max_size=30),
    restarts=st.lists(
        st.integers(min_value=0, max_value=10**13), min_size=1, max_size=8, unique=True
    ),
    guard_ms=st.integers(min_value=0, max_value=4095),
)
def test_classify_trace_items_match_classify_time(recv, restarts, guard_ms):
    scan = ScanSettings(Duration(4_096_000_000), Duration(4_096_000_000))
    config = DetectorConfig(scan_settings=scan, guard=Duration(guard_ms * 1_000_000 + 1))
    packets = [PacketRecord(TimeInstant(ns, APP_CLOCK), "d", None) for ns in recv]
    anchors = [TimeInstant(ns, APP_CLOCK) for ns in restarts]
    for given_packets in (packets, Packets.of(packets)):
        classified = classify_trace(given_packets, anchors, config)
        assert len(classified) == len(packets)
        for cp, p in zip(classified, packets):
            assert cp.packet == p
            assert cp.result == classify_time(p.recv, cp.anchor, config)
        assert classified.labels() == tuple(cp.result.label for cp in classified)
        assert [KINDS[k] for k in classified.kind] == [cp.result.kind for cp in classified]


@st.composite
def any_interval_and_guard(draw):
    """Any interval DetectorConfig takes (2 to 2**63 - 1 ns) and a guard below it."""
    interval = draw(st.one_of(st.integers(2, 64), st.integers(2, 2**63 - 1)))
    guard = draw(st.one_of(st.just(0), st.just(interval - 1), st.integers(0, interval - 1)))
    return interval, guard


@settings(max_examples=300, deadline=None)
@given(delta=st.lists(st.integers(0, 2**64 - 1), max_size=40), timing=any_interval_and_guard())
def test_slot_rule_gives_divmod_for_ints_and_uint64(delta, timing):
    interval, guard = timing
    want = [divmod(d, interval) for d in delta]
    edge = [2 * rem < guard or 2 * rem > 2 * interval - guard for _, rem in want]
    args = np.array(delta, np.uint64), np.uint64(interval), np.uint64(guard)
    slot, rem, guarded = _slot_rule(*args)
    assert [slot.dtype, rem.dtype] == [np.uint64, np.uint64]
    assert list(zip(slot.tolist(), rem.tolist(), guarded.tolist())) == [
        (s, r, g) for (s, r), g in zip(want, edge)
    ]
    assert [_slot_rule(d, interval, guard) for d in delta] == [
        (s, r, g) for (s, r), g in zip(want, edge)
    ]


@settings(max_examples=200, deadline=None)
@given(
    recv=st.lists(INT64, max_size=60),
    restarts=st.lists(INT64, min_size=1, max_size=8, unique=True),
    timing=any_interval_and_guard(),
    data=st.data(),
)
def test_kernel_labels_and_outcomes_at_any_interval(recv, restarts, timing, data):
    # restarts in any order, packets before every restart among them
    interval, guard = timing
    starts = sorted(restarts)
    expected = [division_oracle(t, starts, interval, guard) for t in recv]
    columns = classify_ns(recv, restarts, interval, guard)
    assert list(zip(*(c.tolist() for c in columns))) == expected
    ids = st.sampled_from([0, 37, 38, 39])
    truth = data.draw(st.lists(ids, min_size=len(recv), max_size=len(recv)))
    packets = [PacketRecord(TimeInstant(t, APP_CLOCK), "d", CH.get(c)) for t, c in zip(recv, truth)]
    anchors = [TimeInstant(ns, APP_CLOCK) for ns in restarts]
    config = DetectorConfig(ScanSettings(Duration(interval), Duration(interval)), Duration(guard))
    classified = classify_trace(packets, anchors, config)
    codes = [slot % 3 if kind == CHANNEL else kind + 2 for kind, slot, _, _ in expected]
    assert classified.labels().code.tolist() == codes
    judged = [
        int(37 + slot % 3 == c) if kind == CHANNEL and c else -1
        for (kind, slot, _, _), c in zip(expected, truth)
    ]
    assert classified.outcomes(np.array(truth, np.int64)).tolist() == judged


def test_kernel_needs_a_restart():
    with pytest.raises(ConfigError):
        classify_ns([1, 2], [], 4, 0)
