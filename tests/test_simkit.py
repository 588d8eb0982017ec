import math
import time
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blechannel.core import (
    RADIO_CLOCK,
    AdvSettings,
    Channel,
    Duration,
    ScanSettings,
    TimeInstant,
    app_instant,
    preset_settings,
    radio_instant,
)
from blechannel.errors import ClockMismatchError, ConfigError
from blechannel.ranging import RadioLink, friis_rx_power
from blechannel.simkit import (
    BEHAVIOR_TAGS,
    INTER_BEACON_GAP,
    AdvertisingEvent,
    AdvertisingEvents,
    AltInterval,
    BalancedOffset,
    ClockModel,
    Compliant,
    ContinueChannel,
    LossModel,
    NonStandardOrder,
    RapidToggle,
    RssiModel,
    _TOGGLE_BLOCK,
    app_anchor_times,
    attach_rssi,
    behavior_from_tag,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
    substream,
)

LOW_LATENCY = preset_settings("SCAN_MODE_LOW_LATENCY")
BALANCED = preset_settings("SCAN_MODE_BALANCED")


def epochs_s(*bounds):
    return [(radio_instant(a), radio_instant(b)) for a, b in bounds]


def test_substream_is_deterministic_and_tag_sensitive():
    a = substream(1, "x")
    b = substream(1, "x")
    c = substream(1, "y")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]


def test_gen_advertising_spacing_and_span():
    settings = AdvSettings(Duration.from_seconds(0.1))
    events = gen_advertising(
        settings, "dev", radio_instant(0.0), radio_instant(10.0), substream(3, "adv")
    )
    assert events[0].start.ns == 0
    assert events[-1].start.ns <= 10_000_000_000
    gaps = [b.start.ns - a.start.ns for a, b in zip(events, events[1:])]
    assert all(100_000_000 <= g <= 110_000_000 for g in gaps)
    # jitter actually exercises the range rather than sticking to one end
    assert min(gaps) < 102_000_000 and max(gaps) > 108_000_000


def test_gen_advertising_is_deterministic():
    settings = AdvSettings(Duration.from_seconds(0.25))
    one = gen_advertising(settings, "d", radio_instant(0), radio_instant(30), substream(9, "a"))
    two = gen_advertising(settings, "d", radio_instant(0), radio_instant(30), substream(9, "a"))
    assert one == two


def test_gen_advertising_rejects_app_clock_and_empty_channels():
    settings = AdvSettings(Duration.from_seconds(0.1))
    with pytest.raises(ClockMismatchError):
        gen_advertising(settings, "d", app_instant(0), radio_instant(1), substream(1, "a"))
    with pytest.raises(ConfigError):
        gen_advertising(
            settings, "d", radio_instant(0), radio_instant(1), substream(1, "a"), channels=()
        )
    with pytest.raises(ClockMismatchError):
        AdvertisingEvents.of([AdvertisingEvent(app_instant(0), "d")])


def test_instants_past_int64_are_refused_at_once():
    settings = AdvSettings(Duration.from_seconds(0.1))
    top = 2**63 - 1
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="int64"):
        gen_advertising(
            settings, "d", TimeInstant(2**63 - 10**9, RADIO_CLOCK),
            TimeInstant(2**63 + 10**9, RADIO_CLOCK), substream(1, "a"),
        )
    # the last event may start at the end; its third beacon would pass 2**63 - 1
    with pytest.raises(ConfigError, match="int64"):
        gen_advertising(
            settings, "d", TimeInstant(top - 10**9, RADIO_CLOCK),
            TimeInstant(top - INTER_BEACON_GAP.ns, RADIO_CLOCK), substream(1, "a"),
        )
    with pytest.raises(ConfigError, match="int64"):
        gen_scan_windows(
            Compliant(), LOW_LATENCY, [TimeInstant(2**63 - 10**9, RADIO_CLOCK)],
            TimeInstant(2**63 + 10**9, RADIO_CLOCK), substream(1, "w"),
        )
    with pytest.raises(ConfigError, match="int64"):
        gen_scan_windows(
            Compliant(), LOW_LATENCY, [TimeInstant(-(2**62), RADIO_CLOCK)],
            TimeInstant(2**62, RADIO_CLOCK), substream(1, "w"),
        )
    assert time.perf_counter() - started < 0.5
    # up to 2**63 - 1 itself, and a window cut short there does not wrap
    last = top - 2 * INTER_BEACON_GAP.ns
    events = gen_advertising(
        settings, "d", TimeInstant(last - 10**9, RADIO_CLOCK), TimeInstant(last, RADIO_CLOCK),
        substream(1, "a"),
    )
    assert 9 <= len(events) <= 11 and events.start_ns[-1] <= last
    (window,) = gen_scan_windows(
        Compliant(), LOW_LATENCY, [TimeInstant(top - 10**9, RADIO_CLOCK)],
        TimeInstant(top, RADIO_CLOCK), substream(1, "w"),
    )
    assert (window.start.ns, window.end.ns) == (top - 10**9, top)


def test_event_beacons_are_back_to_back_in_channel_order():
    settings = AdvSettings(Duration.from_seconds(1.0), rho_max=Duration(0))
    (event,) = gen_advertising(
        settings, "d", radio_instant(0), radio_instant(0.5), substream(1, "a")
    )
    beacons = list(event.beacons())
    assert [ch.id for _, ch in beacons] == [37, 38, 39]
    assert [t.ns for t, _ in beacons] == [0, INTER_BEACON_GAP.ns, 2 * INTER_BEACON_GAP.ns]


def test_compliant_windows_cycle_and_restart_on_37():
    windows = Compliant().windows(BALANCED, epochs_s((0.0, 14.0), (14.0, 21.0)), substream(1, "w"))
    interval = BALANCED.scan_interval.ns
    first_epoch = [w for w in windows if w.start.ns < 14_000_000_000]
    assert [w.channel.id for w in first_epoch] == [37, 38, 39, 37]
    assert [w.start.ns for w in first_epoch] == [0, interval, 2 * interval, 3 * interval]
    assert all(w.duration.ns == BALANCED.scan_window.ns for w in first_epoch)
    second_epoch = [w for w in windows if w.start.ns >= 14_000_000_000]
    assert second_epoch[0].start.ns == 14_000_000_000
    assert [w.channel.id for w in second_epoch] == [37, 38]


def test_compliant_truncates_at_epoch_end():
    windows = Compliant().windows(LOW_LATENCY, epochs_s((0.0, 10.0)), substream(1, "w"))
    assert [w.channel.id for w in windows] == [37, 38, 39]
    assert windows[-1].end.ns == 10_000_000_000
    assert windows[-1].duration.ns < LOW_LATENCY.scan_window.ns


def test_continue_channel_resumes_interrupted_window():
    # 60 s epoch with 4.096 s windows: window 14 is cut short at 60 s, so the
    # next epoch must scan its channel (39) again rather than advance.
    behavior = ContinueChannel()
    windows = behavior.windows(LOW_LATENCY, epochs_s((0.0, 60.0), (60.0, 70.0)), substream(1, "w"))
    cut = [w for w in windows if w.end.ns == 60_000_000_000][-1]
    assert cut.duration.ns < LOW_LATENCY.scan_window.ns
    assert cut.channel.id == 39
    resumed = [w for w in windows if w.start.ns == 60_000_000_000][0]
    assert resumed.channel.id == 39


def test_continue_channel_advances_past_completed_window():
    # Epoch ends exactly on a window boundary: nothing was interrupted, so
    # the cycle continues with the next channel.
    two_windows = 2 * LOW_LATENCY.scan_interval.seconds
    behavior = ContinueChannel()
    windows = behavior.windows(
        LOW_LATENCY, epochs_s((0.0, two_windows), (two_windows, two_windows + 5)), substream(1, "w")
    )
    assert [w.channel.id for w in windows[:3]] == [37, 38, 39]


def test_rapid_toggle_windows_are_contiguous_short_and_hopping():
    behavior = RapidToggle()
    windows = behavior.windows(LOW_LATENCY, epochs_s((0.0, 30.0)), substream(5, "w"))
    assert windows[0].channel.id == 37
    for prev, cur in zip(windows, windows[1:]):
        assert cur.start.ns == prev.end.ns
        assert cur.channel != prev.channel
    for w in windows[:-1]:
        assert 100_000_000 <= w.duration.ns <= 200_000_000
    assert windows[-1].end.ns == 30_000_000_000


def reference_rapid_toggle(behavior, epochs, rng):
    """Each next channel drawn from the other two after every window, the last included."""
    out = []
    for start, end in epochs:
        ch, cursor = Channel.of(37), start.ns
        while cursor < end.ns:
            dur = rng.randrange(behavior.min_window.ns, behavior.max_window.ns + 1)
            we = min(cursor + dur, end.ns)
            out.append((cursor, we, ch.id))
            ch = rng.choice([c for c in (Channel.of(i) for i in (37, 38, 39)) if c != ch])
            cursor = we
    return out


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), bounds=st.lists(st.floats(0.0, 3.0), max_size=6))
def test_rapid_toggle_draws_like_its_reference(seed, bounds):
    behavior = RapidToggle()
    edges = sorted(bounds)
    epochs = epochs_s(*zip(edges, edges[1:]))
    rng, ref_rng = substream(seed, "w"), substream(seed, "w")
    got = [(w.start.ns, w.end.ns, w.channel.id) for w in behavior.windows(LOW_LATENCY, epochs, rng)]
    assert got == reference_rapid_toggle(behavior, epochs, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize(
    "behavior, edges",
    [
        # about 10k windows, several times the words of one block
        (RapidToggle(), (0.0, 333.333, 777.7, 777.7, 1234.5, 1500.0)),
        # spreads above 2**32 ns take two words per duration candidate
        (RapidToggle(Duration(1), Duration(2**32 + 1)), (0.0, 9_999.9, 20_000.0, 36_000.0)),
    ],
)
def test_rapid_toggle_long_runs_draw_like_the_reference(behavior, edges):
    epochs = epochs_s(*zip(edges, edges[1:]))
    rng, ref_rng = substream(3, "w"), substream(3, "w")
    windows = behavior.windows(LOW_LATENCY, epochs, rng)
    assert 2 * len(windows) > 4 * _TOGGLE_BLOCK  # each window takes two words or more
    got = list(zip(windows.start_ns.tolist(), windows.end_ns.tolist(), windows.channel.tolist()))
    assert got == reference_rapid_toggle(behavior, epochs, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


def test_rapid_toggle_hour_stays_small():
    # The per-window objects of the loop this replaced peaked at 4.5 MiB here.
    tracemalloc.start()
    try:
        windows = RapidToggle().windows(LOW_LATENCY, epochs_s((0.0, 3600.0)), substream(1, "w"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 24_041
    assert peak < 4.5 * 2**20


def test_rapid_toggle_validates_window_bounds():
    with pytest.raises(ConfigError):
        RapidToggle(min_window=Duration(0), max_window=Duration(1))
    with pytest.raises(ConfigError):
        RapidToggle(min_window=Duration(5), max_window=Duration(4))
    with pytest.raises(ConfigError):  # window bounds are int64 columns
        RapidToggle(min_window=Duration(1), max_window=Duration(2**63))


def test_nonstandard_order_scans_continuously_with_random_walk():
    behavior = NonStandardOrder()
    windows = behavior.windows(LOW_LATENCY, epochs_s((0.0, 40.0), (40.0, 80.0)), substream(2, "w"))
    interval = LOW_LATENCY.scan_interval.ns
    assert windows[0].channel.id == 37
    for prev, cur in zip(windows, windows[1:]):
        assert cur.channel != prev.channel
    full = [w for w in windows if w.duration.ns == interval]
    assert len(full) >= len(windows) - 2
    eff = behavior.effective_settings(BALANCED)
    assert eff.scan_window == eff.scan_interval == BALANCED.scan_interval


def test_balanced_offset_settles_into_compliant_pattern():
    behavior = BalancedOffset()
    windows = behavior.windows(BALANCED, epochs_s((0.0, 60.0)), substream(8, "w"))
    interval = BALANCED.scan_interval.ns
    # Find the settle anchor: the first window from which starts follow a
    # fresh grid and channels cycle from 37 to the end of the epoch.
    for k, w in enumerate(windows):
        tail = windows[k:]
        if (
            w.channel.id == 37
            and all(t.start.ns == w.start.ns + j * interval for j, t in enumerate(tail))
            and all(t.channel.id == 37 + j % 3 for j, t in enumerate(tail))
        ):
            settle = w.start.ns
            break
    else:
        pytest.fail("no compliant tail found")
    assert 0 <= settle <= 2 * interval
    for w in windows[:k]:
        assert w.start.ns % interval == 0


def test_alt_interval_reports_and_uses_its_own_timing():
    behavior = AltInterval(scan_interval=Duration.from_seconds(5.0))
    eff = behavior.effective_settings(LOW_LATENCY)
    assert eff.scan_interval.ns == 5_000_000_000
    assert eff.scan_window.ns == 5_000_000_000
    windows = behavior.windows(LOW_LATENCY, epochs_s((0.0, 20.0)), substream(1, "w"))
    assert [w.start.ns for w in windows] == [0, 5_000_000_000, 10_000_000_000, 15_000_000_000]
    assert [w.channel.id for w in windows] == [37, 38, 39, 37]


def test_behavior_from_tag():
    assert isinstance(behavior_from_tag("compliant"), Compliant)
    alt = behavior_from_tag("alt-interval", alt_interval=Duration.from_seconds(2.0))
    assert alt.effective_settings(LOW_LATENCY).scan_interval.ns == 2_000_000_000
    with pytest.raises(ConfigError):
        behavior_from_tag("turbo")


def test_gen_scan_windows_validates_schedule():
    rng = substream(1, "w")
    with pytest.raises(ConfigError):
        gen_scan_windows(Compliant(), BALANCED, [], radio_instant(10), rng)
    with pytest.raises(ConfigError):
        gen_scan_windows(
            Compliant(), BALANCED, [radio_instant(5), radio_instant(5)], radio_instant(10), rng
        )
    with pytest.raises(ConfigError):
        gen_scan_windows(Compliant(), BALANCED, [radio_instant(10)], radio_instant(10), rng)
    with pytest.raises(ClockMismatchError):
        gen_scan_windows(Compliant(), BALANCED, [app_instant(0)], radio_instant(10), rng)
    with pytest.raises(ClockMismatchError):
        gen_scan_windows(Compliant(), BALANCED, [radio_instant(0)], app_instant(10), rng)


def test_gen_scan_windows_splits_epochs_at_restarts():
    windows = gen_scan_windows(
        Compliant(),
        BALANCED,
        [radio_instant(0), radio_instant(10)],
        radio_instant(20),
        substream(1, "w"),
    )
    starts = [w.start.ns for w in windows]
    assert 10_000_000_000 in starts
    restarted = windows[starts.index(10_000_000_000)]
    assert restarted.channel.id == 37


SCAN_PRESETS = (
    "SCAN_MODE_LOW_POWER",
    "SCAN_MODE_BALANCED",
    "SCAN_MODE_LOW_LATENCY",
    "SCAN_MODE_LOW_LATENCY_OLD_API",
)


@st.composite
def scan_schedules(draw):
    """(restarts_ns, end_ns): 1 to 8 epochs over up to two minutes."""
    end_ns = draw(st.integers(min_value=2, max_value=120_000_000_000))
    later = draw(st.lists(st.integers(min_value=1, max_value=end_ns - 1), max_size=7))
    return sorted({0, *later}), end_ns


@settings(max_examples=200, deadline=None)
@given(
    tag=st.sampled_from(sorted(BEHAVIOR_TAGS)),
    preset=st.sampled_from(SCAN_PRESETS),
    schedule=scan_schedules(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_window_layouts_keep_their_invariants(tag, preset, schedule, seed):
    restarts, end_ns = schedule
    windows = gen_scan_windows(
        behavior_from_tag(tag),
        preset_settings(preset),
        [TimeInstant(ns, RADIO_CLOCK) for ns in restarts],
        TimeInstant(end_ns, RADIO_CLOCK),
        substream(seed, "scan"),
    )
    bounds = restarts + [end_ns]
    epochs = [bisect_right(restarts, w.start.ns) - 1 for w in windows]
    # sorted, non-overlapping, and each window inside its own epoch
    for prev, cur in zip(windows, windows[1:]):
        assert prev.end.ns <= cur.start.ns
    for w, e in zip(windows, epochs):
        assert bounds[e] <= w.start.ns < w.end.ns <= bounds[e + 1]
    if tag in ("compliant", "alt-interval"):
        for e in range(len(restarts)):
            ids = [w.channel.id for w, we in zip(windows, epochs) if we == e]
            assert ids == [37 + k % 3 for k in range(len(ids))]
    if tag == "nonstandard-order":
        assert all(a.channel != b.channel for a, b in zip(windows, windows[1:]))


@st.composite
def scanners(draw):
    """A behavior with its own timing, from 10 ms up, and the requested settings."""
    tag = draw(st.sampled_from(sorted(BEHAVIOR_TAGS)))
    ms = st.integers(min_value=10, max_value=6_000).map(lambda v: v * 1_000_000)
    if tag == "alt-interval":
        interval = draw(ms)
        window = draw(st.integers(min_value=1, max_value=interval))
        behavior = AltInterval(Duration(interval), Duration(window))
    elif tag == "rapid-toggle":
        lo, hi = sorted((draw(ms), draw(ms)))
        behavior = RapidToggle(Duration(lo), Duration(hi))
    elif tag == "balanced-offset":
        behavior = BalancedOffset(draw(st.floats(min_value=0.0, max_value=4.0)))
    else:
        behavior = behavior_from_tag(tag)
    return behavior, preset_settings(draw(st.sampled_from(SCAN_PRESETS)))


@settings(max_examples=200, deadline=None)
@given(
    scanner=scanners(),
    schedule=scan_schedules(),
    seed=st.integers(min_value=0, max_value=2**32),
)
# settling 0.16 s into a 1 s epoch opens two windows where one cadence opens one
@example(scanner=(BalancedOffset(), LOW_LATENCY), schedule=([0], 10**9), seed=10)
def test_min_gap_bounds_the_window_count(scanner, schedule, seed):
    behavior, requested = scanner
    restarts, end_ns = schedule
    windows = gen_scan_windows(
        behavior,
        requested,
        [TimeInstant(ns, RADIO_CLOCK) for ns in restarts],
        TimeInstant(end_ns, RADIO_CLOCK),
        substream(seed, "scan"),
    )
    # the count ExperimentConfig.validate holds against MAX_WINDOWS
    assert len(windows) <= end_ns // behavior.min_gap_ns(requested) + 2 * len(restarts)


def test_clock_model_validation_and_conversion():
    with pytest.raises(ConfigError):
        ClockModel(drift_rate=-1.0)
    with pytest.raises(ConfigError):
        ClockModel(jitter_range=(0.2, 0.1))
    with pytest.raises(ConfigError):
        ClockModel(jitter_range=(-0.1, 0.1))
    clock = ClockModel(drift_rate=2e-4)
    # 200 ppm fast radio: 600 radio seconds are about 599.88 app seconds
    assert clock.to_app_ns(600_000_000_000) == round(600_000_000_000 / 1.0002)
    assert ClockModel().to_app_ns(123) == 123


def test_jitter_draw_respects_bounds():
    clock = ClockModel(jitter_range=(0.01, 0.05))
    rng = substream(4, "j")
    draws = [clock.draw_jitter(rng).ns for _ in range(200)]
    assert all(10_000_000 <= d <= 50_000_000 for d in draws)
    assert min(draws) < 20_000_000 and max(draws) > 40_000_000


def test_loss_model_validation():
    with pytest.raises(ConfigError):
        LossModel(drop_prob=1.5)
    assert not LossModel(0.0).drops(substream(1, "l"))


def simple_reception(events, windows, clock=ClockModel(), loss=LossModel()):
    return simulate_reception(
        events, windows, [radio_instant(0)], clock, loss, substream(7, "rx")
    )


def test_reception_matches_channel_and_window():
    settings = AdvSettings(Duration.from_seconds(1.0), rho_max=Duration(0))
    events = gen_advertising(settings, "d", radio_instant(0.5), radio_instant(0.6), substream(1, "a"))
    windows = gen_scan_windows(
        Compliant(), LOW_LATENCY, [radio_instant(0)], radio_instant(4.096), substream(1, "w")
    )
    packets = simple_reception(events, windows)
    # single window on 37; only the event's channel 37 beacon lands
    assert len(packets) == 1
    assert packets[0].channel.id == 37
    assert packets[0].window_index == 0
    assert packets[0].recv.ns == 500_000_000
    assert packets[0].recv.clock == "app"


def test_reception_window_end_is_exclusive():
    from blechannel.simkit import AdvertisingEvent, ScanWindow

    ch37 = Channel.of(37)
    window = ScanWindow(radio_instant(0.0), radio_instant(1.0), ch37)
    at_end = AdvertisingEvent(radio_instant(1.0), "d", (ch37,))
    inside = AdvertisingEvent(radio_instant(0.0), "d", (ch37,))
    packets = simple_reception([at_end, inside], [window])
    assert [p.recv.ns for p in packets] == [0]


def test_reception_applies_drift_and_per_epoch_latency():
    from blechannel.simkit import AdvertisingEvent, ScanWindow

    ch37 = Channel.of(37)
    windows = [
        ScanWindow(radio_instant(0.0), radio_instant(10.0), ch37),
        ScanWindow(radio_instant(10.0), radio_instant(20.0), ch37),
    ]
    events = [
        AdvertisingEvent(radio_instant(5.0), "d", (ch37,)),
        AdvertisingEvent(radio_instant(15.0), "d", (ch37,)),
    ]
    clock = ClockModel(drift_rate=1e-3, jitter_range=(0.05, 0.05))
    restarts = [radio_instant(0.0), radio_instant(10.0)]
    packets = simulate_reception(events, windows, restarts, clock, LossModel(), substream(2, "rx"))
    assert packets[0].recv.ns == round(5_000_000_000 / 1.001) + 50_000_000
    assert packets[1].recv.ns == round(15_000_000_000 / 1.001) + 50_000_000
    anchors = app_anchor_times(restarts, clock)
    # the app's own restart stamps carry no delivery latency
    assert anchors[0].ns == 0
    assert anchors[1].ns == round(10_000_000_000 / 1.001)


def test_reception_total_loss_drops_everything():
    settings = AdvSettings(Duration.from_seconds(0.1))
    events = gen_advertising(settings, "d", radio_instant(0), radio_instant(8), substream(1, "a"))
    windows = gen_scan_windows(
        Compliant(), LOW_LATENCY, [radio_instant(0)], radio_instant(8.192), substream(1, "w")
    )
    assert simple_reception(events, windows, loss=LossModel(1.0)) == []
    kept = simple_reception(events, windows)
    assert len(kept) > 0


def test_attach_rssi_matches_free_space_at_exponent_two():
    settings = AdvSettings(Duration.from_seconds(0.1))
    events = gen_advertising(settings, "d", radio_instant(0), radio_instant(8), substream(1, "a"))
    windows = gen_scan_windows(
        Compliant(), LOW_LATENCY, [radio_instant(0)], radio_instant(8.192), substream(1, "w")
    )
    packets = simple_reception(events, windows)
    model = RssiModel(tx_power_dbm=4.0, antenna_gain_db=-1.0)
    tagged = attach_rssi(packets, model, {"d": 3.0}, substream(1, "s"))
    link = RadioLink(tx_power_dbm=4.0, antenna_gain_db=-1.0)
    for p in tagged:
        freq = {37: 2.402e9, 38: 2.426e9, 39: 2.480e9}[p.channel.id]
        assert p.rssi_dbm == pytest.approx(friis_rx_power(link, freq, 3.0), abs=1e-9)


def test_attach_rssi_requires_a_distance_per_device():
    from blechannel.simkit import PacketRecord

    packet = PacketRecord(recv=app_instant(1.0), device_id="ghost", channel=Channel.of(37))
    with pytest.raises(ConfigError):
        attach_rssi([packet], RssiModel(), {}, substream(1, "s"))


def test_attach_rssi_shadowing_is_seeded():
    from blechannel.simkit import PacketRecord

    packet = PacketRecord(recv=app_instant(1.0), device_id="d", channel=Channel.of(37))
    model = RssiModel(shadow_sigma_db=3.0)
    one = attach_rssi([packet], model, {"d": 2.0}, substream(6, "s"))
    two = attach_rssi([packet], model, {"d": 2.0}, substream(6, "s"))
    assert one == two
    base = attach_rssi([packet], RssiModel(), {"d": 2.0}, substream(6, "s"))
    assert one[0].rssi_dbm != base[0].rssi_dbm


def test_channel_offsets_shift_expected_rssi():
    model = RssiModel(channel_offset_db=(0.0, 6.0, -3.0))
    truth = model.to_calibration()
    d = 4.0
    base37 = truth.predict_rssi(Channel.of(37), d)
    gap38 = truth.predict_rssi(Channel.of(38), d) - base37
    gap39 = truth.predict_rssi(Channel.of(39), d) - base37
    # offsets plus the (small) frequency term
    assert gap38 == pytest.approx(6.0 - 20 * math.log10(2.426e9 / 2.402e9), abs=1e-9)
    assert gap39 == pytest.approx(-3.0 - 20 * math.log10(2.480e9 / 2.402e9), abs=1e-9)
