import numpy as np
import pytest

from blechannel.core import Duration, ScanSettings, app_instant, preset_settings, radio_instant
from blechannel.detector import (
    ClassKind,
    DetectorConfig,
    DetectorSession,
    Labels,
    SessionMode,
    classify_time,
    classify_trace,
    session_on_packet,
    session_on_tick,
)
from blechannel.errors import ClockMismatchError, ConfigError
from blechannel.simkit import PacketRecord, Packets

LOW_LATENCY = preset_settings("SCAN_MODE_LOW_LATENCY")
CONFIG = DetectorConfig(scan_settings=LOW_LATENCY)
ANCHOR = app_instant(0.0)


def classify_at(seconds):
    return classify_time(app_instant(seconds), ANCHOR, CONFIG)


def test_slot_zero_is_channel_37():
    r = classify_at(2.0)
    assert r.kind is ClassKind.CHANNEL
    assert r.channel.id == 37
    assert r.slot_index == 0
    assert r.slot_start.ns == 0
    assert r.slot_end.ns == 4_096_000_000
    assert r.offset_in_slot.ns == 2_000_000_000
    assert r.label == "37"


@pytest.mark.parametrize(
    "seconds,channel",
    [(4.2, 38), (8.3, 39), (12.4, 37), (16.5, 38), (3 * 4.096 + 2.0, 37)],
)
def test_slots_cycle_through_channels(seconds, channel):
    r = classify_at(seconds)
    assert r.kind is ClassKind.CHANNEL
    assert r.channel.id == channel
    assert r.slot_index == int(seconds // 4.096)


def test_guard_zone_edges_are_half_guard_wide():
    interval = 4.096
    # strictly inside the leading guard
    assert classify_at(0.099).kind is ClassKind.GUARD
    # exactly half a guard from the slot start is classifiable
    assert classify_at(0.1).kind is ClassKind.CHANNEL
    # trailing edge: T - g/2 is classifiable, anything later is not
    assert classify_at(interval - 0.1).kind is ClassKind.CHANNEL
    late = classify_time(app_instant(interval - 0.1) + Duration(1), ANCHOR, CONFIG)
    assert late.kind is ClassKind.GUARD
    assert late.slot_index == 0
    assert late.label == "guard"


def test_guard_handles_odd_nanosecond_widths():
    # guard of 3 ns on a 10 ns interval: offsets 0..1 and 9 are guarded
    config = DetectorConfig(
        scan_settings=ScanSettings(Duration(10), Duration(10)),
        guard=Duration(3),
        max_scan_time=Duration(1000),
        idle_timeout=Duration(1000),
    )
    anchor = app_instant(0)
    kinds = [classify_time(anchor + Duration(r), anchor, config).kind for r in range(10)]
    expected = [
        ClassKind.GUARD,  # 2*0 < 3
        ClassKind.GUARD,  # 2*1 < 3
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,
        ClassKind.CHANNEL,  # 2*8 = 16, limit is 2*10-3 = 17
        ClassKind.GUARD,  # 2*9 = 18 > 17
    ]
    assert kinds == expected


def test_pre_start_packets_are_flagged():
    r = classify_time(app_instant(-0.5), ANCHOR, CONFIG)
    assert r.kind is ClassKind.PRE_START
    assert r.channel is None
    assert r.slot_index is None
    assert r.label == "pre-start"


def test_classify_rejects_mixed_clocks():
    with pytest.raises(ClockMismatchError):
        classify_time(radio_instant(1.0), ANCHOR, CONFIG)
    radio = PacketRecord(recv=radio_instant(1.0), device_id="d", channel=None)
    app = PacketRecord(recv=app_instant(2.0), device_id="d", channel=None)
    for packets, restarts in [
        ([radio], [ANCHOR]),
        (Packets.of([radio]), [ANCHOR]),
        ([app, radio], [ANCHOR]),
        ([app], [ANCHOR, radio_instant(3.0)]),
        ([], [ANCHOR, radio_instant(3.0)]),  # restarts on two clocks mix without packets too
    ]:
        with pytest.raises(ClockMismatchError):
            classify_trace(packets, restarts, CONFIG)
    with pytest.raises(ClockMismatchError):
        Packets.of([radio, app])


def test_slot_borders_reconstruct_scan_windows():
    # the slot bounds double as the reconstructed full scan window, both
    # anchored at the scan start
    r = classify_at(37.0)
    assert r.slot_index == 9
    assert r.slot_start.ns == 9 * 4_096_000_000
    assert r.slot_end.ns == 10 * 4_096_000_000
    assert (r.slot_end - r.slot_start).ns == CONFIG.scan_settings.scan_interval.ns


def test_detector_config_validation():
    good = LOW_LATENCY
    with pytest.raises(ConfigError):
        DetectorConfig(scan_settings=good, guard=Duration.from_seconds(4.096))
    with pytest.raises(ConfigError):
        DetectorConfig(scan_settings=good, guard=Duration(-1))
    with pytest.raises(ConfigError):
        DetectorConfig(scan_settings=good, max_scan_time=Duration.from_seconds(1801.0))
    with pytest.raises(ConfigError):
        DetectorConfig(scan_settings=good, max_scan_time=Duration(0))
    with pytest.raises(ConfigError):
        DetectorConfig(scan_settings=good, idle_timeout=Duration(0))


def test_session_arms_on_first_packet():
    session = DetectorSession(CONFIG)
    assert session.mode is SessionMode.LOW_POWER
    assert session_on_packet(session, app_instant(100.0)) is None
    assert session.mode is SessionMode.LOW_LATENCY
    assert session.anchor == app_instant(100.0)
    assert session.restarts == [app_instant(100.0)]
    r = session_on_packet(session, app_instant(104.3))
    assert r.kind is ClassKind.CHANNEL
    assert r.channel.id == 38


def test_session_tick_restarts_after_max_scan_time():
    config = DetectorConfig(scan_settings=LOW_LATENCY, idle_timeout=Duration.from_seconds(1500.0))
    session = DetectorSession(config)
    session_on_packet(session, app_instant(0.0))
    assert session_on_tick(session, app_instant(599.0)) is None
    assert session_on_tick(session, app_instant(601.0)) == "restart"
    assert session.anchor == app_instant(601.0)
    r = session_on_packet(session, app_instant(601.2))
    assert r.kind is ClassKind.CHANNEL
    assert r.channel.id == 37


def test_session_goes_idle_without_signal():
    config = DetectorConfig(scan_settings=LOW_LATENCY, idle_timeout=Duration.from_seconds(30.0))
    session = DetectorSession(config)
    session_on_packet(session, app_instant(0.0))
    assert session_on_tick(session, app_instant(31.0)) == "idle"
    assert session.mode is SessionMode.LOW_POWER
    assert session.anchor is None
    # the next packet re-arms rather than classifies
    assert session_on_packet(session, app_instant(40.0)) is None
    assert session.restarts == [app_instant(0.0), app_instant(40.0)]


def test_session_recovers_without_ticks():
    session = DetectorSession(CONFIG)
    session_on_packet(session, app_instant(0.0))
    # far beyond max scan time with no tick in between: the packet restarts
    # the scan instead of being classified against a stale anchor
    assert session_on_packet(session, app_instant(700.0)) is None
    assert session.anchor == app_instant(700.0)


def packet(seconds):
    return PacketRecord(recv=app_instant(seconds), device_id="d", channel=None)


def test_classify_trace_uses_latest_restart():
    restarts = [app_instant(0.0), app_instant(100.0)]
    # the restarts are read once, so a generator of them works too
    out = classify_trace([packet(50.0), packet(101.0)], iter(restarts), CONFIG)
    assert out[0].anchor == restarts[0]
    assert out[0].result.slot_index == int(50.0 // 4.096)
    assert out[1].anchor == restarts[1]
    assert out[1].result.slot_index == 0
    assert out[1].result.channel.id == 37


def test_classify_trace_flags_pre_start():
    out = classify_trace([packet(-1.0)], [app_instant(0.0)], CONFIG)
    assert out[0].result.kind is ClassKind.PRE_START


def test_classify_trace_accepts_unsorted_packets():
    restarts = [app_instant(0.0), app_instant(100.0)]
    out = classify_trace([packet(101.0), packet(50.0)], restarts, CONFIG)
    assert out[0].anchor == restarts[1]
    assert out[1].anchor == restarts[0]


def test_classify_trace_needs_a_restart():
    with pytest.raises(ConfigError):
        classify_trace([packet(1.0)], [], CONFIG)


def test_classify_trace_of_no_packets_takes_any_clock():
    # Packets.of([]) is on the app clock; an empty capture has no clock to mix
    for packets in ([], Packets.of([])):
        for restarts in ([radio_instant(0.0)], [ANCHOR]):
            classified = classify_trace(packets, restarts, CONFIG)
            assert len(classified) == 0 and classified.labels() == ()


@pytest.mark.parametrize("code", [7, -1])
def test_labels_refuse_codes_outside_the_label_table(code):
    assert list(Labels(np.array([0, 4], np.intp))) == ["37", "pre-start"]
    with pytest.raises(ConfigError):
        Labels(np.array([0, code], np.intp))
