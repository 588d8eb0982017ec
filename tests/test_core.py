import pytest

from blechannel.core import (
    CHANNEL_FREQ_HZ,
    AdvSettings,
    AndroidMode,
    Channel,
    Duration,
    ScanSettings,
    TimeInstant,
    app_instant,
    channel_frequency,
    next_channel,
    preset_settings,
    radio_instant,
)
from blechannel.errors import ClockMismatchError, ConfigError


def test_channel_frequencies():
    assert channel_frequency(Channel.of(37)) == 2.402e9
    assert channel_frequency(Channel.of(38)) == 2.426e9
    assert channel_frequency(Channel.of(39)) == 2.480e9


@pytest.mark.parametrize("bad", [0, 36, 40, -1, 2402])
def test_channel_rejects_non_advertising_ids(bad):
    with pytest.raises(ConfigError):
        Channel.of(bad)


def test_next_channel_cycles():
    c = Channel.of(37)
    seen = [c.id]
    for _ in range(3):
        c = next_channel(c)
        seen.append(c.id)
    assert seen == [37, 38, 39, 37]


def test_duration_arithmetic_and_rounding():
    assert Duration.from_seconds(4.096).ns == 4_096_000_000
    assert Duration.from_seconds(0.2).ns == 200_000_000
    a = Duration(1_500)
    b = Duration(500)
    assert (a + b).ns == 2_000
    assert (a - b).ns == 1_000
    assert (-b).ns == -500
    assert (3 * b).ns == 1_500
    assert b < a
    assert bool(Duration(0)) is False
    assert a.seconds == pytest.approx(1.5e-6)
    for bad in (float("nan"), float("inf"), float("-inf"), 1e300):
        with pytest.raises(ConfigError):
            Duration.from_seconds(bad)


def test_instants_keep_their_clock():
    t = app_instant(1.0)
    assert (t + Duration.from_seconds(0.5)).ns == 1_500_000_000
    assert ((t + Duration(7)) - t).ns == 7


def test_mixing_clocks_raises():
    a = app_instant(1.0)
    r = radio_instant(1.0)
    with pytest.raises(ClockMismatchError):
        _ = a - r
    with pytest.raises(ClockMismatchError):
        _ = a < r
    with pytest.raises(ClockMismatchError):
        _ = a >= r


def test_scan_settings_validation():
    ScanSettings(Duration.from_seconds(4.096), Duration.from_seconds(1.024))
    with pytest.raises(ConfigError):
        ScanSettings(Duration.from_seconds(1.0), Duration(0))
    with pytest.raises(ConfigError):
        ScanSettings(Duration.from_seconds(1.0), Duration.from_seconds(1.5))


def test_adv_settings_validation():
    s = AdvSettings(Duration.from_seconds(0.1))
    assert s.rho_max.ns == 10_000_000
    with pytest.raises(ConfigError):
        AdvSettings(Duration(0))
    with pytest.raises(ConfigError):
        AdvSettings(Duration(1), rho_max=Duration(-1))
    AdvSettings(Duration(2**53 - 1), rho_max=Duration(2**53 - 1))
    with pytest.raises(ConfigError):
        AdvSettings(Duration(2**53))
    with pytest.raises(ConfigError):
        AdvSettings(Duration(1), rho_max=Duration(2**53))


# Interval/window pairs the Android API maps its named modes to, in seconds.
SCAN_TABLE = {
    "SCAN_MODE_LOW_POWER": (5.120, 0.512),
    "SCAN_MODE_BALANCED": (4.096, 1.024),
    "SCAN_MODE_LOW_LATENCY": (4.096, 4.096),
    "SCAN_MODE_LOW_LATENCY_OLD_API": (5.000, 5.000),
}
ADV_TABLE = {
    "ADVERTISE_MODE_LOW_POWER": 1.000,
    "ADVERTISE_MODE_BALANCED": 0.250,
    "ADVERTISE_MODE_LOW_LATENCY": 0.100,
}


@pytest.mark.parametrize("name,expected", sorted(SCAN_TABLE.items()))
def test_scan_presets(name, expected):
    settings = preset_settings(name)
    assert isinstance(settings, ScanSettings)
    assert settings.scan_interval.ns == round(expected[0] * 1e9)
    assert settings.scan_window.ns == round(expected[1] * 1e9)


@pytest.mark.parametrize("name,interval", sorted(ADV_TABLE.items()))
def test_advertise_presets(name, interval):
    settings = preset_settings(name)
    assert isinstance(settings, AdvSettings)
    assert settings.base_interval.ns == round(interval * 1e9)
    assert settings.rho_max.ns == 10_000_000


def test_preset_lookup_accepts_enum_and_mixed_case():
    by_enum = preset_settings(AndroidMode.SCAN_MODE_BALANCED)
    by_str = preset_settings("scan_mode_balanced")
    assert by_enum == by_str


def test_preset_lookup_rejects_unknown():
    with pytest.raises(ConfigError):
        preset_settings("SCAN_MODE_TURBO")


def test_frequency_table_is_complete():
    assert sorted(CHANNEL_FREQ_HZ) == [37, 38, 39]


def test_time_instant_equality_is_clock_sensitive():
    assert app_instant(1.0) == TimeInstant(1_000_000_000, "app")
    assert app_instant(1.0) != radio_instant(1.0)


def test_public_names_are_pinned():
    import blechannel

    assert tuple(blechannel.__all__) == (
        "ADVERTISING_CHANNELS",
        "APP_CLOCK",
        "AccuracyBucket",
        "AccuracyCurve",
        "AdvSettings",
        "AdvertisingEvent",
        "AndroidMode",
        "CHANNEL_FREQ_HZ",
        "CalibrationModel",
        "Channel",
        "ClassKind",
        "Classification",
        "ClassifiedPacket",
        "ClockMismatchError",
        "ClockModel",
        "ConfigError",
        "DetectorConfig",
        "DetectorSession",
        "Duration",
        "EstimatorComparison",
        "ExperimentConfig",
        "FitError",
        "LossModel",
        "MatrixResult",
        "MatrixRow",
        "NoDataError",
        "PacketRecord",
        "RADIO_CLOCK",
        "RadioLink",
        "RangingResult",
        "RangingSample",
        "RssiModel",
        "ScanSettings",
        "ScanWindow",
        "ScannerBehavior",
        "TimeInstant",
        "TraceFile",
        "TraceOrderError",
        "TraceParseError",
        "attach_rssi",
        "balanced_average",
        "behavior_from_tag",
        "build_accuracy_curve",
        "calibrate",
        "channel_frequency",
        "classify_time",
        "classify_trace",
        "compare_estimators",
        "estimate_distance",
        "friis_rx_power",
        "gen_advertising",
        "gen_scan_windows",
        "next_channel",
        "path_loss_db",
        "preset_settings",
        "read_trace",
        "run_accuracy_experiment",
        "run_compatibility_matrix",
        "run_ranging_experiment",
        "session_on_packet",
        "session_on_tick",
        "simulate_reception",
        "simulate_scenario",
        "substream",
        "write_trace",
    )
