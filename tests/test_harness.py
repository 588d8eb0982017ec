import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blechannel import harness
from blechannel.core import APP_CLOCK, Channel, Duration, TimeInstant
from blechannel.detector import Instants, classify_trace
from blechannel.errors import ConfigError, NoDataError, TraceOrderError, TraceParseError
from blechannel.harness import (
    EST_LABELS,
    MATRIX_BEHAVIORS,
    MAX_EVENTS,
    MAX_WINDOWS,
    AccuracyBucket,
    AccuracyCurve,
    ExperimentConfig,
    MatrixRow,
    TraceFile,
    build_accuracy_curve,
    classification_samples,
    read_samples_csv,
    read_trace,
    run_accuracy_experiment,
    run_compatibility_matrix,
    run_ranging_experiment,
    simulate_scenario,
    trace_from_text,
    trace_to_text,
    write_samples_csv,
    write_trace,
)
from blechannel.ranging import RangingSample
from blechannel.simkit import PacketRecord, Packets

CH37 = Channel.of(37)
CH38 = Channel.of(38)


def packet(ns, device="aa", channel=37, rssi=None):
    return PacketRecord(
        recv=TimeInstant(ns, APP_CLOCK),
        device_id=device,
        channel=Channel.of(channel) if channel is not None else None,
        rssi_dbm=rssi,
    )


SHORT = ExperimentConfig(duration_s=30.0, n_advertisers=2)


def test_trace_round_trip(tmp_path):
    sim = simulate_scenario(SHORT, seed=5, with_rssi=True)
    path = tmp_path / "t.csv"
    write_trace(sim, str(path))
    back = read_trace(str(path))
    assert back.scan_settings == sim.scan_settings
    assert back.behavior_tag == "compliant"
    assert back.seed == 5
    assert back.restarts_ns == (0,)
    assert back.est_labels is None
    assert len(back.packets) == len(sim.packets)
    for a, b in zip(sim.packets, back.packets):
        assert a.recv == b.recv
        assert a.device_id == b.device_id
        assert a.channel == b.channel
        # rssi is stored with six decimals
        assert b.rssi_dbm == pytest.approx(a.rssi_dbm, abs=5e-7)


def test_trace_restarts_metadata_round_trip():
    tf = TraceFile(
        scan_interval_ns=4_096_000_000,
        scan_window_ns=4_096_000_000,
        behavior_tag="compliant",
        seed=9,
        restarts_ns=(0, 60_000_000_000),
        packets=(packet(100), packet(61_000_000_000)),
    )
    text = trace_to_text(tf)
    assert "# restarts_ns=0,60000000000\n" in text
    assert trace_from_text(text) == tf
    # the default schedule stays implicit
    plain = dataclasses.replace(tf, restarts_ns=(0,))
    assert "restarts_ns" not in trace_to_text(plain)


def test_trace_est_labels_round_trip():
    tf = TraceFile(
        scan_interval_ns=4_096_000_000,
        scan_window_ns=1_024_000_000,
        behavior_tag="compliant",
        seed=0,
        packets=(packet(100, rssi=-41.25), packet(200, channel=None)),
        est_labels=("37", "guard"),
    )
    text = trace_to_text(tf)
    assert text.splitlines()[2].endswith(",est_channel")
    back = trace_from_text(text)
    assert back.est_labels == ("37", "guard")
    assert back.packets[1].channel is None
    assert back.packets[0].rssi_dbm == pytest.approx(-41.25)


def test_trace_to_text_validates_labels_and_ids():
    tf = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 0, packets=(packet(1),))
    with pytest.raises(ConfigError):
        trace_to_text(dataclasses.replace(tf, est_labels=("37", "38")))
    with pytest.raises(ConfigError):
        trace_to_text(dataclasses.replace(tf, packets=(packet(1, device="a,b"),)))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"restarts_ns": ()}, "bad restarts_ns list"),
        ({"restarts_ns": (5, 3)}, "strictly increasing"),
        ({"scan_interval_ns": 0}, "need 0 < ds_ns <= ts_ns"),
        ({"scan_window_ns": 4_096_000_001}, "need 0 < ds_ns <= ts_ns"),
        ({"behavior_tag": "a b"}, "bad metadata token 'b'"),
        ({"behavior_tag": "a seed=3"}, "repeated metadata key 'seed'"),
        # trace_to_text takes it; it has no UTF-8 bytes to write
        ({"behavior_tag": "a\ud800b"}, "not UTF-8 text: surrogates not allowed"),
    ],
)
def test_trace_headers_the_reader_refuses_are_not_written(tmp_path, change, message):
    tf = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 0, packets=(packet(1),))
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError, match=message) as exc:
        write_trace(dataclasses.replace(tf, **change), str(path))
    assert "\n" not in str(exc.value)
    assert not path.exists()


@pytest.mark.parametrize("channel", [5, -1, 36, 40, 2**40])
def test_trace_channel_ids_the_reader_refuses_are_not_written(tmp_path, channel):
    packets = Packets.of((packet(1), packet(2, channel=None), packet(3, channel=39)))
    packets = dataclasses.replace(packets, channel=np.array([37, 0, channel], np.int64))
    tf = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 0, packets=packets)
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError, match=f"true_channel not writable to CSV: {channel}$"):
        write_trace(tf, str(path))
    assert not path.exists()


GOOD_HEADER = "# blechannel-trace v1\n# ts_ns=4096000000 ds_ns=1024000000 behavior=compliant seed=1\nrecv_time_ns,device_id,true_channel,rssi_dbm\n"


@pytest.mark.parametrize(
    "text,line",
    [
        ("recv_time_ns,device_id,true_channel,rssi_dbm\n", 1),
        ("# blechannel-trace v2\n", 1),
        ("# blechannel-trace v1\nrecv_time_ns,device_id,true_channel,rssi_dbm\n", 2),
        ("# blechannel-trace v1\n# ts_ns=10 behavior=compliant seed=1\nx\n", 2),
        ("# blechannel-trace v1\n# ts_ns=10 ds_ns=20 behavior=compliant seed=1\nx\n", 2),
        ("# blechannel-trace v1\n# ts_ns=abc ds_ns=1 behavior=compliant seed=1\nx\n", 2),
        (GOOD_HEADER.replace("4096000000", "18446744073709551616"), 2),
        (GOOD_HEADER.replace("rssi_dbm", "rssi"), 3),
        (GOOD_HEADER + "99,dev,37\n", 4),
        (GOOD_HEADER + "abc,dev,37,\n", 4),
        (GOOD_HEADER + "99,dev,36,\n", 4),
        (GOOD_HEADER + "99,dev,37,loud\n", 4),
        (GOOD_HEADER + "99,dev,37,-40\n205,dev,38,not-a-number\n", 5),
        ("# blechannel-trace v1\n# ts_ns=10 ds_ns=10 behavior=compliant seed=1 junk\nx\n", 2),
        ("# blechannel-trace v1\n# ts_ns=10 ds_ns=10 behavior=compliant seed=1\n", 3),
        (GOOD_HEADER + "99,dev,37,\n100,dev,3x,\n", 5),
        (GOOD_HEADER + "99,dev,37,\n100,dev!,38,\n", 5),
    ],
)
def test_trace_from_text_reports_the_offending_line(text, line):
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(text)
    assert exc.value.line == line


def test_trace_from_text_rejects_backwards_time():
    with pytest.raises(TraceOrderError):
        trace_from_text(GOOD_HEADER + "200,dev,37,\n100,dev,38,\n")


def test_trace_from_text_rejects_bad_est_label():
    text = (
        GOOD_HEADER.rstrip("\n") + ",est_channel\n" + "100,dev,37,-40.000000,40\n"
    )
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(text)
    assert exc.value.line == 4


def test_trace_from_text_rejects_bad_restart_lists():
    base = "# blechannel-trace v1\n# ts_ns=10 ds_ns=10 behavior=x seed=1\n"
    cols = "recv_time_ns,device_id,true_channel,rssi_dbm\n"
    with pytest.raises(TraceParseError):
        trace_from_text(base + "# restarts_ns=5,5\n" + cols)
    with pytest.raises(TraceParseError):
        trace_from_text(base + "# restarts_ns=5,abc\n" + cols)


META = "# ts_ns=4096000000 ds_ns=4096000000 behavior=compliant seed=1"


@pytest.mark.parametrize(
    "header, line, key",
    [
        (META + " ts_ns=5000000000", 2, "ts_ns"),
        (META + " seed=2", 2, "seed"),
        (META + "\n# ts_ns=1", 3, "ts_ns"),
        (META + " restarts_ns=0,5", None, None),
        (META + "\n# restarts_ns=0,5\n\n# restarts_ns=0,7", 5, "restarts_ns"),
    ],
)
def test_each_metadata_key_stands_once_in_the_header(header, line, key):
    """One rule for every ``#`` line before the column header, the metadata line included."""
    text = f"# blechannel-trace v1\n{header}\n{GOOD_HEADER.splitlines()[2]}\n"
    if key is None:
        trace = trace_from_text(text)
        assert (trace.scan_interval_ns, trace.seed, trace.restarts_ns) == (4_096_000_000, 1, (0, 5))
        return
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(text)
    assert str(exc.value) == f"line {line}: repeated metadata key {key!r}"
    assert exc.value.line == line


@pytest.mark.parametrize(
    "header, line, message",
    [
        ("# ds_ns=10 behavior=x seed=1\n# ts_ns=abc", 3, "bad metadata: invalid literal"),
        ("# ds_ns=10 behavior=x seed=1\n\n# ts_ns=5", 4, "need 0 < ds_ns <= ts_ns"),
        ("# ts_ns=5 behavior=x seed=1\n# ds_ns=10", 3, "need 0 < ds_ns <= ts_ns"),
    ],
)
def test_a_bad_metadata_value_names_the_line_of_its_key(header, line, message):
    text = f"# blechannel-trace v1\n{header}\n{GOOD_HEADER.splitlines()[2]}\n"
    with pytest.raises(TraceParseError, match=f"^line {line}: {message}"):
        trace_from_text(text)


def test_build_accuracy_curve_hand_counts():
    samples = [
        (0.0, True),
        (9.999, False),
        (10.0, True),  # lands in the second bucket, edges are half-open
        (25.0, None),
        (29.0, True),
        (30.0, True),  # at the horizon: dropped
        (-1.0, True),  # before the scan: dropped
    ]
    curve = build_accuracy_curve(samples, bucket_s=10.0, horizon_s=30.0)
    assert [b.start_s for b in curve.buckets] == [0.0, 10.0, 20.0]
    assert [b.end_s for b in curve.buckets] == [10.0, 20.0, 30.0]
    assert [(b.n_classified, b.n_correct, b.n_unclassified) for b in curve.buckets] == [
        (2, 1, 0),
        (1, 1, 0),
        (1, 1, 1),
    ]
    assert curve.buckets[0].accuracy == pytest.approx(0.5)
    totals = curve.totals
    assert (totals.n_classified, totals.n_correct, totals.n_unclassified) == (4, 3, 1)
    assert curve.first_imperfect_bucket() == curve.buckets[0]


def test_build_accuracy_curve_partial_last_bucket_and_validation():
    curve = build_accuracy_curve([(24.0, True)], bucket_s=10.0, horizon_s=25.0)
    assert curve.buckets[-1].end_s == 25.0
    assert len(curve.buckets) == 3
    with pytest.raises(ConfigError):
        build_accuracy_curve([], bucket_s=0.0, horizon_s=10.0)


def test_empty_bucket_has_no_accuracy():
    b = AccuracyBucket(start_s=0.0, end_s=10.0)
    assert b.accuracy is None
    assert build_accuracy_curve([], 10.0, 10.0).first_imperfect_bucket() is None


def test_curve_merge_pools_counts():
    a = build_accuracy_curve([(1.0, True), (11.0, False)], 10.0, 20.0)
    b = build_accuracy_curve([(2.0, True), (12.0, None)], 10.0, 20.0)
    merged = AccuracyCurve.merge([a, b])
    assert merged.buckets[0].n_classified == 2
    assert merged.buckets[1] == AccuracyBucket(10.0, 20.0, 1, 0, 1)
    with pytest.raises(ConfigError):
        AccuracyCurve.merge([a, build_accuracy_curve([], 5.0, 20.0)])
    with pytest.raises(NoDataError):
        AccuracyCurve.merge([])
    with pytest.raises(NoDataError):
        AccuracyCurve(buckets=()).totals


_counts = st.integers(0, 50)
_bucket_counts = st.tuples(_counts, _counts, _counts).map(
    lambda c: (c[0] + c[1], c[1], c[2])  # (classified, correct, unclassified)
)
# Three runs with the same number of buckets.
_three_runs = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_bucket_counts, min_size=n, max_size=n), min_size=3, max_size=3)
)


def _curve(counts):
    return AccuracyCurve(
        tuple(AccuracyBucket(10.0 * i, 10.0 * (i + 1), *c) for i, c in enumerate(counts))
    )


@settings(max_examples=100, deadline=None)
@given(_three_runs)
def test_curve_merge_is_associative_and_pools_the_totals(runs):
    a, b, c = (_curve(counts) for counts in runs)
    merge = AccuracyCurve.merge
    left = merge([merge([a, b]), c])
    assert left == merge([a, merge([b, c])]) == merge([a, b, c])
    pooled = [sum(x) for x in zip(*(bucket for counts in runs for bucket in counts))]
    assert list(left.totals.counts) == pooled


def test_curve_csv_round_trip(tmp_path):
    curve = build_accuracy_curve(
        [(1.0, True), (2.0, True), (3.0, False), (17.0, None)], 10.0, 30.0
    )
    path = tmp_path / "curve.csv"
    curve.write(str(path))
    back = AccuracyCurve.read(str(path))
    assert len(back.buckets) == 3
    for orig, rt in zip(curve.buckets, back.buckets):
        assert rt == orig
    text = curve.to_csv_text()
    # empty buckets leave the accuracy column blank rather than writing 0
    assert text.splitlines()[2].endswith(",0,0,1,")
    with pytest.raises(TraceParseError):
        AccuracyCurve.from_csv_text("start,end\n")
    with pytest.raises(TraceParseError):
        AccuracyCurve.from_csv_text(text.splitlines()[0] + "\n1,2,3\n")


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,30,-5,7,-1,", "counts"),
        ("0,30,5,7,1,", "counts"),
        ("nan,inf,1,1,0,", "edges"),
        ("0,inf,1,1,0,", "edges"),
        ("30,30,1,1,0,", "edges"),
        ("30,0,1,1,0,", "edges"),
        ("0,30,10,5,0,banana", "accuracy"),
        ("0,30,10,5,0,0.900000", "accuracy"),
        ("0,30,0,0,1,0.500000", "accuracy"),
        ("0,30,10,5,0,", "accuracy"),
        ("0,30,10,5,0,nan", "accuracy"),
    ],
)
def test_curve_csv_refuses_impossible_rows(row, message):
    good = build_accuracy_curve([(1.0, True), (12.0, False)], 10.0, 20.0)
    lines = good.to_csv_text().splitlines()
    assert AccuracyCurve.from_csv_text("\n".join(lines)) == good
    with pytest.raises(TraceParseError, match=message) as exc:
        AccuracyCurve.from_csv_text("\n".join(lines + [row]))
    assert exc.value.line == len(lines) + 1


@pytest.mark.parametrize(
    "n_classified, n_correct", [(3, 1), (2_000_000, 281), (2_000_000, 1_999_999)]
)
def test_curve_csv_reads_the_accuracy_the_writer_rounds(n_classified, n_correct):
    """Ratios at a tie of six decimals are written 5e-7 away, give or take a float error."""
    curve = AccuracyCurve((AccuracyBucket(0.0, 30.0, n_classified, n_correct, 0),))
    assert AccuracyCurve.from_csv_text(curve.to_csv_text()) == curve


def test_config_from_text_parses_sections_and_comments():
    cfg = ExperimentConfig.from_text(
        """
        # scenario
        [scan]
        scan_mode = SCAN_MODE_BALANCED
        duration_s = 120.5
        n_advertisers = 7
        ; trailing comment line
        behavior = rapid-toggle
        """
    )
    assert cfg.scan_mode == "SCAN_MODE_BALANCED"
    assert cfg.duration_s == 120.5
    assert cfg.n_advertisers == 7
    assert cfg.behavior == "rapid-toggle"
    assert cfg.explicit == {"scan_mode", "duration_s", "n_advertisers", "behavior"}
    # untouched fields keep their defaults
    assert cfg.guard_s == 0.2


@pytest.mark.parametrize(
    "text",
    [
        "does_not_exist = 1\n",
        "n_advertisers = four\n",
        "duration_s = \n",
        "[unterminated\n",
        "just a bare line\n",
        "drift_rate = nan\n",
        "duration_s = inf\n",
        "guard_s = -inf\n",
        "seed = 1\nseed = 2\n",
    ],
)
def test_config_from_text_rejects_bad_input(text):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text(text)


def test_config_channel_list_and_offsets():
    cfg = ExperimentConfig(adv_channels="37,39", channel_offsets_db="0, 5.5, -2")
    assert [c.id for c in cfg.channel_list()] == [37, 39]
    assert cfg.offsets() == (0.0, 5.5, -2.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(adv_channels="37,40").channel_list()
    with pytest.raises(ConfigError):
        ExperimentConfig(channel_offsets_db="1,2").offsets()
    with pytest.raises(ConfigError):
        ExperimentConfig(channel_offsets_db="a,b,c").offsets()


def test_simulate_scenario_is_deterministic_per_seed():
    a = simulate_scenario(SHORT, seed=3)
    b = simulate_scenario(SHORT, seed=3)
    c = simulate_scenario(SHORT, seed=4)
    assert a.packets == b.packets
    assert a.packets != c.packets
    assert len(a.packets) > 0
    assert a.restarts == (TimeInstant(0, APP_CLOCK),)


def test_restarts_are_a_column_that_classifies_as_their_instants():
    cfg = ExperimentConfig(duration_s=600.0)
    restarts_ns = tuple(range(1_234_567, 600 * 10**9, 6_000_000))
    trace = dataclasses.replace(simulate_scenario(cfg, 7), restarts_ns=restarts_ns)
    view = trace.restarts
    assert isinstance(view, Instants) and len(view) == 100_000
    assert view.ns.dtype == np.int64 and view.ns.tolist() == list(restarts_ns)
    instants = tuple(view)
    assert instants == tuple(TimeInstant(ns, APP_CLOCK) for ns in restarts_ns)
    dconf = cfg.scenario().detector
    a = classify_trace(trace.packets, view, dconf)
    b = classify_trace(trace.packets, instants, dconf)
    assert a.clock == b.clock == APP_CLOCK
    for col in ("restart_ns", "kind", "slot", "rem", "anchor"):
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype and np.array_equal(x, y), col


def test_simulate_scenario_restart_schedule_and_rssi():
    drift = 1e-3
    cfg = dataclasses.replace(
        SHORT, duration_s=150.0, restart_every_s=60.0, drift_rate=drift,
        jitter_min_s=0.05, jitter_max_s=0.05,
    )
    trace = simulate_scenario(cfg, seed=2, with_rssi=True)
    # the app reads its own clock for a restart; only its packets are delivered late
    schedule = (0, 60_000_000_000, 120_000_000_000)
    assert trace.restarts_ns == tuple(round(r / (1 + drift)) for r in schedule)
    assert trace.packets.recv_ns.min() >= 50_000_000
    assert all(p.rssi_dbm is not None for p in trace.packets)
    dry = simulate_scenario(cfg, seed=2)
    assert all(p.rssi_dbm is None for p in dry.packets)
    # attaching RSSI must not disturb the arrival stream
    assert [p.recv for p in dry.packets] == [p.recv for p in trace.packets]


def test_simulate_scenario_rejects_bad_modes():
    with pytest.raises(ConfigError):
        simulate_scenario(dataclasses.replace(SHORT, scan_mode="ADVERTISE_MODE_BALANCED"), 0)
    with pytest.raises(ConfigError):
        simulate_scenario(dataclasses.replace(SHORT, adv_mode="SCAN_MODE_BALANCED"), 0)
    with pytest.raises(ConfigError):
        simulate_scenario(dataclasses.replace(SHORT, duration_s=0.0), 0)


def test_detector_config_tracks_effective_settings():
    cfg = dataclasses.replace(SHORT, behavior="alt-interval", alt_interval_s=5.0)
    dconf = cfg.scenario().detector
    assert dconf.scan_settings.scan_interval == Duration.from_seconds(5.0)
    plain = SHORT.scenario().detector
    assert plain.scan_settings.scan_interval == Duration.from_seconds(4.096)


def test_every_part_is_built_once_per_call(monkeypatch):
    built = []
    parts = ["preset_settings", "behavior_from_tag", "ClockModel", "LossModel", "RssiModel"]
    for name in parts + ["DetectorConfig"]:
        def counted(*args, _make=getattr(harness, name), _name=name, **kwargs):
            built.append(_name)
            return _make(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    channel_list = ExperimentConfig.channel_list
    monkeypatch.setattr(
        ExperimentConfig, "channel_list", lambda cfg: built.append("channels") or channel_list(cfg)
    )
    once = sorted(parts + ["DetectorConfig", "channels", "preset_settings"])  # scan and adv
    SHORT.validate()
    assert sorted(built) == once
    built.clear()
    simulate_scenario(SHORT, seed=1, with_rssi=True)
    assert sorted(built) == once


def test_scenario_holds_the_restart_schedule_as_ns(monkeypatch):
    """Checking a config, or ranging with it, makes no instant per restart."""
    cfg = ExperimentConfig(restart_every_s=0.006)

    def no_instant(*args):
        raise AssertionError("a TimeInstant was built")

    monkeypatch.setattr(harness, "TimeInstant", no_instant)
    assert cfg.scenario().restarts_ns == range(0, 600 * 10**9, 6 * 10**6)
    run_ranging_experiment(cfg)
    monkeypatch.undo()
    short = dataclasses.replace(SHORT, restart_every_s=7.0)
    assert simulate_scenario(short, seed=1).restarts_ns[:2] == (0, 7 * 10**9)


def test_run_accuracy_experiment_compliant_is_clean():
    cfg = dataclasses.replace(SHORT, duration_s=60.0, bucket_s=30.0, n_seeds=2)
    curve = run_accuracy_experiment(cfg)
    assert [b.start_s for b in curve.buckets] == [0.0, 30.0]
    totals = curve.totals
    assert totals.n_classified > 100
    assert totals.n_correct == totals.n_classified
    with pytest.raises(ConfigError):
        run_accuracy_experiment(dataclasses.replace(cfg, n_seeds=0))


def test_matrix_behaviors_are_the_documented_six():
    assert MATRIX_BEHAVIORS == (
        "compliant",
        "balanced-offset",
        "alt-interval",
        "rapid-toggle",
        "nonstandard-order",
        "continue-channel",
    )


def test_samples_csv_round_trip(tmp_path):
    samples = [
        RangingSample(CH37, 1.5, -43.21),
        RangingSample(CH38, 12.0, -60.0),
    ]
    path = tmp_path / "s.csv"
    write_samples_csv(str(path), samples)
    assert read_samples_csv(str(path)) == samples
    bad = tmp_path / "bad.csv"
    bad.write_text("channel,distance_m\n", encoding="utf-8")
    with pytest.raises(TraceParseError):
        read_samples_csv(str(bad))
    bad.write_text("channel,distance_m,rssi_dbm\n36,1.0,-40\n", encoding="utf-8")
    with pytest.raises(TraceParseError) as exc:
        read_samples_csv(str(bad))
    assert exc.value.line == 2


_SAMPLE_CELLS = (
    st.sampled_from(["37", "38", "39"]),
    st.floats(min_value=0.01, max_value=100.0).map(repr),
    st.floats(min_value=-130.0, max_value=0.0).map(repr),
)
_BAD_CELLS = (
    st.sampled_from(["+37", "037", "36", "40", "x", "", "3.0", "9" * 30]),
    st.sampled_from(["0", "-1", "inf", "nan", "1e999", "1_0", "", ".5", "5.", "e", "1e-400"]),
    st.sampled_from(["-250", "nan", "-inf", "+3", "1e2", "", "-", "200", "-200.0000001"]),
)


@st.composite
def sample_texts(draw):
    """Samples CSV texts, plain or edited: CRLF or CR line ends, blank lines,
    padded cells, a vertical tab inside a row, rows with a bad cell or the
    wrong number of fields, no final line end."""
    lines = [harness.SAMPLES_COLUMNS]
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        cells = [draw(bad if draw(st.integers(0, 7)) == 0 else good)
                 for good, bad in zip(_SAMPLE_CELLS, _BAD_CELLS)]
        edit = draw(st.sampled_from(["none"] * 6 + ["pad", "vt", "fields", "blank"]))
        if edit == "pad":
            cells = [f" {c}\t" for c in cells]
        elif edit == "vt":
            at = draw(st.integers(min_value=0, max_value=2))
            cut = draw(st.integers(min_value=0, max_value=len(cells[at])))
            cells[at] = cells[at][:cut] + "\x0b" + cells[at][cut:]
        elif edit == "fields":
            cells = (cells + ["1"])[: draw(st.sampled_from([1, 2, 4]))]
        elif edit == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, end, ""]))


def _samples_read(reader, text):
    """A reader's columns, floats bit for bit, or its error and line."""
    try:
        s = reader(text)
    except TraceParseError as exc:
        assert "\n" not in str(exc)
        return str(exc), exc.line
    columns = (s.channel, s.distance_m, s.rssi_dbm)
    return [c.dtype.str for c in columns], s.channel.tolist(), [
        [x.hex() for x in c.tolist()] for c in columns[1:]
    ]


@settings(max_examples=400, deadline=None)
@given(text=sample_texts())
# a last row of one cell with no line end; a row of four cells then one of
# two; a vertical tab that int() strips and splitlines() breaks at; and a
# value out of range in each column of an otherwise plain body
@example(text="channel,distance_m,rssi_dbm\n37,1.5,-40.5\n37")
@example(text="channel,distance_m,rssi_dbm\n37,1.5,-40.5,1\n2,-3\n")
@example(text="channel,distance_m,rssi_dbm\n37\x0b,1.5,-40.5\n")
@example(text="channel,distance_m,rssi_dbm\n37,1.5,-40.5\n40,1.5,-40.5\n")
@example(text="channel,distance_m,rssi_dbm\n37,1.5,-40.5\n38,0,-40.5\n")
@example(text="channel,distance_m,rssi_dbm\n37,1.5,-40.5\n39,1.5,-250\n")
def test_samples_fast_path_and_row_reader_agree(text):
    expected = _samples_read(harness._sample_rows, text)
    assert _samples_read(harness.samples_from_text, text) == expected


def test_plain_samples_text_is_read_without_the_row_reader(monkeypatch):
    text = "channel,distance_m,rssi_dbm\n37,1.5,-43.21\n+38,12.0,-60.0\n39,2e1,-71.5\n"
    want = _samples_read(harness._sample_rows, text)

    def no_rows(text):
        raise AssertionError("a plain text went through the row reader")

    monkeypatch.setattr(harness, "_sample_rows", no_rows)
    assert _samples_read(harness.samples_from_text, text) == want
    assert want[1] == [37, 38, 39]


def test_parse_errors_name_the_file_line_after_blank_lines(tmp_path):
    """Blank lines are skipped but still counted in the reported line."""
    curve_text = AccuracyCurve(buckets=(AccuracyBucket(0.0, 10.0, 1, 1, 0),)).to_csv_text()
    curve_lines = curve_text.splitlines()
    bad_curve = "\n".join([curve_lines[0], "", curve_lines[1], "", "", "1,2,x,4,5,"]) + "\n"
    with pytest.raises(TraceParseError) as exc:
        AccuracyCurve.from_csv_text(bad_curve)
    assert exc.value.line == 6

    path = tmp_path / "s.csv"
    path.write_text(
        "\nchannel,distance_m,rssi_dbm\n\n37,1.0,-40\n\n36,1.0,-40\n", encoding="utf-8"
    )
    with pytest.raises(TraceParseError) as exc:
        read_samples_csv(str(path))
    assert exc.value.line == 6

    with pytest.raises(TraceParseError) as exc:
        trace_from_text(GOOD_HEADER + "99,dev,37,\n\n\n100,dev,38\n")
    assert exc.value.line == 7


def test_blank_lines_before_the_trace_header_are_skipped():
    tf = TraceFile(
        scan_interval_ns=4_096_000_000,
        scan_window_ns=4_096_000_000,
        behavior_tag="compliant",
        seed=9,
        restarts_ns=(0, 60_000_000_000),
        packets=(packet(100, rssi=-41.5), packet(61_000_000_000, channel=None)),
    )
    lines = trace_to_text(tf).splitlines(keepends=True)
    assert lines[3].startswith("recv_time_ns")
    spaced = "".join(lines[:2] + ["\n"] + lines[2:3] + ["  \n", "\n"] + lines[3:])
    assert trace_from_text(spaced) == trace_from_text(trace_to_text(tf)) == tf
    # errors after the blank lines still name the real file line
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(spaced.replace("recv_time_ns,", "recv_ns,"))
    assert exc.value.line == 7


def test_trace_times_must_fit_int64():
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(GOOD_HEADER + f"{2**63},dev,37,\n")
    assert exc.value.line == 4
    base = "# blechannel-trace v1\n# ts_ns=10 ds_ns=10 behavior=x seed=1\n"
    with pytest.raises(TraceParseError) as exc:
        trace_from_text(base + f"# restarts_ns=0,{2**63}\n" + GOOD_HEADER.splitlines()[2])
    assert exc.value.line == 3
    edge = trace_from_text(GOOD_HEADER + f"{-(2**63)},dev,37,\n{2**63 - 1},dev,38,\n")
    assert [p.recv.ns for p in edge.packets] == [-(2**63), 2**63 - 1]


def test_validate_bounds_are_exact():
    assert SHORT.validate() is SHORT
    # no advertisers, so the event cap below does not apply
    below = dataclasses.replace(
        SHORT, duration_s=(2**53 - 2**12) / 1e9, bucket_s=1e4, n_advertisers=0
    )
    below.validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(below, duration_s=2**53 / 1e9).validate()
    # 100000 buckets and 100000 restarts are allowed, one more is not
    most = dataclasses.replace(SHORT, duration_s=100_000.0, bucket_s=1.0, restart_every_s=1.0)
    most.validate()
    with pytest.raises(ConfigError, match="buckets"):
        dataclasses.replace(most, duration_s=100_000.5, restart_every_s=2.0).validate()
    with pytest.raises(ConfigError, match="restarts"):
        dataclasses.replace(most, duration_s=100_000.5, bucket_s=2.0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SHORT, restart_every_s=1e-10).validate()  # rounds to 0 ns
    for field in ("bucket_s", "drift_rate", "jitter_max_s", "restart_every_s"):
        with pytest.raises(ConfigError):
            dataclasses.replace(SHORT, **{field: math.nan}).validate()
    # 10 advertisers x (999_999 + 1) events at 100 ms are allowed, one more interval is not
    assert MAX_EVENTS == 10_000_000
    busiest = dataclasses.replace(SHORT, n_advertisers=10, duration_s=99_999.9)
    busiest.validate()
    with pytest.raises(ConfigError, match="events"):
        dataclasses.replace(busiest, duration_s=100_000.0).validate()
    with pytest.raises(ConfigError, match="events"):
        dataclasses.replace(busiest, n_advertisers=11).validate()


def test_window_cap_is_exact_and_ranging_fields_are_checked():
    # 1 ms alt-interval windows: 9_999_998 spacings plus 2 for the one epoch;
    # the guard must stay below that 1 ms interval
    assert MAX_WINDOWS == 10_000_000
    most = dataclasses.replace(
        SHORT, behavior="alt-interval", alt_interval_s=1e-3, n_advertisers=0,
        duration_s=9_999.998, bucket_s=1.0, guard_s=1e-4,
    )
    most.validate()
    with pytest.raises(ConfigError, match="scan windows"):
        dataclasses.replace(most, duration_s=9_999.999).validate()
    # a restart every 2 s adds 2 windows per further epoch
    with pytest.raises(ConfigError, match="scan windows"):
        dataclasses.replace(most, restart_every_s=2.0).validate()
    for field, value in [
        ("path_loss_exponent", math.nan),
        ("path_loss_exponent", -2.0),
        ("distance_max_m", math.inf),
        ("distance_min_m", math.nan),
        ("n_train", 3),
        ("n_test", 0),
    ]:
        with pytest.raises(ConfigError):
            dataclasses.replace(SHORT, **{field: value}).validate()
    fewest = dataclasses.replace(SHORT, n_train=4, n_test=1)
    dataclasses.replace(fewest, distance_min_m=5.0, distance_max_m=5.0).validate()


def test_columnar_samples_bucket_like_pairs():
    trace = simulate_scenario(dataclasses.replace(SHORT, drift_rate=-3e-3), seed=1)
    dconf = SHORT.scenario().detector
    samples = classification_samples(trace, dconf)
    assert samples.elapsed_s.max() >= SHORT.duration_s  # some fall past the horizon
    labels = [None, False, True]
    pairs = [(e, labels[o + 1]) for e, o in zip(samples.elapsed_s.tolist(), samples.outcome)]
    for bucket_s in (1.0, 7.0, 30.0):
        assert build_accuracy_curve(samples, bucket_s, SHORT.duration_s) == build_accuracy_curve(
            pairs, bucket_s, SHORT.duration_s
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    behavior=st.sampled_from(MATRIX_BEHAVIORS),
    scan_mode=st.sampled_from(
        ["SCAN_MODE_LOW_POWER", "SCAN_MODE_BALANCED", "SCAN_MODE_LOW_LATENCY"]
    ),
    n_advertisers=st.integers(0, 3),
    duration_s=st.floats(1.0, 40.0),
    restart_every_s=st.sampled_from([0.0, 3.0, 7.5]),
    drift_rate=st.floats(-2e-3, 2e-3),
    jitter_max_s=st.sampled_from([0.0, 0.003, 0.05]),
    loss_prob=st.sampled_from([0.0, 0.3]),
    with_rssi=st.booleans(),
    labels=st.one_of(st.none(), st.lists(st.sampled_from(sorted(EST_LABELS)), min_size=1)),
)
def test_trace_text_round_trip_is_byte_stable(
    seed, behavior, scan_mode, n_advertisers, duration_s, restart_every_s, drift_rate,
    jitter_max_s, loss_prob, with_rssi, labels,
):
    cfg = ExperimentConfig(
        behavior=behavior,
        scan_mode=scan_mode,
        n_advertisers=n_advertisers,
        duration_s=duration_s,
        restart_every_s=restart_every_s,
        drift_rate=drift_rate,
        jitter_max_s=jitter_max_s,
        loss_prob=loss_prob,
    )
    trace = simulate_scenario(cfg, seed, with_rssi=with_rssi)
    if labels is not None:
        n = len(trace.packets)
        trace = dataclasses.replace(trace, est_labels=tuple((labels * n)[:n]))
    text = trace_to_text(trace)
    back = trace_from_text(text)
    assert len(back.packets) == len(trace.packets)
    assert trace_to_text(back) == text


def reference_accuracy_experiment(cfg):
    """One curve per replica, pooled with ``AccuracyCurve.merge``."""
    dconf = cfg.scenario().detector
    curves = []
    for i in range(cfg.n_seeds):
        samples = classification_samples(simulate_scenario(cfg, cfg.seed + i), dconf)
        curves.append(build_accuracy_curve(samples, cfg.bucket_s, cfg.duration_s))
    return AccuracyCurve.merge(curves)


def reference_matrix_row(cfg, behavior):
    """Every replica's outcomes joined, then counted."""
    scen = dataclasses.replace(cfg, behavior=behavior)
    dconf = scen.scenario().detector
    outcome = np.concatenate(
        [
            classification_samples(simulate_scenario(scen, cfg.seed + i), dconf).outcome
            for i in range(cfg.n_seeds)
        ]
    )
    return MatrixRow(
        behavior,
        dconf.scan_settings.scan_interval.seconds,
        n_classified=int(np.count_nonzero(outcome >= 0)),
        n_correct=int(np.count_nonzero(outcome == 1)),
        n_unclassified=int(np.count_nonzero(outcome == -1)),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_seeds=st.integers(1, 3),
    duration_s=st.floats(1.0, 40.0),
    bucket_s=st.floats(0.25, 45.0),
    drift_rate=st.sampled_from([0.0, 5e-5, 2e-4, -3e-3]),
    restart_every_s=st.sampled_from([0.0, 3.0, 11.5]),
)
def test_pooled_experiments_match_the_per_replica_path(
    seed, n_seeds, duration_s, bucket_s, drift_rate, restart_every_s
):
    cfg = dataclasses.replace(
        SHORT,
        seed=seed,
        n_seeds=n_seeds,
        duration_s=duration_s,
        bucket_s=bucket_s,
        drift_rate=drift_rate,
        restart_every_s=restart_every_s,
    )
    assert run_accuracy_experiment(cfg) == reference_accuracy_experiment(cfg)
    rows = run_compatibility_matrix(cfg).rows
    assert rows == tuple(reference_matrix_row(cfg, tag) for tag in MATRIX_BEHAVIORS)


def test_replicas_are_dropped_before_the_next_is_simulated(monkeypatch):
    """Each experiment holds one replica's Samples at a time."""
    alive = []

    def simulate(cfg, seed, *args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        return simulate_scenario(cfg, seed, *args, **kwargs)

    def samples(trace, dconf):
        s = classification_samples(trace, dconf)
        alive.extend([weakref.ref(s.elapsed_s), weakref.ref(s.outcome)])
        return s

    monkeypatch.setattr(harness, "simulate_scenario", simulate)
    monkeypatch.setattr(harness, "classification_samples", samples)
    cfg = dataclasses.replace(SHORT, duration_s=20.0, bucket_s=5.0, n_seeds=3)
    run_accuracy_experiment(cfg)
    run_compatibility_matrix(cfg)
    assert len(alive) == 2 * cfg.n_seeds * (1 + len(MATRIX_BEHAVIORS))
