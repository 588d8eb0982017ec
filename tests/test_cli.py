import contextlib
import io
import math
import os
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel import cli
from blechannel.harness import (
    EST_LABELS,
    AccuracyCurve,
    ExperimentConfig,
    read_trace,
    simulate_scenario,
    trace_to_text,
    write_samples_csv,
)
from blechannel.ranging import CalibrationModel, RangingSample
from blechannel.core import Channel


def run(argv):
    return cli.main(argv)


def test_simulate_then_classify_pipeline(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    out_path = tmp_path / "labeled.csv"
    assert run(["simulate", "--seed", "5", "--duration", "20", "--out", str(trace_path)]) == 0
    assert f"wrote {trace_path}" in capsys.readouterr().out

    assert run(["classify", "--in", str(trace_path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "accuracy against ground truth: 1.0000" in out

    labeled = read_trace(str(out_path))
    assert labeled.est_labels is not None
    assert len(labeled.est_labels) == len(labeled.packets)
    assert set(labeled.est_labels) <= EST_LABELS


def test_simulate_honours_behavior_and_no_rssi(tmp_path):
    trace_path = tmp_path / "trace.csv"
    args = ["simulate", "--seed", "1", "--duration", "15", "--behavior", "rapid-toggle"]
    assert run(args + ["--no-rssi", "--out", str(trace_path)]) == 0
    trace = read_trace(str(trace_path))
    assert trace.behavior_tag == "rapid-toggle"
    assert all(p.rssi_dbm is None for p in trace.packets)


def test_accuracy_writes_a_readable_curve(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("duration_s = 30\nbucket_s = 10\nn_advertisers = 2\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    assert run(["accuracy", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    assert "all buckets at 100%" in capsys.readouterr().out
    curve = AccuracyCurve.read(str(out))
    assert [b.start_s for b in curve.buckets] == [0.0, 10.0, 20.0]
    assert curve.totals.n_correct == curve.totals.n_classified > 0


def test_matrix_csv_has_one_row_per_behavior(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("duration_s = 20\nn_advertisers = 1\n", encoding="utf-8")
    out = tmp_path / "matrix.csv"
    assert run(["matrix", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "compliant" in stdout and "continue-channel" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("behavior,")
    assert len(lines) == 1 + 6


def test_ranging_emits_a_loadable_model(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("channel_offsets_db = 0,6,12\nseed = 21\n", encoding="utf-8")
    assert run(["ranging", "--config", str(cfg), "--model-out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "channel-aware RMSE" in out and "ratio" in out
    model = CalibrationModel.from_text(model_path.read_text(encoding="utf-8"))
    assert model.channel_aware
    assert model.n_samples == 600


def test_calibrate_recovers_known_model(tmp_path, capsys):
    truth = CalibrationModel(
        intercept_dbm=-40.0, path_loss_exponent=2.5, channel_offset_db=(0.0, 4.0, 8.0)
    )
    samples = [
        RangingSample(ch, d, truth.predict_rssi(ch, d))
        for ch in (Channel.of(37), Channel.of(38), Channel.of(39))
        for d in (1.0, 2.0, 4.0, 8.0)
    ]
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(str(csv_path), samples)
    model_path = tmp_path / "fit.txt"
    assert run(["calibrate", "--in", str(csv_path), "--out", str(model_path)]) == 0
    assert "offsets 38/39 4.000/8.000" in capsys.readouterr().out
    fit = CalibrationModel.from_text(model_path.read_text(encoding="utf-8"))
    assert fit.intercept_dbm == pytest.approx(-40.0, abs=1e-9)
    assert fit.path_loss_exponent == pytest.approx(2.5, abs=1e-9)

    assert run(["calibrate", "--in", str(csv_path), "--agnostic", "--exponent", "2.5"]) == 0
    assert "exponent 2.5000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "exponent,code,message",
    [
        ("nan", 2, "--exponent must be finite and positive, got nan"),
        ("inf", 2, "--exponent must be finite and positive, got inf"),
        ("0", 2, "--exponent must be finite and positive, got 0.0"),
        ("-2", 2, "--exponent must be finite and positive, got -2.0"),
        ("1e308", 1, "fitted model is not finite"),
    ],
)
def test_an_unusable_exponent_writes_no_model(tmp_path, capsys, exponent, code, message):
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(
        str(csv_path),
        [RangingSample(Channel.of(c), d, -40.0 - d) for c in (37, 38, 39) for d in (1.0, 2.0)],
    )
    # a flag refused as a usage error is refused before the samples are read
    infile = csv_path if code == 1 else tmp_path / "missing.csv"
    model_path = tmp_path / "fit.txt"
    started = time.perf_counter()
    argv = ["calibrate", "--in", str(infile), "--exponent", exponent, "--out", str(model_path)]
    assert run(argv) == code
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("row", ["37,inf,-50.0", "38,2.0,nan", "39,-2.0,-50.0"])
def test_unusable_samples_are_a_data_error_naming_the_line(tmp_path, capsys, row):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(
        "channel,distance_m,rssi_dbm\n37,1.0,-40.0\n" + row + "\n38,3.0,-50.0\n",
        encoding="utf-8",
    )
    assert run(["calibrate", "--in", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("rssi", ["1e200", "-200.5"])
def test_unphysical_sample_readings_are_refused_without_a_warning(tmp_path, capsys, rssi):
    csv_path = tmp_path / "samples.csv"
    rows = ["37,1.0,-40.0", "38,2.0,-47.0", f"39,4.0,{rssi}", "37,8.0,-58.0", "38,3.0,-50.0"]
    csv_path.write_text("channel,distance_m,rssi_dbm\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["calibrate", "--in", str(csv_path), "--out", str(tmp_path / "m.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 4: |rssi_dbm| above 200 dBm\n"
    assert captured.out == ""
    assert not (tmp_path / "m.txt").exists()


def test_env_seed_is_used_when_nothing_else_pins_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BLECHANNEL_SEED", "7")
    trace_path = tmp_path / "trace.csv"
    assert run(["simulate", "--duration", "10", "--out", str(trace_path)]) == 0
    assert read_trace(str(trace_path)).seed == 7
    # an explicit --seed always wins
    assert run(["simulate", "--duration", "10", "--seed", "9", "--out", str(trace_path)]) == 0
    assert read_trace(str(trace_path)).seed == 9
    # so does a seed pinned in the config file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 11\nduration_s = 10\n", encoding="utf-8")
    assert run(["simulate", "--config", str(cfg), "--out", str(trace_path)]) == 0
    assert read_trace(str(trace_path)).seed == 11
    capsys.readouterr()


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BLECHANNEL_SEED", "lucky")
    assert run(["simulate", "--duration", "10", "--out", str(tmp_path / "t.csv")]) == 2
    assert "BLECHANNEL_SEED" in capsys.readouterr().err


def test_bad_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("no_such_key = 1\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    assert run(["accuracy", "--config", str(cfg), "--out", str(out)]) == 2
    assert "no_such_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "duration_s = nan",
        "guard_s = nan",
        "drift_rate = nan",
        "duration_s = inf",
        "guard_s = 1e300",
    ],
)
def test_non_finite_config_values_are_a_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert run(["accuracy", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_non_finite_duration_flag_is_a_usage_error(tmp_path, capsys):
    assert run(["simulate", "--duration", "nan", "--out", str(tmp_path / "t.csv")]) == 2
    assert "duration out of range" in capsys.readouterr().err


def test_accuracy_says_so_when_nothing_was_classified(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("duration_s = 20\nbucket_s = 10\nn_advertisers = 0\n", encoding="utf-8")
    assert run(["accuracy", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    out = capsys.readouterr().out
    assert "0 classified" in out
    assert "no packet was classified" in out
    assert "100%" not in out


def test_unreadable_input_is_a_data_error(tmp_path, capsys):
    assert run(["classify", "--in", str(tmp_path / "missing.csv")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("not a trace\n", encoding="utf-8")
    assert run(["classify", "--in", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, code",
    [
        ("classify", "--in", 1),
        ("calibrate", "--in", 1),
        ("simulate", "--config", 2),
        ("accuracy", "--config", 2),
    ],
)
def test_non_utf8_input_is_a_one_line_error(tmp_path, capsys, command, flag, code):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes("# blechannel-trace v1\n".encode("utf-16"))  # starts with \xff\xfe
    out = tmp_path / "out.csv"
    assert run([command, flag, str(bad), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 0\n"
    assert not out.exists()


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for cfg in (tmp_path / "missing.cfg", tmp_path):
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {cfg}: ") and err.count("\n") == 1
        assert not out.exists()


def test_scan_interval_below_two_ns_is_a_config_error(tmp_path, capsys):
    # slot 2**64 - 1 of a 1 ns interval is channel 37 but wraps to -1 in int64
    trace = tmp_path / "tiny.csv"
    trace.write_text(
        "# blechannel-trace v1\n"
        "# ts_ns=1 ds_ns=1 behavior=compliant seed=1\n"
        "# restarts_ns=-9223372036854775808\n"
        "recv_time_ns,device_id,true_channel,rssi_dbm\n"
        "9223372036854775807,d,37,-40\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert run(["classify", "--in", str(trace), "--out", str(out), "--guard", "0"]) == 2
    assert capsys.readouterr().err == "error: scan interval must be at least 2 ns\n"
    assert not out.exists()


def test_missing_required_arguments_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run([])
    capsys.readouterr()


def test_classify_guard_width_changes_coverage(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert run(["simulate", "--seed", "4", "--duration", "30", "--out", str(trace_path)]) == 0
    capsys.readouterr()
    assert run(["classify", "--in", str(trace_path), "--guard", "0.2"]) == 0
    narrow = capsys.readouterr().out
    assert run(["classify", "--in", str(trace_path), "--guard", "2.0"]) == 0
    wide = capsys.readouterr().out

    def guard_count(text):
        token = text.split(" guard,")[0]
        return int(token.rsplit(" ", 1)[-1])

    assert guard_count(wide) > guard_count(narrow)
    assert not math.isnan(guard_count(wide))


def test_main_calls_share_no_parser_state(tmp_path, capsys):
    """Every main() call parses with the one cached parser; no value carries over."""
    trace_path = tmp_path / "trace.csv"
    simulate = ["simulate", "--seed", "4", "--duration", "30", "--out", str(trace_path)]
    assert run([*simulate, "--no-rssi"]) == 0
    assert run(simulate) == 0
    assert all(p.rssi_dbm is not None for p in read_trace(str(trace_path)).packets)
    capsys.readouterr()
    outs = []
    for guard in (["--guard", "0.5"], [], ["--guard", "0.2"]):
        assert run(["classify", "--in", str(trace_path), *guard]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] != outs[0]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "setting,message",
    [
        ("n_advertisers = -3", "n_advertisers must be non-negative"),
        ("n_seeds = 0", "n_seeds must be positive"),
        ("bucket_s = 1e-12", "more than 100000 buckets"),
        ("restart_every_s = 1e-9", "more than 100000 restarts"),
        ("duration_s = 9007199.254740992", "below 2**53 ns"),
        ("duration_s = 1e8", "below 2**53 ns"),
        ("drift_rate = -0.9999999999", "below 2**53 ns"),
    ],
)
def test_unrunnable_configs_are_one_line_config_errors(
    tmp_path, capsys, monkeypatch, setting, message
):
    from blechannel import harness

    def no_schedule(*args):
        raise AssertionError("the restart schedule was built")

    # ExperimentConfig.scenario() holds the restart schedule as ns; only
    # simulate_scenario makes its instants, after the config is accepted
    monkeypatch.setattr(harness, "TimeInstant", no_schedule)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(setting + "\n", encoding="utf-8")
    assert run(["accuracy", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


def test_event_cap_refuses_before_any_draw(tmp_path, capsys, monkeypatch):
    from blechannel import simkit

    def no_draw(*args):
        raise AssertionError("advertising was drawn")

    monkeypatch.setattr(simkit, "_event_starts", no_draw)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_advertisers = 10000000\n", encoding="utf-8")
    started = time.perf_counter()
    code = run(["accuracy", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert time.perf_counter() - started < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert "more than 10000000 advertising events per replica" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "accuracy", "matrix", "ranging"])
def test_every_experiment_command_validates_its_config(tmp_path, capsys, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_seeds = 0\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "o.csv")] if command in ("simulate", "accuracy") else []
    assert run([command, "--config", str(cfg), *out]) == 2
    assert "n_seeds must be positive" in capsys.readouterr().err


IN_BOUNDS = "must be a finite value in [-200, 200]"
FROM_SEVERAL_KEYS = ("more than", "guard_s must be", "predicted RSSI")
PREDICTED, OUT = "predicted RSSI on channel 37 at", "outside [-200, 200]"


@pytest.mark.parametrize(
    "command,setting,message",
    [
        ("ranging", "n_train = 0", "n_train must be at least 4"),
        ("ranging", "n_train = 3", "n_train must be at least 4"),
        ("ranging", "n_test = 0", "n_test must be positive"),
        ("ranging", "path_loss_exponent = 0", "path_loss_exponent must be positive"),
        ("ranging", "distance_min_m = 0", "need 0 < distance_min_m <= distance_max_m < inf"),
        ("ranging", "distance_min_m = 20", "need 0 < distance_min_m <= distance_max_m < inf"),
        (
            "simulate",
            "behavior = alt-interval\nalt_interval_s = 1e-9\nduration_s = 20",
            "more than 10000000 scan windows per replica",
        ),
        (
            "simulate",
            "behavior = rapid-toggle\nn_advertisers = 0\nduration_s = 8e6\nbucket_s = 100",
            "more than 10000000 scan windows per replica",
        ),
        (
            "matrix",
            "n_advertisers = 0\nduration_s = 8e6\nbucket_s = 100",
            "more than 10000000 scan windows per replica",
        ),
        ("matrix", "alt_interval_s = 0.1", "guard_s must be non-negative and below the scan interval"),
        ("simulate", "channel_offsets_db = nan,0,0", f"channel_offsets_db {IN_BOUNDS}"),
        ("simulate", "tx_power_dbm = 1e308", f"tx_power_dbm {IN_BOUNDS}"),
        ("simulate", "shadow_sigma_db = 1e308", f"shadow_sigma_db {IN_BOUNDS}"),
        ("ranging", "tx_power_dbm = 1e308", f"tx_power_dbm {IN_BOUNDS}"),
        ("ranging", "channel_offsets_db = inf,0,0", f"channel_offsets_db {IN_BOUNDS}"),
        ("ranging", "antenna_gain_db = -200.5", f"antenna_gain_db {IN_BOUNDS}"),
        ("matrix", "channel_offsets_db = 0,0,1e300", f"channel_offsets_db {IN_BOUNDS}"),
        ("simulate", "path_loss_exponent = 1e300", f"{PREDICTED} 16 m is -1.20412e+301 dBm, {OUT}"),
        ("ranging", "path_loss_exponent = 1e300", f"{PREDICTED} 16 m is -1.20412e+301 dBm, {OUT}"),
        (
            "ranging",
            "distance_min_m = 1e-9\npath_loss_exponent = 3",
            f"{PREDICTED} 1e-09 m is 229.941 dBm, {OUT}",
        ),
        (
            "simulate",
            "tx_power_dbm = 200\nantenna_gain_db = 200",
            f"{PREDICTED} 1 m is 359.941 dBm, {OUT}",
        ),
        ("accuracy", "shadow_sigma_db = -1", "shadow_sigma_db must be non-negative"),
        ("accuracy", "channel_offsets_db = 1,2", "channel_offsets_db needs exactly three values"),
        *(
            (command, setting, message)
            for command in ("simulate", "accuracy", "matrix", "ranging")
            for setting, message in [
                ("adv_channels = 40", "bad adv_channels '40': not an advertising channel: 40"),
                ("adv_channels = ,", "adv_channels names no channel"),
                ("loss_prob = 2", "loss_prob must be within [0, 1]"),
                ("guard_s = 5", "guard_s must be non-negative and below the scan interval"),
                ("max_scan_time_s = 4000", "max_scan_time_s must be positive and at most 1800 s"),
                ("idle_timeout_s = 0", "idle_timeout_s must be positive"),
                ("jitter_min_s = 2", "need 0 <= jitter_min_s <= jitter_max_s"),
                ("jitter_min_s = -1\njitter_max_s = 1", "need 0 <= jitter_min_s <= jitter_max_s"),
            ]
        ),
    ],
)
def test_config_faults_refuse_before_any_draw(
    tmp_path, capsys, monkeypatch, command, setting, message
):
    from blechannel import harness

    def no_draw(*args):
        raise AssertionError("samples or windows were drawn")

    monkeypatch.setattr(harness, "gen_scan_windows", no_draw)
    monkeypatch.setattr(harness, "gen_ranging_samples", no_draw)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(setting + "\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "t.csv")] if command in ("simulate", "accuracy") else []
    started = time.perf_counter()
    code = run([command, "--config", str(cfg), *out])
    assert time.perf_counter() - started < 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    # a fault of one key names a key the config sets; the caps, the guard
    # against the scan interval and the predicted levels rest on several
    keys = [line.partition(" =")[0] for line in setting.splitlines()]
    assert any(key in err for key in keys) or message.startswith(FROM_SEVERAL_KEYS)
    assert not (tmp_path / "t.csv").exists()


def test_a_channel_missing_by_chance_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_train = 4\nn_test = 1\n", encoding="utf-8")
    assert run(["ranging", "--config", str(cfg), "--seed", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: channel-aware calibration needs samples on all channels, missing [38]\n"
    )


@pytest.fixture(scope="module")
def clean_trace():
    cfg = ExperimentConfig(duration_s=30.0)
    return trace_to_text(simulate_scenario(cfg, seed=3, with_rssi=True)).encode("ascii")


EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    # most of a trace is rows, so aim a share of the edits at its header
    st.one_of(st.integers(0, 200), st.integers(0, 10**5)),
    st.sampled_from([bytes([b]) for b in b"\xff\n,#_-=. 0123456789e"]),
)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_an_edited_trace_classifies_or_gives_one_error_line(clean_trace, edits):
    data = bytearray(clean_trace)
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = byte
        elif at < len(data):
            data[at : at + 1] = byte if op == "replace" else b""
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "out.csv")
        with open(trace, "wb") as f:
            f.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["classify", "--in", trace, "--out", out])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
