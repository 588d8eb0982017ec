"""The byte-column trace writer, the columnar trace parser and RSSI draws
against the code they replace.

``reference_trace_to_text`` is the %-format writer that the byte columns
replaced; ``reference_trace_from_text``, ``reference_attach_rssi`` and
``reference_ranging_samples`` are the row-at-a-time versions, one
``rng.gauss(0.0, sigma)`` added to each prediction in the last two.  They
are kept as the references, as
``reference_starts`` is in ``test_advertising_draws.py``.  The new versions
must write the same bytes, read the same columns or raise the same error
for the same line, and give the same readings and final generator state.
Readings are float64 columns in which NaN means no reading, in the
references too.  Small block sizes are patched in so that block edges fall
between every few rows.
"""

import dataclasses
import math
import os
import random
import string
import tempfile
import timeit
import tracemalloc
from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blechannel import harness, simkit
from blechannel.core import APP_CLOCK, CHANNEL_FREQ_HZ, RADIO_CLOCK, Channel, TimeInstant
from blechannel.detector import _LABELS, Labels
from blechannel.errors import ConfigError, TraceOrderError, TraceParseError
from blechannel.harness import (
    _DEVICE_ID,
    _INT64_MAX,
    _INT64_MIN,
    EST_COLUMN,
    EST_LABELS,
    MATRIX_BEHAVIORS,
    TRACE_COLUMNS,
    TRACE_MAGIC,
    ExperimentConfig,
    TraceFile,
    _csv_rows,
    _parse_meta_tokens,
    gen_ranging_samples,
    read_trace,
    simulate_scenario,
    trace_from_text,
    trace_to_text,
)
from blechannel.ranging import RangingSample
from blechannel.simkit import (
    _ALL_CHANNELS,
    _CHANNEL_OF_ID,
    PacketRecord,
    Packets,
    RssiModel,
    attach_rssi,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
)


def reference_trace_to_text(trace):
    """One %-format per 256 rows: %d for the time, names and channel texts
    from small tables, CPython's own %.6f for the readings."""
    lines = [
        TRACE_MAGIC,
        f"# ts_ns={trace.scan_interval_ns} ds_ns={trace.scan_window_ns} "
        f"behavior={trace.behavior_tag} seed={trace.seed}",
    ]
    if trace.restarts_ns != (0,):
        lines.append("# restarts_ns=" + ",".join(str(ns) for ns in trace.restarts_ns))
    packets = Packets.of(trace.packets)
    est = trace.est_labels
    if est is not None and len(est) != len(packets):
        raise ConfigError("one est_channel label per packet required")
    lines.append(TRACE_COLUMNS + ("," + EST_COLUMN if est is not None else ""))
    for device_id in packets.device_ids:
        if not _DEVICE_ID.fullmatch(device_id):
            raise ConfigError(f"device id not writable to CSV: {device_id!r}")
    names = np.array(packets.device_ids, object)
    codes, channel_code = np.unique(packets.channel, return_inverse=True)
    channel_text = np.array([str(c) if c else "" for c in codes.tolist()], object)
    rssi = packets.rssi_dbm
    row = "%d,%s,%s,"
    if np.isnan(rssi).any():
        rssi = ["" if math.isnan(r) else format(r, ".6f") for r in rssi.tolist()]
        row += "%s"
    else:
        rssi = rssi.tolist()
        row += "%.6f"
    row += "" if est is None else ",%s"
    text = ["\n".join(lines) + "\n"]
    for i in range(0, len(packets), 256):
        cells = [
            packets.recv_ns[i : i + 256].tolist(),
            names[packets.device[i : i + 256]].tolist(),
            channel_text[channel_code[i : i + 256]].tolist(),
        ]
        cells.append(rssi[i : i + 256])
        if est is not None:
            cells.append(est[i : i + 256])
        text.append(((row + "\n") * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))
    return "".join(text)


def reference_trace_from_text(text):
    """Every check row by row."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise TraceParseError(f"missing {TRACE_MAGIC!r} magic", line=1)
    if len(lines) < 2 or not lines[1].startswith("#"):
        raise TraceParseError("missing metadata line", line=2)
    meta = _parse_meta_tokens(lines[1], 2)
    try:
        scan_interval_ns = int(meta["ts_ns"])
        scan_window_ns = int(meta["ds_ns"])
        behavior = meta["behavior"]
        seed = int(meta["seed"])
    except KeyError as exc:
        raise TraceParseError(f"metadata key {exc.args[0]} missing", line=2) from exc
    except ValueError as exc:
        raise TraceParseError(f"bad metadata: {exc}", line=2) from exc
    if not 0 < scan_window_ns <= scan_interval_ns <= _INT64_MAX:
        raise TraceParseError("need 0 < ds_ns <= ts_ns < 2**63", line=2)

    restarts = (0,)
    i = 2
    while i < len(lines) and (lines[i].startswith("#") or not lines[i].strip()):
        extra = _parse_meta_tokens(lines[i], i + 1) if lines[i].startswith("#") else {}
        if "restarts_ns" in extra:
            try:
                restarts = tuple(int(v) for v in extra["restarts_ns"].split(","))
            except ValueError as exc:
                raise TraceParseError("bad restarts_ns list", line=i + 1) from exc
            if not restarts or any(b <= a for a, b in zip(restarts, restarts[1:])):
                raise TraceParseError(
                    "restarts_ns must be non-empty and strictly increasing", line=i + 1
                )
            if not _INT64_MIN <= restarts[0] <= restarts[-1] <= _INT64_MAX:
                raise TraceParseError("restarts_ns out of the int64 range", line=i + 1)
        i += 1

    if i >= len(lines):
        raise TraceParseError("missing column header", line=len(lines) + 1)
    header = lines[i].strip()
    if header == TRACE_COLUMNS:
        has_est = False
    elif header == TRACE_COLUMNS + "," + EST_COLUMN:
        has_est = True
    else:
        raise TraceParseError(f"unexpected columns {header!r}", line=i + 1)

    recv, device, channel, rssi, est = [], [], [], [], []
    device_ids = {}
    for lineno, parts in _csv_rows(lines, i + 1, 5 if has_est else 4):
        try:
            recv_ns = int(parts[0])
        except ValueError as exc:
            raise TraceParseError("recv_time_ns must be an integer", line=lineno) from exc
        if not _INT64_MIN <= recv_ns <= _INT64_MAX:
            raise TraceParseError("recv_time_ns out of the int64 range", line=lineno)
        if recv and recv_ns < recv[-1]:
            raise TraceOrderError(f"line {lineno}: timestamps moved backwards")
        recv.append(recv_ns)
        if parts[1] not in device_ids:
            if not _DEVICE_ID.fullmatch(parts[1]):
                raise TraceParseError(f"bad device id {parts[1]!r}", line=lineno)
            device_ids[parts[1]] = len(device_ids)
        device.append(device_ids[parts[1]])
        try:
            ch = int(parts[2]) if parts[2] else 0
        except ValueError:
            ch = -1
        if parts[2] and ch not in CHANNEL_FREQ_HZ:
            raise TraceParseError(f"bad true_channel {parts[2]!r}", line=lineno)
        channel.append(ch)
        try:
            rssi.append(float(parts[3]) if parts[3] else math.nan)
        except ValueError as exc:
            raise TraceParseError(f"bad rssi_dbm {parts[3]!r}", line=lineno) from exc
        if has_est:
            if parts[4] not in EST_LABELS:
                raise TraceParseError(f"bad est_channel {parts[4]!r}", line=lineno)
            est.append(parts[4])
    packets = Packets(
        recv_ns=np.array(recv, np.int64),
        device=np.array(device, np.intp),
        device_ids=tuple(device_ids),
        channel=np.array(channel, np.int64),
        window_index=np.full(len(recv), -1, np.int64),
        rssi_dbm=np.array(rssi, np.float64),
    )
    return TraceFile(
        scan_interval_ns=scan_interval_ns,
        scan_window_ns=scan_window_ns,
        behavior_tag=behavior,
        seed=seed,
        restarts_ns=restarts,
        packets=packets,
        est_labels=tuple(est) if has_est else None,
    )


def reference_attach_rssi(packets, model, distances, rng):
    """Per packet, the exact prediction plus one ``rng.gauss(0.0, sigma)`` if sigma > 0."""
    packets = Packets.of(packets)
    predict, sigma = model.to_calibration().predict_rssi, model.shadow_sigma_db
    where = [distances.get(d) for d in packets.device_ids]
    rssi = []
    for dev, ch in zip(packets.device.tolist(), packets.channel.tolist()):
        if where[dev] is None:
            raise ConfigError(f"no distance given for device {packets.device_ids[dev]!r}")
        level = predict(_CHANNEL_OF_ID[ch], where[dev])
        rssi.append(level + rng.gauss(0.0, sigma) if sigma > 0 else level)
    return replace(packets, rssi_dbm=np.array(rssi, np.float64))


def reference_ranging_samples(cfg, rssi, n, rng):
    """One sample at a time: channel, distance, then the prediction plus one
    ``rng.gauss(0.0, sigma)`` if sigma > 0."""
    predict, sigma = rssi.to_calibration().predict_rssi, rssi.shadow_sigma_db
    lo, hi = math.log10(cfg.distance_min_m), math.log10(cfg.distance_max_m)
    samples = []
    for _ in range(n):
        ch = rng.choice(_ALL_CHANNELS)
        d = 10.0 ** (lo + rng.random() * (hi - lo))
        level = predict(ch, d)
        samples.append(RangingSample(ch, d, level + rng.gauss(0.0, sigma) if sigma > 0 else level))
    return samples


def columns_of(packets):
    """Everything a Packets view holds, with dtypes; readings bit for bit,
    any NaN as None (no reading)."""
    cols = [getattr(packets, f) for f in ("recv_ns", "device", "channel", "window_index")]
    rssi = packets.rssi_dbm
    rssi = rssi.dtype.str, [None if math.isnan(r) else r.hex() for r in rssi.tolist()]
    return [(c.dtype.str, c.tolist()) for c in cols], packets.device_ids, packets.clock, rssi


def readings(values, n):
    """A float64 reading column of ``values``, None (no reading) as NaN; n NaN for None."""
    return np.full(n, np.nan) if values is None else np.array(values, np.float64)


DEVICES = ("d0", "d1", "d2")


def cycling_packets(n, rssi=None):
    """n packets, the three devices and the three channels in turn."""
    return Packets(
        recv_ns=np.arange(n, dtype=np.int64) * 1000,
        device=np.arange(n, dtype=np.intp) % 3,
        device_ids=DEVICES,
        channel=37 + np.arange(n, dtype=np.int64) % 3,
        window_index=np.full(n, -1, np.int64),
        rssi_dbm=readings(rssi, n),
    )


def outcome(parse, text):
    """What ``parse(text)`` gives, in a form that compares by value."""
    try:
        trace = parse(text)
    except (TraceParseError, TraceOrderError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    fields = dataclasses.asdict(dataclasses.replace(trace, packets=(), est_labels=None))
    labels = None if trace.est_labels is None else tuple(trace.est_labels)
    return fields, labels, columns_of(trace.packets)


TRACE_SCENARIOS = st.builds(
    ExperimentConfig,
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
)
LABEL_CYCLES = st.one_of(st.none(), st.lists(st.sampled_from(sorted(EST_LABELS)), min_size=1))


def label_view(texts):
    """The texts as the label-code view that ``classify`` writes."""
    return Labels(np.array([_LABELS.index(t) for t in texts], np.intp))


# est_labels as a caller's tuple of texts, or as a label-code view
LABEL_FORMS = st.sampled_from([tuple, label_view])


def with_labels(trace, labels, form=tuple):
    if labels is None:
        return trace
    n = len(trace.packets)
    return dataclasses.replace(trace, est_labels=form((labels * n)[:n]))


@st.composite
def simulated_traces(draw):
    trace = simulate_scenario(
        draw(TRACE_SCENARIOS), draw(st.integers(0, 2**32)), with_rssi=draw(st.booleans())
    )
    return with_labels(trace, draw(LABEL_CYCLES), draw(LABEL_FORMS))


READINGS = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, -40.0000005, 5e-7, -5e-7, 1e300, -1e-300]),
    st.integers(-200, 200),
)


@st.composite
def hand_built_traces(draw):
    """Packets as Packets.of builds them from records: mixed readings, channel 0, labels."""
    n = draw(st.integers(0, 40))
    names = draw(st.lists(st.from_regex(_DEVICE_ID, fullmatch=True), min_size=1, max_size=4))
    recv = sorted(draw(st.lists(st.integers(_INT64_MIN, _INT64_MAX), min_size=n, max_size=n)))
    rssi = draw(
        st.one_of(
            st.none(),
            st.lists(READINGS, min_size=n, max_size=n),
            st.lists(st.floats(-150, 50), min_size=n, max_size=n),
        )
    )
    device = draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
    channel = draw(st.lists(st.sampled_from([0, 37, 38, 39]), min_size=n, max_size=n))
    packets = Packets(
        recv_ns=np.array(recv, np.int64),
        device=np.array(device, np.intp),
        device_ids=tuple(names),
        channel=np.array(channel, np.int64),
        window_index=np.full(n, -1, np.int64),
        rssi_dbm=readings(rssi, n),
    )
    restarts = draw(st.sampled_from([(0,), (-5, 0, 10**12)]))
    trace = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, restarts, packets)
    return with_labels(trace, draw(LABEL_CYCLES), draw(LABEL_FORMS))


BLOCKS = st.sampled_from([1, 2, 3, 5, harness._TEXT_BLOCK, harness._TEXT_BLOCK + 1])


def nan_blocks_trace():
    """Readings whose blocks of two are all NaN, partly NaN and free of NaN."""
    packets = cycling_packets(6, [None, None, -40.5, None, 12.25, -0.0])
    return TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, packets=packets)


@settings(max_examples=60, deadline=None)
@given(trace=st.one_of(simulated_traces(), hand_built_traces()), block=BLOCKS)
@example(trace=nan_blocks_trace(), block=2)
def test_writer_matches_the_format_writer(trace, block):
    with mock.patch.object(harness, "_WRITE_BLOCK", block):
        assert trace_to_text(trace) == reference_trace_to_text(trace)


def near(x, step):
    """``x`` itself (step 0) or its float neighbour towards ``step``."""
    return math.nextafter(x, step * math.inf) if step else x


STEPS = st.integers(-1, 1)
# Readings that put the byte writer's exactness rule to work: every float,
# the values it hands to format() itself, exact decimal ties (odd multiples
# of 1/128 are the only ones) and dyadic fractions with their neighbours.
EDGE_READINGS = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2**52 / 1e6, 2**53 + 0.0]),
    st.builds(near, st.integers(-(2**45), 2**45).map(lambda j: (2 * j + 1) / 128), STEPS),
    st.builds(
        near,
        st.builds(lambda k, m: k / 2**m, st.integers(-(2**60), 2**60), st.integers(0, 80)),
        STEPS,
    ),
)
TIMES = st.one_of(
    st.integers(_INT64_MIN, _INT64_MAX),
    st.sampled_from([_INT64_MIN, _INT64_MIN + 1, -(10**18), -1, 0, 1, 10**18, _INT64_MAX]),
)


@st.composite
def edge_traces(draw):
    """(block, trace): 0, 1 or about a block of rows, with edge cells in every column."""
    block = draw(st.integers(1, 6))
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))

    def column(cells):
        return draw(st.lists(cells, min_size=n, max_size=n))

    id_text = st.text(string.ascii_letters + string.digits + "._:-", min_size=1, max_size=20)
    names = draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
    packets = Packets(
        recv_ns=np.array(sorted(column(TIMES)), np.int64),
        device=np.array(column(st.integers(0, len(names) - 1)), np.intp),
        device_ids=tuple(names),
        channel=np.array(column(st.sampled_from([0, 37, 38, 39])), np.int64),
        window_index=np.full(n, -1, np.int64),
        rssi_dbm=readings(column(EDGE_READINGS) if draw(st.booleans()) else None, n),
    )
    form = draw(LABEL_FORMS)
    labels = form(column(st.sampled_from(sorted(EST_LABELS)))) if draw(st.booleans()) else None
    return block, TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, (0,), packets, labels)


@settings(max_examples=400, deadline=None)
@given(case=edge_traces())
def test_byte_writer_matches_the_format_writer_on_edge_cells(case):
    block, trace = case
    with mock.patch.object(harness, "_WRITE_BLOCK", block):
        assert trace_to_text(trace) == reference_trace_to_text(trace)


@pytest.mark.parametrize("label", ["x,y", "3\x007", "", "Guard", " 37", "37\n38"])
def test_writer_refuses_labels_the_reader_refuses(label):
    packets = cycling_packets(3, [-50.5, None, -61.25])
    trace = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, packets=packets,
                      est_labels=("37", label, "39"))
    with pytest.raises(ConfigError) as exc:
        trace_to_text(trace)
    assert str(exc.value) == f"est_channel label not writable to CSV: {label!r}"
    with pytest.raises(TraceParseError):
        trace_from_text(reference_trace_to_text(trace))


# Cells that each column of a trace row may be replaced with: valid cells
# written another way, and invalid ones.  Some sit just outside what the
# reader converts from bytes, so int or float must read or refuse them:
# NULs, "-0", 19 digits, readings without six decimals or with q >= 2**53,
# non-ASCII digits, ids longer than a uint64 key or not ASCII, and ids
# that differ from another only by a trailing NUL, which uint64 keys
# would not tell apart.
BAD_CELLS = [
    ["abc", "1.5", "", "+5", "1_000", "007", " 12", "9223372036854775807",
     "9223372036854775808", "-9223372036854775808", "-9223372036854775809", "-1", "٣",
     "-0", "1234567890123456789", "-", "12\0"],
    ["a b", "", "dév", "a;b", "dev00", "dev01", "x", "dev\0", "dev:0123456789",
     "dev.01234", "ключ", "\ud800", "d0\0", "d2\0"],
    ["36", "x", "+37", "037", "37.0", "0", "", "38", " 39", "3_7", "37\0", "٣٧"],
    ["loud", "", "nan", "-nan", "NaN", "-inf", "1e400", " -40", "-4_0.5", "-40.000000",
     "0x10", "-0.000000", ".500000", "5.", "-40.0000001", "-40.00000", "9007199254.740993",
     "9007199254.740992", "٣٧.٥", "-", "12345678901.000000", "000000000000.000001",
     "12345678", "-40000000"],
    ["40", "", "C37", "guard ", "37", "guard", "pre-start", "unknown", "guard\0",
     "pre-start\0", "pre-stark"],
]


# Characters that str.splitlines breaks a line at besides "\n" ("\r" before
# "\n" makes one CRLF break with it).
BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def mutations(draw):
    """(row, how, arg) edits of a trace body."""
    how = draw(st.sampled_from(["blank", "spaces", "pad", "fields", "cell", "time", "break"]))
    arg = None
    if how == "break":
        arg = draw(st.sampled_from(BREAKS)), draw(st.sampled_from(["inside", "between", "end"]))
    elif how == "fields":
        arg = draw(st.sampled_from([-1, 1]))
    elif how == "cell":
        col = draw(st.integers(0, 4))
        arg = (col, draw(st.sampled_from(BAD_CELLS[col])))
    elif how == "time":
        arg = draw(st.integers(-2, 2))
    return draw(st.integers(0, 10**6)), how, arg


def mutate(body, row, how, arg):
    i = row % (len(body) + 1)
    if how == "blank":
        return body[:i] + [""] + body[i:]
    if how == "spaces":
        return body[:i] + ["  \t"] + body[i:]
    if not body:
        return body
    i = row % len(body)
    line = body[i]
    if how == "break":  # at the end of a row, "\r" gives the row a CRLF
        char, where = arg
        if where == "between" and i + 1 < len(body):
            return body[:i] + [line + char + body[i + 1]] + body[i + 2 :]
        at = row % (len(line) + 1) if where == "inside" else len(line)
        line = line[:at] + char + line[at:]
    elif how == "pad":
        line = (" " + line) if row % 2 else (line + "\t")
    elif how == "fields":
        line = line.rsplit(",", 1)[0] if arg < 0 else line + ",x"
    elif how == "cell":
        parts = line.split(",")
        parts[min(arg[0], len(parts) - 1)] = arg[1]
        line = ",".join(parts)
    else:  # the time relative to the row before, which may move it backwards
        parts = line.split(",")
        try:
            before = int(body[i - 1].split(",")[0]) if i else 0
        except ValueError:  # the row before was edited too
            before = 0
        parts[0] = str(before + arg)
        line = ",".join(parts)
    return body[:i] + [line] + body[i + 1 :]


@st.composite
def edited_texts(draw):
    """A written trace with up to three edits of its body, its lines ended
    by LF, CRLF or CR."""
    trace = draw(st.one_of(simulated_traces(), hand_built_traces()))
    lines = reference_trace_to_text(trace).splitlines()
    head = lines.index(next(ln for ln in lines if ln.startswith("recv_time_ns"))) + 1
    body = lines[head:]
    for edit in draw(st.lists(mutations(), max_size=3)):
        body = mutate(body, *edit)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines[:head] + body) + newline


@settings(max_examples=300, deadline=None)
@given(text=edited_texts(), block=BLOCKS)
def test_parser_matches_the_row_parser(text, block):
    with mock.patch.object(harness, "_TEXT_BLOCK", block):
        assert outcome(trace_from_text, text) == outcome(reference_trace_from_text, text)


@settings(max_examples=60, deadline=None)
@given(text=edited_texts())
def test_a_file_reads_as_its_text(text):
    """read_trace opens with universal newlines, which turn CR and CRLF into
    LF; both are line breaks to the parser, so nothing read changes."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate cannot be in a UTF-8 file
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        with open(path, "wb") as f:
            f.write(data)
        assert outcome(read_trace, path) == outcome(trace_from_text, text)


def test_header_lines_are_read_whole_at_any_length():
    """Header lines that end anywhere, CRLF ones split between their two
    characters included, as the header is read from prefixes of the text."""
    packets = cycling_packets(4, [-50.5, None, -61.25, 0.0])
    text = reference_trace_to_text(TraceFile(10, 10, "compliant", 0, packets=packets))
    lines = text.splitlines()
    want = outcome(reference_trace_from_text, text)
    assert want[2][0][0][1] == [0, 1000, 2000, 3000]
    for newline, step in (("\r\n", 1), ("\n", 5)):
        for filler in range(0, 2100, step):
            comments = ["# a=" + "x" * filler, "", "# b=" + "y" * (filler % 97)]
            edited = newline.join(lines[:2] + comments + lines[2:]) + newline
            assert outcome(trace_from_text, edited) == want
            no_columns = newline.join(lines[:2] + comments) + newline
            assert outcome(trace_from_text, no_columns)[1:] == ("line 6: missing column header", 6)


@pytest.mark.parametrize(
    "col, cell", [(col, cell) for col, cells in enumerate(BAD_CELLS) for cell in cells]
)
def test_each_bad_cell_reads_as_the_row_parser_reads_it(col, cell):
    """In the first, the last and every row, in blocks of one row, three and a whole block."""
    n = 7
    packets = cycling_packets(n, [-50.5, None, -61.25, 0.0, -1e-7, -40.000001, 12.0])
    labels = ("37", "guard", "38", "39", "pre-start", "37", "guard")
    trace = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, packets=packets,
                      est_labels=labels)
    lines = reference_trace_to_text(trace).splitlines()
    head, body = lines[:3], lines[3:]
    for rows in (range(1), range(n - 1, n), range(n)):
        edited = [line.split(",") for line in body]
        for i in rows:
            edited[i][col] = cell
        text = "\n".join(head + [",".join(parts) for parts in edited]) + "\n"
        want = outcome(reference_trace_from_text, text)
        for block in (1, 3, harness._TEXT_BLOCK):
            with mock.patch.object(harness, "_TEXT_BLOCK", block):
                assert outcome(trace_from_text, text) == want


def test_a_bad_row_is_named_quickly():
    """The failing block is halved until one row raises: a few block reads, not one per row."""
    trace = simulate_scenario(ExperimentConfig(), 7, with_rssi=True)
    lines = trace_to_text(trace).splitlines()
    assert len(trace.packets) == 22_864
    for row in (len(lines) - 1, 3 + harness._TEXT_BLOCK - 1):  # the last row, a first block's last
        bad = list(lines)
        bad[row] = "x" + bad[row][bad[row].index(",") :]
        text = "\n".join(bad) + "\n"
        assert outcome(trace_from_text, text) == (
            TraceParseError, f"line {row + 1}: recv_time_ns must be an integer", row + 1
        )
        assert min(timeit.repeat(lambda: outcome(trace_from_text, text), number=1, repeat=3)) < 0.2


def test_a_megabyte_device_id_is_read_in_little_memory():
    """One 1 MiB id among short ones: the ids of such a block are told apart by a
    dict, never in a fixed-width array of n copies of the widest."""
    n = 300
    packets = replace(
        cycling_packets(n), device_ids=("d0", "d" * 2**20, "d2"), device=np.zeros(n, np.intp)
    )
    packets.device[n // 2] = 1
    trace = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3, packets=packets)
    text = trace_to_text(trace)
    tracemalloc.start()
    try:
        trace_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a handful of copies of the id; n copies would be 300 MiB
    assert outcome(trace_from_text, text) == outcome(reference_trace_from_text, text)


def test_errors_past_the_first_block_name_their_line():
    n = harness._TEXT_BLOCK + 10
    trace = TraceFile(4_096_000_000, 1_024_000_000, "compliant", 3,
                      packets=cycling_packets(n, [-50.5] * n))
    text = trace_to_text(trace)
    assert text == reference_trace_to_text(trace)
    assert outcome(trace_from_text, text) == outcome(reference_trace_from_text, text)
    lines = text.splitlines()
    # a blank line and a padded row inside the first block move the first
    # row of the second block one file line down
    irregular = lines[:10] + ["", " " + lines[10] + "\t"] + lines[11:]
    irregular_text = "\n".join(irregular) + "\n"
    assert outcome(trace_from_text, irregular_text) == outcome(trace_from_text, text)
    assert outcome(trace_from_text, irregular_text) == outcome(
        reference_trace_from_text, irregular_text
    )

    def parse_with(lines, row, first_cell):
        bad = list(lines)
        bad[row] = first_cell + bad[row][bad[row].index(",") :]
        text = "\n".join(bad) + "\n"
        got = outcome(trace_from_text, text)
        assert got == outcome(reference_trace_from_text, text)
        return got

    for copy, row in ((lines, 3 + harness._TEXT_BLOCK), (irregular, 4 + harness._TEXT_BLOCK)):
        assert parse_with(copy, len(copy) - 1, "x")[::2] == (TraceParseError, len(copy))
        assert parse_with(copy, row, "0")[:2] == (
            TraceOrderError, f"line {row + 1}: timestamps moved backwards"
        )


def test_backwards_times_whose_difference_overflows():
    head = reference_trace_to_text(TraceFile(10, 10, "compliant", 0))
    for rows in (
        ["9223372036854775807,a,37,", "-9223372036854775808,a,37,"],
        ["-9223372036854775808,a,37,", "9223372036854775807,a,37,"],
    ):
        text = head + "\n".join(rows) + "\n"
        assert outcome(trace_from_text, text) == outcome(reference_trace_from_text, text)


HEADER = f"{TRACE_MAGIC}\n# ts_ns=10 ds_ns=10 behavior=compliant seed=0\n{TRACE_COLUMNS}\n"


@pytest.mark.parametrize("cell", ["", "nan", "-nan", "NaN", " nan"])
def test_a_nan_cell_reads_as_no_reading(cell):
    """float turns these cells into NaN, the mark of a packet without a reading."""
    parsed = trace_from_text(HEADER + f"5,d0,38,{cell}\n7,d1,39,-40.500000\n").packets
    assert parsed.rssi_dbm.dtype == np.float64
    assert [p.rssi_dbm for p in parsed] == [None, -40.5]
    assert trace_to_text(TraceFile(10, 10, "compliant", 0, packets=parsed)) == (
        HEADER + "5,d0,38,\n7,d1,39,-40.500000\n"
    )


def test_a_nan_reading_is_written_as_an_empty_cell():
    packets = cycling_packets(4, [math.nan, -50.5, -math.nan, None])
    trace = TraceFile(10, 10, "compliant", 0, packets=packets)
    text = trace_to_text(trace)
    assert text == reference_trace_to_text(trace)
    assert text.splitlines()[3:] == [
        "0,d0,37,", "1000,d1,38,-50.500000", "2000,d2,39,", "3000,d0,37,"
    ]
    back = trace_from_text(text).packets
    assert [p.rssi_dbm for p in back] == [None, -50.5, None, None]
    assert columns_of(Packets.of(list(back))) == columns_of(back)


def test_every_producer_gives_one_reading_column():
    """A float64 ``rssi_dbm`` as long as the packets, NaN for no reading, from each producer."""
    cfg = ExperimentConfig(duration_s=30.0)
    bare = simulate_scenario(cfg, 7)
    parts = cfg.scenario()
    restarts = [TimeInstant(0, RADIO_CLOCK)]
    end = TimeInstant(parts.duration.ns, RADIO_CLOCK)
    windows = gen_scan_windows(parts.behavior, parts.scan, restarts, end, random.Random(1))
    events = gen_advertising(parts.adv, "d0", restarts[0], end, random.Random(2))
    received = simulate_reception(
        events, windows, restarts, parts.clock, parts.loss, random.Random(3)
    )
    records = [PacketRecord(TimeInstant(5, APP_CLOCK), "d0", Channel.of(37)),
               PacketRecord(TimeInstant(7, APP_CLOCK), "d1", None, rssi_dbm=-40.5)]
    packets = {
        "simulate_reception": received,
        "simulate_scenario": bare.packets,
        "simulate_scenario with RSSI": simulate_scenario(cfg, 7, with_rssi=True).packets,
        "attach_rssi": attach_rssi(received, RssiModel(), {"d0": 2.0}, random.Random(4)),
        "trace_from_text": trace_from_text(trace_to_text(bare)).packets,
        "Packets.of": Packets.of(records),
    }
    for name, p in packets.items():
        assert len(p) > 0, name
        assert p.rssi_dbm.dtype == np.float64 and p.rssi_dbm.shape == (len(p),), name
    for name in ("simulate_reception", "simulate_scenario", "trace_from_text"):
        assert np.isnan(packets[name].rssi_dbm).all(), name
    for name in ("simulate_scenario with RSSI", "attach_rssi"):
        assert not np.isnan(packets[name].rssi_dbm).any(), name
    assert [p.rssi_dbm for p in packets["Packets.of"]] == [None, -40.5]


@settings(max_examples=60, deadline=None)
@given(
    cfg=st.builds(
        ExperimentConfig,
        behavior=st.sampled_from(MATRIX_BEHAVIORS),
        duration_s=st.floats(1.0, 40.0),
        restart_every_s=st.sampled_from([0.0, 3.0, 7.5]),
        drift_rate=st.floats(-2e-3, 2e-3),
        jitter_max_s=st.sampled_from([0.0, 0.003, 0.05]),
        shadow_sigma_db=st.sampled_from([0.0, 2.0]),
    ),
    seed=st.integers(0, 2**32),
    with_rssi=st.booleans(),
)
def test_a_simulated_capture_reads_back_as_written(cfg, seed, with_rssi):
    trace = simulate_scenario(cfg, seed, with_rssi=with_rssi)
    back = trace_from_text(trace_to_text(trace))
    meta = ("scan_interval_ns", "scan_window_ns", "behavior_tag", "seed", "restarts_ns")
    assert [getattr(back, f) for f in meta] == [getattr(trace, f) for f in meta]
    was, got = trace.packets, back.packets
    assert got.recv_ns.tolist() == was.recv_ns.tolist()
    assert got.channel.tolist() == was.channel.tolist()
    names = np.array(was.device_ids)[was.device].tolist()
    assert np.array(got.device_ids)[got.device].tolist() == names
    blank = np.isnan(was.rssi_dbm)
    assert np.isnan(got.rssi_dbm).tolist() == blank.tolist()
    assert not blank.any() if with_rssi else blank.all()
    written = [float(format(x, ".6f")) for x in was.rssi_dbm[~blank].tolist()]
    assert got.rssi_dbm[~blank].tolist() == written


@pytest.mark.parametrize("with_rssi", [False, True])
def test_written_traces_are_read_a_block_at_a_time(with_rssi):
    # long enough for two full blocks and a short one
    trace = simulate_scenario(ExperimentConfig(duration_s=300.0), 4, with_rssi=with_rssi)
    for labelled in (trace, with_labels(trace, ["37", "guard", "38"])):
        lines = trace_to_text(labelled).splitlines()
        n, block = len(labelled.packets), harness._TEXT_BLOCK
        assert n > 2 * block
        sizes = [block] * (n // block) + [n % block] * (n % block > 0)
        # a blank line in the body gives the same blocks and the same outcome
        outcomes = []
        for body in (lines, lines[:9] + [""] + lines[9:]):
            with mock.patch.object(harness, "_trace_block", wraps=harness._trace_block) as spy:
                outcomes.append(outcome(trace_from_text, "\n".join(body)))
            assert [call.args[1] for call in spy.call_args_list] == sizes
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0][0], dict)


def test_a_written_body_is_read_from_its_bytes():
    """Each block is a slice of the encoded body between NUL padding; no
    str row is made on the way, unless the body needs normalizing."""
    trace = simulate_scenario(ExperimentConfig(duration_s=300.0), 4, with_rssi=True)
    text = trace_to_text(trace)
    body = text.encode()[text.index("\n", text.index(TRACE_COLUMNS)) + 1 :]
    pad = bytes(harness._PAD)
    for edited, normalized in ((text, False), (text.replace("\n", "\r\n"), True)):
        with mock.patch.object(harness, "_trace_block", wraps=harness._trace_block) as spy, \
                mock.patch.object(harness, "_stripped_rows", wraps=harness._stripped_rows) as rows:
            back = trace_from_text(edited)
        assert rows.called == normalized
        blocks = [call.args[0] for call in spy.call_args_list]
        assert len(blocks) == 3 and all(type(b) is bytes for b in blocks)
        assert all(b.startswith(pad + b"\n") and b.endswith(b"\n" + pad) for b in blocks)
        assert b"".join(b[len(pad) + 1 : -len(pad)] for b in blocks) == body
        assert columns_of(back.packets) == columns_of(trace_from_text(text).packets)


@st.composite
def rssi_cases(draw):
    """(packets, model, distances, seed, pending gauss_next)."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 4, 7, 8]), st.integers(0, 200)))
    device = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    channel = draw(st.lists(st.sampled_from([37, 38, 39]), min_size=n, max_size=n))
    packets = Packets(
        recv_ns=np.arange(n, dtype=np.int64),
        device=np.array(device, np.intp),
        device_ids=DEVICES,
        channel=np.array(channel, np.int64),
        window_index=np.full(n, -1, np.int64),
        rssi_dbm=np.full(n, np.nan),
    )
    model = RssiModel(
        tx_power_dbm=draw(st.floats(-20, 10)),
        path_loss_exponent=draw(st.floats(1.5, 4.0)),
        shadow_sigma_db=draw(st.sampled_from([0.0, 0.5, 2.0, 3.7])),
        channel_offset_db=(0.0, draw(st.floats(-15, 15)), draw(st.floats(-15, 15))),
    )
    distances = dict(zip(DEVICES, draw(st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3))))
    return packets, model, distances, draw(st.integers(0, 2**64)), draw(st.booleans())


def assert_same_rssi(packets, model, distances, seed, pending):
    bulk, loop = random.Random(seed), random.Random(seed)
    if pending:
        bulk.gauss()
        loop.gauss()
    got = attach_rssi(packets, model, distances, bulk)
    want = reference_attach_rssi(packets, model, distances, loop)
    assert got.rssi_dbm.dtype == np.float64
    assert columns_of(got) == columns_of(want)
    assert bulk.getstate() == loop.getstate()


@settings(max_examples=200, deadline=None)
@given(case=rssi_cases(), block=st.sampled_from([1, 2, 3, simkit._GAUSS_BLOCK]))
def test_bulk_shadowing_matches_the_reader(case, block):
    with mock.patch.object(simkit, "_GAUSS_BLOCK", block):
        assert_same_rssi(*case)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n=st.one_of(st.integers(0, 9), st.integers(0, 3000)),
    pending=st.booleans(),
    block=st.sampled_from([1, 3, simkit._GAUSS_BLOCK]),
)
def test_bulk_gaussians_match_gauss_bit_for_bit(seed, n, pending, block):
    """The draws themselves, before shadowing scales them into the readings' rounding."""
    bulk, loop = random.Random(seed), random.Random(seed)
    if pending:
        bulk.gauss()
        loop.gauss()
    with mock.patch.object(simkit, "_GAUSS_BLOCK", block):
        got = simkit._gauss_draws(n, bulk)
    assert got.dtype == np.float64
    assert [float(z).hex() for z in got] == [loop.gauss().hex() for _ in range(n)]
    assert bulk.getstate() == loop.getstate()


def test_bulk_shadowing_over_more_than_one_block():
    model = RssiModel(shadow_sigma_db=2.0, channel_offset_db=(0.0, -7.0, -15.0))
    distances = {"d0": 1.5, "d1": 4.0, "d2": 9.25}
    for extra, seed, pending in ((3, 1, False), (6, 2, True)):
        packets = cycling_packets(2 * simkit._GAUSS_BLOCK + extra)
        assert_same_rssi(packets, model, distances, seed, pending)


def test_missing_distance_is_refused_before_any_draw():
    """The one departure from the reader loop, which drew for the packets before it."""
    packets = Packets(
        recv_ns=np.arange(4, dtype=np.int64),
        device=np.array([0, 2, 1, 2], np.intp),
        device_ids=DEVICES,
        channel=np.full(4, 37, np.int64),
        window_index=np.full(4, -1, np.int64),
        rssi_dbm=np.full(4, np.nan),
    )
    model = RssiModel(shadow_sigma_db=2.0)
    bulk, loop = random.Random(5), random.Random(5)
    for attach, rng in ((attach_rssi, bulk), (reference_attach_rssi, loop)):
        with pytest.raises(ConfigError, match="^no distance given for device 'd2'$"):
            attach(packets, model, {"d0": 1.0}, rng)
    assert bulk.getstate() == random.Random(5).getstate()
    assert loop.getstate() != bulk.getstate()


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_distance_that_is_not_finite_and_positive_is_refused_before_any_draw(distance):
    """NaN readings would be written as empty cells, inf as -inf readings."""
    packets = Packets(
        recv_ns=np.arange(3, dtype=np.int64),
        device=np.array([0, 1, 1], np.intp),
        device_ids=("a", "b"),
        channel=np.array([37, 38, 39], np.int64),
        window_index=np.full(3, -1, np.int64),
        rssi_dbm=np.full(3, np.nan),
    )
    rng = random.Random(5)
    with pytest.raises(ConfigError, match="^distance of device 'b' must be finite and positive$"):
        attach_rssi(packets, RssiModel(shadow_sigma_db=2.0), {"a": 1.0, "b": distance}, rng)
    assert rng.getstate() == random.Random(5).getstate()


def test_packet_without_a_channel_is_refused_before_any_draw():
    """Channel 0, as a blank true_channel parses, has no level to predict."""
    one = Packets(
        recv_ns=np.zeros(1, np.int64),
        device=np.zeros(1, np.intp),
        device_ids=("d0",),
        channel=np.zeros(1, np.int64),
        window_index=np.full(1, -1, np.int64),
        rssi_dbm=np.full(1, np.nan),
    )
    parsed = trace_from_text(HEADER + "5,d1,38,\n7,d2,,\n").packets
    model = RssiModel(shadow_sigma_db=2.0)
    for packets, device in ((one, "d0"), (parsed, "d2")):
        rng = random.Random(5)
        message = f"^no advertising channel for a packet of '{device}'$"
        with pytest.raises(ConfigError, match=message):
            attach_rssi(packets, model, dict.fromkeys(DEVICES, 1.0), rng)
        assert rng.getstate() == random.Random(5).getstate()


# A few repeated (channel, distance) pairs, and a free one now and then.
_pairs = st.tuples(
    st.sampled_from([37, 38, 39]), st.sampled_from([0.5, 2.0, 7.25]) | st.floats(0.1, 50.0)
)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(_pairs, max_size=40),
    sigma=st.sampled_from([0.0, 0.5, 2.0, 3.7]),
    offsets=st.tuples(st.floats(-15, 15), st.floats(-15, 15)),
    z=st.none() | st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-8, 8), min_size=40),
    as_arrays=st.booleans(),
)
def test_readings_are_predictions_plus_shadowing_bit_for_bit(pairs, sigma, offsets, z, as_arrays):
    model = RssiModel(
        tx_power_dbm=-4.0, shadow_sigma_db=sigma, channel_offset_db=(0.0, *offsets)
    )
    channel, distance = [c for c, _ in pairs], [d for _, d in pairs]
    z = z if z is None else z[: len(pairs)]
    if as_arrays:
        channel, distance = np.array(channel, np.int64), np.array(distance)
        z = z if z is None else np.array(z)
    got = model.readings(channel, distance, z)
    predict = model.to_calibration().predict_rssi
    want = [predict(Channel.of(c), d) for c, d in pairs]
    if z is not None:
        want = [level + (0.0 + float(zi) * sigma) for level, zi in zip(want, z)]
    assert got.dtype == np.float64
    assert [r.hex() for r in got.tolist()] == [w.hex() for w in want]


def test_readings_take_one_log10_per_distinct_distance(monkeypatch):
    calls = []
    log10 = math.log10
    monkeypatch.setattr(math, "log10", lambda x: calls.append(x) or log10(x))
    model = RssiModel(shadow_sigma_db=2.0)
    model.to_calibration()
    own = calls[:]  # the model's one-metre loss
    calls.clear()
    level = model.readings([37, 38, 37, 37, 39, 38], [2.0, 2.0, 2.0, 4.0, 2.0, 2.0])
    assert sorted(calls) == sorted(own + [2.0, 4.0])
    assert level[0] == level[2] and level[1] == level[5]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n=st.sampled_from([0, 1, 2, 3, 4, 7, 8]) | st.integers(0, 300),
    pending=st.booleans(),
    sigma=st.sampled_from([0.0, 0.5, 2.0, 3.7]),
    bounds=st.sampled_from([(1.0, 16.0), (0.25, 0.25), (0.5, 40.0)]),
)
def test_ranging_samples_match_the_per_sample_loop(seed, n, pending, sigma, bounds):
    cfg = ExperimentConfig(distance_min_m=bounds[0], distance_max_m=bounds[1])
    rssi = RssiModel(shadow_sigma_db=sigma, channel_offset_db=(0.0, 6.0, -9.5))
    bulk, loop = random.Random(seed), random.Random(seed)
    if pending:
        bulk.gauss()
        loop.gauss()
    got = gen_ranging_samples(cfg, rssi, n, bulk)
    want = reference_ranging_samples(cfg, rssi, n, loop)

    def fields(samples):
        return [(s.channel, type(s.rssi_dbm), s.distance_m.hex(), s.rssi_dbm.hex()) for s in samples]

    assert fields(got) == fields(want)
    assert bulk.getstate() == loop.getstate()
