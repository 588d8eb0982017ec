"""Trace files, experiment configuration and the canned experiments.

File formats kept here:

* trace CSV: ``# blechannel-trace v1`` magic, a metadata comment line, then
  ``recv_time_ns,device_id,true_channel,rssi_dbm`` rows, optionally with a
  trailing ``est_channel`` column after classification.
* accuracy curve CSV: per-bucket classification counts over elapsed scan
  time.
* experiment config: flat ``key = value`` lines, ``#``/``;`` comments,
  ``[section]`` headers allowed for grouping but carrying no meaning.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections.abc import Sequence
from itertools import chain, product, repeat
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import (
    APP_CLOCK,
    CHANNEL_FREQ_HZ,
    NS_PER_S,
    RADIO_CLOCK,
    AdvSettings,
    Channel,
    Duration,
    ScanSettings,
    TimeInstant,
    preset_settings,
)
from .detector import _LABELS, DetectorConfig, classify_trace
from .errors import ConfigError, NoDataError, TraceOrderError, TraceParseError
from .ranging import EstimatorComparison, RangingSample, compare_estimators
from .simkit import (
    _ALL_CHANNELS,
    _INT64_MAX,
    _INT64_MIN,
    BEHAVIOR_TAGS,
    AdvertisingEvents,
    ClockModel,
    LossModel,
    PacketRecord,
    Packets,
    RssiModel,
    ScannerBehavior,
    app_anchor_times,
    attach_rssi,
    behavior_from_tag,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
    substream,
)

TRACE_MAGIC = "# blechannel-trace v1"
TRACE_COLUMNS = "recv_time_ns,device_id,true_channel,rssi_dbm"
EST_COLUMN = "est_channel"
EST_LABELS = frozenset(_LABELS)
CURVE_COLUMNS = "bucket_start_s,bucket_end_s,n_classified,n_correct,n_unclassified,accuracy"
SAMPLES_COLUMNS = "channel,distance_m,rssi_dbm"
# Largest |rssi_dbm| a samples CSV may hold: far beyond any radio, and far
# below the readings whose squares overflow the least-squares fit.
MAX_SAMPLE_RSSI_DBM = 200.0
_RSSI_BOUNDS = f"[-{MAX_SAMPLE_RSSI_DBM:g}, {MAX_SAMPLE_RSSI_DBM:g}]"

_DEVICE_ID = re.compile(r"[A-Za-z0-9._:-]+")


@dataclass(frozen=True, slots=True)
class TraceFile:
    """A capture, simulated or read from a trace CSV: what the detector needs."""

    scan_interval_ns: int
    scan_window_ns: int
    behavior_tag: str
    seed: int
    restarts_ns: tuple[int, ...] = (0,)
    packets: Sequence[PacketRecord] = ()
    est_labels: tuple[str, ...] | None = None

    @property
    def scan_settings(self) -> ScanSettings:
        return ScanSettings(
            scan_interval=Duration(self.scan_interval_ns),
            scan_window=Duration(self.scan_window_ns),
        )

    @property
    def restarts(self) -> tuple[TimeInstant, ...]:
        return tuple([TimeInstant(ns, APP_CLOCK) for ns in self.restarts_ns])


# Rows that trace_to_text formats, and trace_from_text converts, at a time.
# Small blocks keep the cells in flight from raising the peak memory of a
# write or a parse; from 256 rows up the per-block cost no longer shows.
_TEXT_BLOCK = 1 << 8


def trace_to_text(trace: TraceFile) -> str:
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
    # Each block of rows is one %-format over its cells, row by row: %d for
    # the time, names and channel texts looked up in small tables, CPython's
    # own %.6f for the readings and %s for cells written ahead.
    names = np.array(packets.device_ids, object)
    codes, channel_code = np.unique(packets.channel, return_inverse=True)
    channel_text = np.array([str(c) if c else "" for c in codes.tolist()], object)
    rssi = packets.rssi_dbm
    row = "%d,%s,%s,"
    if rssi is not None and None in rssi:
        rssi = ["" if r is None else format(r, ".6f") for r in rssi]
        row += "%s"
    elif rssi is not None:
        row += "%.6f"
    row += "" if est is None else ",%s"
    text = ["\n".join(lines) + "\n"]
    for i in range(0, len(packets), _TEXT_BLOCK):
        cells = [
            packets.recv_ns[i : i + _TEXT_BLOCK].tolist(),
            names[packets.device[i : i + _TEXT_BLOCK]].tolist(),
            channel_text[channel_code[i : i + _TEXT_BLOCK]].tolist(),
        ]
        cells += [c[i : i + _TEXT_BLOCK] for c in (rssi, est) if c is not None]
        text.append(((row + "\n") * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))
    return "".join(text)


def write_text(path: str, text: str) -> None:
    """Write an output file: UTF-8 with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_trace(trace: TraceFile, path: str) -> None:
    write_text(path, trace_to_text(trace))


def _parse_meta_tokens(line: str, lineno: int) -> dict[str, str]:
    out = {}
    for token in line[1:].split():
        key, sep, value = token.partition("=")
        if not sep:
            raise TraceParseError(f"bad metadata token {token!r}", line=lineno)
        out[key] = value
    return out


def _csv_rows(lines: list[str], first: int, n_fields: int):
    """(lineno, fields) for each non-blank row of ``lines[first:]``.

    ``lineno`` is the 1-based line number in the file, blank lines counted.
    """
    for lineno, line in enumerate(lines[first:], start=first + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise TraceParseError(f"expected {n_fields} fields", line=lineno)
        yield lineno, parts


def _table_rows(text: str, columns: str, message: str):
    """Rows of a CSV whose first non-blank line is the ``columns`` header."""
    lines = text.splitlines()
    head = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if head == len(lines) or lines[head].strip() != columns:
        raise TraceParseError(message, line=head + 1)
    return _csv_rows(lines, head + 1, columns.count(",") + 1)


_CHANNEL_CELLS = {"": 0, **{str(c): c for c in CHANNEL_FREQ_HZ}}


def _channel_cell(cell: str) -> int | None:
    """A ``true_channel`` cell as ``int`` reads it: 37-39, 0 if blank, else None."""
    try:
        ch = int(cell) if cell else 0
    except ValueError:
        return None
    return ch if not cell or ch in CHANNEL_FREQ_HZ else None


def _trace_block(block: list[str], lineno: int, has_est: bool, device_ids: dict, prev):
    """The columns of ``block``, stripped non-blank trace rows from file line
    ``lineno`` on, after a row at time ``prev`` (None at the first row).

    New device ids go into ``device_ids``.  Each check runs once per column,
    in the field order of a row, so a one-row block raises exactly that
    row's error; in a longer block an error only says that some row is bad.
    """
    n_fields = 5 if has_est else 4
    if set(map(str.count, block, repeat(","))) != {n_fields - 1}:
        raise TraceParseError(f"expected {n_fields} fields", line=lineno)
    cells = ",".join(block).split(",")
    try:
        recv = np.array(list(map(int, cells[0::n_fields])), np.int64)
    except ValueError as exc:
        raise TraceParseError("recv_time_ns must be an integer", line=lineno) from exc
    except OverflowError as exc:
        raise TraceParseError("recv_time_ns out of the int64 range", line=lineno) from exc
    # compared, not differenced: the difference of two int64 times can wrap
    if (prev is not None and recv[0] < prev) or (recv[1:] < recv[:-1]).any():
        raise TraceOrderError(f"line {lineno}: timestamps moved backwards")
    names = cells[1::n_fields]
    for name in dict.fromkeys(names):
        if name not in device_ids:
            if not _DEVICE_ID.fullmatch(name):
                raise TraceParseError(f"bad device id {name!r}", line=lineno)
            device_ids[name] = len(device_ids)
    device = np.fromiter(map(device_ids.__getitem__, names), np.intp, len(names))
    channel_cells = cells[2::n_fields]
    channel = list(map(_CHANNEL_CELLS.get, channel_cells))
    if None in channel:  # cells such as "037", "+37" or " 39", or a bad one
        channel = list(map(_channel_cell, channel_cells))
        if None in channel:
            bad = channel_cells[channel.index(None)]
            raise TraceParseError(f"bad true_channel {bad!r}", line=lineno)
    readings = cells[3::n_fields]
    if readings.count("") == len(readings):
        rssi = [None] * len(readings)
    else:
        try:
            rssi = list(map(float, readings))
        except ValueError:  # blank cells among the readings, or a bad one
            rssi = []
            for r in readings:
                try:
                    rssi.append(float(r) if r else None)
                except ValueError as exc:
                    raise TraceParseError(f"bad rssi_dbm {r!r}", line=lineno) from exc
    est = cells[4::n_fields] if has_est else []
    if not EST_LABELS.issuperset(est):
        bad = next(e for e in est if e not in EST_LABELS)
        raise TraceParseError(f"bad est_channel {bad!r}", line=lineno)
    return recv, device, channel, rssi, est


def trace_from_text(text: str) -> TraceFile:
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
    # Metadata comments and blank lines may precede the column header.
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

    # Padding stripped and blank lines dropped once, each row keeping its
    # 1-based file line; then _TEXT_BLOCK rows at a time.  A block that fails
    # is read again one row at a time, so the error names the first bad line.
    body = lines[i + 1 :]
    rows = list(filter(None, map(str.strip, body)))
    linenos = range(i + 2, len(lines) + 1)
    if len(rows) < len(body):
        linenos = [n for n, line in zip(linenos, body) if line.strip()]
    blocks = [(np.zeros(0, np.int64), np.zeros(0, np.intp), [], [], [])]
    device_ids: dict[str, int] = {}
    prev = None
    for start in range(0, len(rows), _TEXT_BLOCK):
        block = rows[start : start + _TEXT_BLOCK]
        try:
            blocks.append(_trace_block(block, linenos[start], has_est, device_ids, prev))
        except (TraceParseError, TraceOrderError):
            for k in range(start, start + len(block)):  # the first bad row raises
                prev = _trace_block(rows[k : k + 1], linenos[k], has_est, device_ids, prev)[0][0]
            raise
        prev = blocks[-1][0][-1]
    recv, device, channel, rssi, est = zip(*blocks)
    recv = np.concatenate(recv)
    packets = Packets(
        recv_ns=recv,
        device=np.concatenate(device),
        device_ids=tuple(device_ids),
        channel=np.array(list(chain.from_iterable(channel)), np.int64),
        window_index=np.full(len(recv), -1, np.int64),
        rssi_dbm=list(chain.from_iterable(rssi)),
    )
    return TraceFile(
        scan_interval_ns=scan_interval_ns,
        scan_window_ns=scan_window_ns,
        behavior_tag=behavior,
        seed=seed,
        restarts_ns=restarts,
        packets=packets,
        est_labels=tuple(chain.from_iterable(est)) if has_est else None,
    )


def read_trace(path: str) -> TraceFile:
    with open(path, "r", encoding="utf-8") as f:
        return trace_from_text(f.read())


class _Counted:
    """Shared by rows of classification counts."""

    __slots__ = ()

    @property
    def accuracy(self) -> float | None:
        if self.n_classified == 0:
            return None
        return self.n_correct / self.n_classified

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.n_classified, self.n_correct, self.n_unclassified


@dataclass(frozen=True, slots=True)
class AccuracyBucket(_Counted):
    start_s: float
    end_s: float
    n_classified: int = 0
    n_correct: int = 0
    n_unclassified: int = 0


@dataclass(frozen=True, slots=True)
class AccuracyCurve:
    """Classification accuracy bucketed over elapsed scan time."""

    buckets: tuple[AccuracyBucket, ...]

    @property
    def totals(self) -> AccuracyBucket:
        if not self.buckets:
            raise NoDataError("empty accuracy curve")
        pooled = map(sum, zip(*(b.counts for b in self.buckets)))
        return AccuracyBucket(self.buckets[0].start_s, self.buckets[-1].end_s, *pooled)

    def first_imperfect_bucket(self) -> AccuracyBucket | None:
        """Earliest bucket that classified something and got any of it wrong."""
        for b in self.buckets:
            if b.n_classified > 0 and b.n_correct < b.n_classified:
                return b
        return None

    @staticmethod
    def merge(curves: list["AccuracyCurve"]) -> "AccuracyCurve":
        """Pool bucket counts across runs with identical bucket edges."""
        if not curves:
            raise NoDataError("nothing to merge")
        edges = [(b.start_s, b.end_s) for b in curves[0].buckets]
        for c in curves[1:]:
            if [(b.start_s, b.end_s) for b in c.buckets] != edges:
                raise ConfigError("cannot merge curves with different bucket edges")
        pooled = (map(sum, zip(*(c.buckets[i].counts for c in curves))) for i in range(len(edges)))
        return _curve(edges, pooled)

    def to_csv_text(self) -> str:
        lines = [CURVE_COLUMNS]
        for b in self.buckets:
            acc = "" if b.accuracy is None else format(b.accuracy, ".6f")
            lines.append(
                f"{b.start_s:.10g},{b.end_s:.10g},"
                f"{b.n_classified},{b.n_correct},{b.n_unclassified},{acc}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        write_text(path, self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "AccuracyCurve":
        buckets = []
        for lineno, parts in _table_rows(text, CURVE_COLUMNS, "not an accuracy-curve CSV"):
            try:
                buckets.append(
                    AccuracyBucket(
                        start_s=float(parts[0]),
                        end_s=float(parts[1]),
                        n_classified=int(parts[2]),
                        n_correct=int(parts[3]),
                        n_unclassified=int(parts[4]),
                    )
                )
            except ValueError as exc:
                raise TraceParseError(f"bad bucket row: {exc}", line=lineno) from exc
        return cls(buckets=tuple(buckets))

    @classmethod
    def read(cls, path: str) -> "AccuracyCurve":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_csv_text(f.read())


# Upper bounds on what one config may ask for, so that a typo gives a
# ConfigError instead of exhausting memory or time.
MAX_BUCKETS = 100_000
MAX_RESTARTS = 100_000
# Advertising events of one replica, counted as if every delay were 0.
MAX_EVENTS = 10_000_000
# Scan windows of one replica, counted as if every window were the
# shortest spacing apart, plus up to two cut-short windows per epoch.
MAX_WINDOWS = 10_000_000
# Times are int64 ns, and ClockModel.to_app_ns is exact below 2**53 ns
# (about 104 days); every simulated instant must stay below that.
MAX_TIME_NS = 2**53


def _bucket_count(bucket_s: float, horizon_s: float) -> int:
    if bucket_s <= 0 or horizon_s <= 0:
        raise ConfigError("bucket_s and horizon_s must be positive")
    n = horizon_s / bucket_s
    if not n <= MAX_BUCKETS:
        raise ConfigError(f"bucket_s gives more than {MAX_BUCKETS} buckets")
    return math.ceil(n)


class Samples(NamedTuple):
    """Curve input as columns: elapsed seconds since the anchor and an
    outcome per packet, 1 for a correct channel, 0 for a wrong one and -1
    for unclassified (guard, pre-start or missing ground truth)."""

    elapsed_s: np.ndarray
    outcome: np.ndarray


def _tally(outcome: np.ndarray, idx: np.ndarray | int, n: int) -> np.ndarray:
    """(n, 3) int64 counts per bucket index: classified, correct, unclassified."""
    counts = np.bincount(3 * idx + outcome + 1, minlength=3 * n).reshape(n, 3)
    unclassified, wrong, correct = counts.T
    return np.stack([wrong + correct, correct, unclassified], axis=1)


def _bucketed(samples: Samples, bucket_s: float, horizon_s: float) -> np.ndarray:
    """:func:`_tally` of the samples in [0, horizon) by ``bucket_s`` bucket."""
    n = _bucket_count(bucket_s, horizon_s)
    keep = (samples.elapsed_s >= 0) & (samples.elapsed_s < horizon_s)
    idx = np.minimum((samples.elapsed_s[keep] / bucket_s).astype(np.int64), n - 1)
    return _tally(samples.outcome[keep], idx, n)


def _curve(edges, counts) -> AccuracyCurve:
    """A curve of one bucket per (start_s, end_s) edge and counts triple."""
    return AccuracyCurve(tuple(AccuracyBucket(s, e, *c) for (s, e), c in zip(edges, counts)))


def build_accuracy_curve(samples, bucket_s: float, horizon_s: float) -> AccuracyCurve:
    """Bucket :class:`Samples`, an iterable of them, or (elapsed_seconds, outcome) pairs.

    An iterable of Samples is pooled one at a time, so a generator of
    replicas never has two of them alive.  A pair's ``outcome`` is True for
    a correct channel, False for a wrong one and None for unclassified.
    Samples outside [0, horizon) are dropped.
    """
    n = _bucket_count(bucket_s, horizon_s)
    counts = np.zeros((n, 3), np.int64)
    pairs = []
    for item in [samples] if isinstance(samples, Samples) else samples:
        if isinstance(item, Samples):
            counts += _bucketed(item, bucket_s, horizon_s)
        else:
            e, o = item
            pairs.append((e, -1 if o is None else int(bool(o))))
        del item  # drop this replica before the next one is drawn
    pairs = np.array(pairs, np.float64).reshape(-1, 2)
    counts += _bucketed(Samples(pairs[:, 0], pairs[:, 1].astype(np.int64)), bucket_s, horizon_s)
    edges = [(i * bucket_s, min((i + 1) * bucket_s, horizon_s)) for i in range(n)]
    return _curve(edges, counts.tolist())


MATRIX_BEHAVIORS = tuple(BEHAVIOR_TAGS)


class Scenario(NamedTuple):
    """Every part a replica runs from, as :meth:`ExperimentConfig.scenario` builds them."""

    scan: ScanSettings
    adv: AdvSettings
    behavior: ScannerBehavior
    duration: Duration
    channels: tuple[Channel, ...]
    clock: ClockModel
    loss: LossModel
    rssi: RssiModel
    detector: DetectorConfig
    # radio instants at which scanning (re)starts, 0 first
    restarts: list[TimeInstant]


@dataclass
class ExperimentConfig:
    """Flat settings shared by the canned experiments.

    Everything has a workable default, so a config file only needs the
    fields it wants to change.
    """

    seed: int = 0
    n_seeds: int = 1
    duration_s: float = 600.0
    bucket_s: float = 30.0
    scan_mode: str = "SCAN_MODE_LOW_LATENCY"
    adv_mode: str = "ADVERTISE_MODE_LOW_LATENCY"
    n_advertisers: int = 4
    adv_channels: str = "37,38,39"
    behavior: str = "compliant"
    alt_interval_s: float = 5.0
    restart_every_s: float = 0.0
    drift_rate: float = 0.0
    jitter_min_s: float = 0.0
    jitter_max_s: float = 0.0
    loss_prob: float = 0.0
    guard_s: float = 0.2
    max_scan_time_s: float = 600.0
    idle_timeout_s: float = 300.0
    tx_power_dbm: float = 0.0
    antenna_gain_db: float = 0.0
    path_loss_exponent: float = 2.0
    shadow_sigma_db: float = 2.0
    channel_offsets_db: str = "0,0,0"
    distance_min_m: float = 1.0
    distance_max_m: float = 16.0
    n_train: int = 600
    n_test: int = 300
    explicit: frozenset = field(default_factory=frozenset, repr=False, compare=False)

    def channel_list(self) -> tuple[Channel, ...]:
        try:
            ids = [int(v) for v in self.adv_channels.split(",") if v.strip()]
            return tuple([Channel.of(i) for i in ids])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad adv_channels {self.adv_channels!r}: {exc}") from exc

    def scenario(self) -> "Scenario":
        """Build every part a replica runs from, or raise ConfigError.

        Each cap (``MAX_BUCKETS``, ``MAX_RESTARTS``, ``MAX_EVENTS``,
        ``MAX_WINDOWS``, ``MAX_TIME_NS``) is checked before anything it bounds
        is built, and the restart schedule is built last.  The ranging fields
        need ``n_train >= 4``, ``n_test >= 1``, a positive path-loss exponent
        and ``0 < distance_min_m <= distance_max_m < inf``; the RSSI model's dB
        figures, and the level it predicts on each channel at both distance
        bounds, must be finite and within ``MAX_SAMPLE_RSSI_DBM`` of zero.
        """
        if self.n_advertisers < 0:
            raise ConfigError("n_advertisers must be non-negative")
        if self.n_seeds <= 0:
            raise ConfigError("n_seeds must be positive")
        duration = Duration.from_seconds(self.duration_s)
        if duration.ns <= 0:
            raise ConfigError("duration_s must be positive")
        clock = ClockModel(
            drift_rate=self.drift_rate, jitter_range=(self.jitter_min_s, self.jitter_max_s)
        )
        app_end = duration.ns / (1.0 + self.drift_rate) + self.jitter_max_s * NS_PER_S
        if not (duration.ns < MAX_TIME_NS and app_end < MAX_TIME_NS):
            raise ConfigError("simulated instants must stay below 2**53 ns (about 104 days)")
        adv = _preset(self.adv_mode, AdvSettings, "an advertise mode")
        if self.n_advertisers * (duration.ns // adv.base_interval.ns + 1) > MAX_EVENTS:
            raise ConfigError(f"more than {MAX_EVENTS} advertising events per replica")
        _bucket_count(self.bucket_s, self.duration_s)
        every_ns = Duration.from_seconds(self.restart_every_s).ns
        step_ns = every_ns if self.restart_every_s > 0 else duration.ns
        if step_ns * MAX_RESTARTS < duration.ns:
            raise ConfigError(f"restart_every_s gives more than {MAX_RESTARTS} restarts")
        scan = _preset(self.scan_mode, ScanSettings, "a scan mode")
        behavior = behavior_from_tag(
            self.behavior, alt_interval=Duration.from_seconds(self.alt_interval_s)
        )
        n_epochs = -(-duration.ns // step_ns)
        if duration.ns // behavior.min_gap_ns(scan) + 2 * n_epochs > MAX_WINDOWS:
            raise ConfigError(f"more than {MAX_WINDOWS} scan windows per replica")
        # the detector is granted what the device really does
        detector = DetectorConfig(
            scan_settings=behavior.effective_settings(scan),
            guard=Duration.from_seconds(self.guard_s),
            max_scan_time=Duration.from_seconds(self.max_scan_time_s),
            idle_timeout=Duration.from_seconds(self.idle_timeout_s),
        )
        channels = self.channel_list()
        if self.n_advertisers and not channels:
            raise ConfigError("adv_channels names no channel")
        loss = LossModel(drop_prob=self.loss_prob)
        if self.n_train < 4:  # the unknowns of a channel-aware fit
            raise ConfigError("n_train must be at least 4")
        if self.n_test < 1:
            raise ConfigError("n_test must be positive")
        if not self.path_loss_exponent > 0:
            raise ConfigError("path_loss_exponent must be positive")
        if not 0 < self.distance_min_m <= self.distance_max_m < math.inf:
            raise ConfigError("need 0 < distance_min_m <= distance_max_m < inf")
        rssi = RssiModel(
            tx_power_dbm=self.tx_power_dbm,
            antenna_gain_db=self.antenna_gain_db,
            path_loss_exponent=self.path_loss_exponent,
            shadow_sigma_db=self.shadow_sigma_db,
            channel_offset_db=self.offsets(),
        )
        for name, value in [
            ("tx_power_dbm", rssi.tx_power_dbm),
            ("antenna_gain_db", rssi.antenna_gain_db),
            ("shadow_sigma_db", rssi.shadow_sigma_db),
            *(("channel_offsets_db", v) for v in rssi.channel_offset_db),
        ]:
            if not abs(value) <= MAX_SAMPLE_RSSI_DBM:  # nan fails too
                raise ConfigError(f"{name} must be a finite value in {_RSSI_BOUNDS}")
        predict = rssi.to_calibration().predict_rssi
        for ch, d in product(_ALL_CHANNELS, (self.distance_min_m, self.distance_max_m)):
            level = predict(ch, d)
            if not abs(level) <= MAX_SAMPLE_RSSI_DBM:  # nan fails too
                at = f"on channel {ch.id} at {d:g} m is {level:g} dBm"
                raise ConfigError(f"predicted RSSI {at}, outside {_RSSI_BOUNDS}")
        restarts = [TimeInstant(ns, RADIO_CLOCK) for ns in range(0, duration.ns, step_ns)]
        return Scenario(
            scan, adv, behavior, duration, channels, clock, loss, rssi, detector, restarts
        )

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError unless :meth:`scenario` builds; returns the config."""
        self.scenario()
        return self

    def offsets(self) -> tuple[float, float, float]:
        parts = [v.strip() for v in self.channel_offsets_db.split(",")]
        if len(parts) != 3:
            raise ConfigError("channel_offsets_db needs exactly three values")
        try:
            a, b, c = (float(v) for v in parts)
        except ValueError as exc:
            raise ConfigError(f"bad channel_offsets_db: {exc}") from exc
        return (a, b, c)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        known = {f.name: f.type for f in fields(cls) if f.name != "explicit"}
        kwargs = {}
        for key, value in _parse_config_lines(text).items():
            ftype = known.get(key)
            if ftype is None:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                if ftype == "int":
                    kwargs[key] = int(value)
                elif ftype == "float":
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
            if ftype == "float" and not math.isfinite(kwargs[key]):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        return cls(**kwargs, explicit=frozenset(kwargs))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_text(f.read())


def _parse_config_lines(text: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value")
        out[key.strip()] = value.strip()
    return out


def _preset(name: str, kind: type, what: str):
    settings = preset_settings(name)
    if not isinstance(settings, kind):
        raise ConfigError(f"{name} is not {what}")
    return settings


def simulate_scenario(cfg: ExperimentConfig, seed: int, with_rssi: bool = False) -> TraceFile:
    """One full simulated capture of the configured scenario, as read_trace gives one."""
    parts = cfg.scenario()
    adv, clock, restarts = parts.adv, parts.clock, parts.restarts
    end = TimeInstant(parts.duration.ns, RADIO_CLOCK)
    windows = gen_scan_windows(parts.behavior, parts.scan, restarts, end, substream(seed, "scan"))

    events = []
    for d in range(cfg.n_advertisers):
        rng = substream(seed, f"adv:{d}")
        # Stagger phases so devices do not transmit in lockstep.
        offset = rng.randrange(adv.base_interval.ns + adv.rho_max.ns + 1)
        events.append(
            gen_advertising(
                adv, f"dev{d:02d}", TimeInstant(offset, RADIO_CLOCK), end, rng, parts.channels
            )
        )

    packets = simulate_reception(
        AdvertisingEvents.of(events), windows, restarts, clock, parts.loss, substream(seed, "rx")
    )
    if with_rssi:
        rng = substream(seed, "rssi")
        span = cfg.distance_max_m - cfg.distance_min_m
        distances = {
            f"dev{d:02d}": cfg.distance_min_m + rng.random() * span
            for d in range(cfg.n_advertisers)
        }
        packets = attach_rssi(packets, parts.rssi, distances, rng)
    return TraceFile(
        scan_interval_ns=parts.scan.scan_interval.ns,
        scan_window_ns=parts.scan.scan_window.ns,
        behavior_tag=parts.behavior.tag,
        seed=seed,
        # From a list: tuple(generator) shrinks a ten-slot tuple, which then piles up on
        # a free list that only a full gc empties (also for simkit's per-replica tuples).
        restarts_ns=tuple([r.ns for r in app_anchor_times(restarts, clock)]),
        packets=packets,
    )


def classification_samples(trace: TraceFile, dconf: DetectorConfig) -> Samples:
    """Every packet's elapsed time and outcome; see :class:`Samples`."""
    packets = Packets.of(trace.packets)
    classified = classify_trace(packets, trace.restarts, dconf)
    anchor_ns = np.array([r.ns for r in classified.restarts], np.int64)[classified.anchor]
    return Samples(
        (packets.recv_ns - anchor_ns) / NS_PER_S, classified.outcomes(packets.channel)
    )


def _replica_samples(cfg: ExperimentConfig, dconf: DetectorConfig):
    """Each replica's :class:`Samples`, seed by seed: the experiments' one replica
    loop, which simulates a replica only once the one before it is consumed."""
    for i in range(cfg.n_seeds):
        yield classification_samples(simulate_scenario(cfg, cfg.seed + i), dconf)


def run_accuracy_experiment(cfg: ExperimentConfig) -> AccuracyCurve:
    """Accuracy over elapsed scan time, pooled over ``n_seeds`` replicas."""
    replicas = _replica_samples(cfg, cfg.scenario().detector)
    return build_accuracy_curve(replicas, cfg.bucket_s, cfg.duration_s)


@dataclass(frozen=True, slots=True)
class MatrixRow(_Counted):
    behavior: str
    detector_interval_s: float
    n_classified: int
    n_correct: int
    n_unclassified: int


@dataclass(frozen=True, slots=True)
class MatrixResult:
    """Per-behavior identification accuracy under one common scenario."""

    rows: tuple[MatrixRow, ...]

    def row(self, behavior: str) -> MatrixRow:
        for r in self.rows:
            if r.behavior == behavior:
                return r
        raise KeyError(behavior)

    def to_text(self) -> str:
        lines = [
            f"{'behavior':<18} {'T_s(s)':>7} {'classified':>10} "
            f"{'correct':>8} {'unclassified':>12} {'accuracy':>8}"
        ]
        for r in self.rows:
            acc = "n/a" if r.accuracy is None else f"{r.accuracy:.4f}"
            lines.append(
                f"{r.behavior:<18} {r.detector_interval_s:>7.3f} {r.n_classified:>10} "
                f"{r.n_correct:>8} {r.n_unclassified:>12} {acc:>8}"
            )
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        lines = ["behavior,detector_interval_s,n_classified,n_correct,n_unclassified,accuracy"]
        for r in self.rows:
            acc = "" if r.accuracy is None else format(r.accuracy, ".6f")
            lines.append(
                f"{r.behavior},{r.detector_interval_s:.6g},{r.n_classified},"
                f"{r.n_correct},{r.n_unclassified},{acc}"
            )
        return "\n".join(lines) + "\n"


def run_compatibility_matrix(cfg: ExperimentConfig) -> MatrixResult:
    """Run every scanner behavior through the same scenario and detector.

    The detector is granted each device's real timing (its effective scan
    settings), which mirrors calibrating the interval per device model; the
    question each row answers is whether arrival times then identify the
    channel at all.
    """
    # every row is built up front, so no row runs when a later one cannot
    scens = [dataclasses.replace(cfg, behavior=tag) for tag in MATRIX_BEHAVIORS]
    rows = []
    for scen, dconf in [(scen, scen.scenario().detector) for scen in scens]:
        counts = np.zeros(3, np.int64)
        for s in _replica_samples(scen, dconf):
            counts += _tally(s.outcome, 0, 1)[0]  # every packet, whatever its elapsed time
            del s  # drop this replica before the next one is drawn
        interval_s = dconf.scan_settings.scan_interval.seconds
        rows.append(MatrixRow(scen.behavior, interval_s, *counts.tolist()))
    return MatrixResult(rows=tuple(rows))


@dataclass(frozen=True, slots=True)
class RangingResult:
    """Outcome of the channel-aware versus channel-agnostic comparison."""

    comparison: EstimatorComparison
    offsets_db: tuple[float, float, float]
    n_train: int
    n_test: int

    def to_text(self) -> str:
        c = self.comparison
        return (
            f"channel offsets (37,38,39) dB: {self.offsets_db}\n"
            f"train/test samples: {self.n_train}/{self.n_test}\n"
            f"channel-aware RMSE:    {c.aware_rmse_m:.4f} m\n"
            f"channel-agnostic RMSE: {c.agnostic_rmse_m:.4f} m\n"
            f"ratio (aware/agnostic): {c.rmse_ratio:.4f}\n"
        )


def gen_ranging_samples(cfg: ExperimentConfig, rssi: RssiModel, n: int, rng) -> list[RangingSample]:
    """Draw labeled RSSI observations from ``rssi``, the config's RSSI model.

    Distances are log-uniform between the configured bounds, channels
    uniform, readings exact model predictions plus Gaussian shadowing.
    ``cfg`` is expected to have passed :meth:`ExperimentConfig.validate`.
    """
    read = rssi.reader(rng)
    lo = math.log10(cfg.distance_min_m)
    hi = math.log10(cfg.distance_max_m)
    samples = []
    for _ in range(n):
        ch = rng.choice(_ALL_CHANNELS)
        d = 10.0 ** (lo + rng.random() * (hi - lo))
        samples.append(RangingSample(channel=ch, distance_m=d, rssi_dbm=read(ch, d)))
    return samples


def run_ranging_experiment(cfg: ExperimentConfig) -> RangingResult:
    rssi = cfg.scenario().rssi
    rng = substream(cfg.seed, "ranging")
    train = gen_ranging_samples(cfg, rssi, cfg.n_train, rng)
    test = gen_ranging_samples(cfg, rssi, cfg.n_test, rng)
    comparison = compare_estimators(train, test)
    return RangingResult(
        comparison=comparison,
        offsets_db=rssi.channel_offset_db,
        n_train=cfg.n_train,
        n_test=cfg.n_test,
    )


def read_samples_csv(path: str) -> list[RangingSample]:
    with open(path, "r", encoding="utf-8") as f:
        rows = _table_rows(f.read(), SAMPLES_COLUMNS, f"expected {SAMPLES_COLUMNS!r} header")
    samples = []
    for lineno, parts in rows:
        try:
            channel, distance, rssi = Channel.of(int(parts[0])), float(parts[1]), float(parts[2])
        except (ValueError, ConfigError) as exc:
            raise TraceParseError(f"bad sample row: {exc}", line=lineno) from exc
        if not (0 < distance < math.inf and math.isfinite(rssi)):
            raise TraceParseError("need 0 < distance_m < inf and a finite rssi_dbm", line=lineno)
        if abs(rssi) > MAX_SAMPLE_RSSI_DBM:
            raise TraceParseError(f"|rssi_dbm| above {MAX_SAMPLE_RSSI_DBM:g} dBm", line=lineno)
        samples.append(RangingSample(channel, distance, rssi))
    return samples


def write_samples_csv(path: str, samples) -> None:
    lines = [SAMPLES_COLUMNS]
    for s in samples:
        lines.append(f"{s.channel.id},{s.distance_m!r},{s.rssi_dbm!r}")
    write_text(path, "\n".join(lines) + "\n")
