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
from contextlib import contextmanager
from itertools import product
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import (
    ADVERTISING_CHANNELS,
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
from .detector import _LABELS, DetectorConfig, Instants, Labels, classify_trace
from .errors import ConfigError, NoDataError, TraceOrderError, TraceParseError
from .ranging import EstimatorComparison, RangingSamples, compare_estimators
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
    """A capture, simulated or read from a trace CSV: what the detector needs;
    ``est_labels`` is a :class:`Labels` view once read or classified."""

    scan_interval_ns: int
    scan_window_ns: int
    behavior_tag: str
    seed: int
    restarts_ns: tuple[int, ...] = (0,)
    packets: Sequence[PacketRecord] = ()
    est_labels: Sequence[str] | None = None

    @property
    def scan_settings(self) -> ScanSettings:
        return ScanSettings(
            scan_interval=Duration(self.scan_interval_ns),
            scan_window=Duration(self.scan_window_ns),
        )

    @property
    def restarts(self) -> Instants:
        return Instants(np.array(self.restarts_ns, np.int64), APP_CLOCK)


# Rows that trace_from_text converts at a time.  A block costs a few numpy
# passes per column whatever its length, which only long blocks amortise
# (at 256 rows the byte reader was slower than int() and float() a cell);
# 4096 rows are about 150 kB of text and keep a block's temporaries near 1 MB.
_TEXT_BLOCK = 1 << 12
# Rows that trace_to_text formats at a time.  A block's byte matrix is held
# to about _WRITE_BLOCK * 128 bytes, so very long device ids shorten blocks.
_WRITE_BLOCK = 1 << 14
# "0000" .. "9999" as four bytes each (a view of uint32 keeps their order),
# then the same with leading zeros as NUL, then a group with nothing in it.
_DIGIT_GROUPS = np.frombuffer(
    b"".join(b"%04d" % k for k in range(10**4))
    + b"".join(b"%4d" % k for k in range(10**4)).replace(b" ", b"\0")
    + bytes(4),
    np.uint32,
)
# Readings scaled by 1e6 below this are exact integers plus a fraction.
_FAST_SCALED = 2.0**52
_COMMA, _NEWLINE, _MINUS, _POINT, _ZERO = b",\n-.0"
# The true_channel cell that the writer writes for each channel id, and
# that the reader reads as it is, ids ascending (0, no channel, is blank);
# the same for est_channel labels by label code.
_CHANNEL_IDS = np.array([0, *sorted(CHANNEL_FREQ_HZ)], np.int64)
_CHANNEL_TEXT = np.array([str(c) if c else "" for c in _CHANNEL_IDS.tolist()], "S")
_LABEL_CODES = {text: code for code, text in enumerate(_LABELS)}
_LABEL_TEXT = np.array(_LABELS, "S")
# NUL bytes around the text of a block being read: as many as the widest gather.
_PAD = 24
# A uint64 whose k lowest bytes are set, for k = 0 .. 8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _byte_rows(strings: np.ndarray) -> np.ndarray:
    """A NUL-padded bytes array (dtype ``S``) as a uint8 matrix, a row each."""
    return strings.view(np.uint8).reshape(len(strings), strings.itemsize)


def _groups(mag: np.ndarray) -> int:
    """The four-digit groups that the largest uint64 of ``mag`` needs, at least one."""
    top = int(mag.max(initial=0))
    return next(g for g in range(1, 6) if top < 10 ** (4 * g))


def _digits(mag: np.ndarray, strip: bool, out: np.ndarray) -> None:
    """Write the ASCII digits of uint64 ``mag``, each below 10**(4 * groups),
    right-aligned into the (n, 4 * groups) uint8 matrix ``out``; with
    ``strip`` every leading zero but the units digit is NUL."""
    groups = out.shape[1] // 4
    cells = out.view(np.uint32)
    rest = mag
    for j in range(groups - 1, -1, -1):
        above = rest // 10**4
        index = (rest - above * 10**4).astype(np.intp)
        if strip:  # the leading-NUL table once nothing is above, none once nothing is left
            index += (above == 0) * 10**4
            if j < groups - 1:
                index[rest == 0] = 2 * 10**4
        cells[:, j] = _DIGIT_GROUPS[index]
        rest = above


# A column of a block being written: its width in bytes, and a function that
# writes its NUL-padded cells into an (n, width) uint8 matrix.
def _int_cells(a: np.ndarray):
    """``str(v)`` of each int64 ``v``: sign, then digits."""
    neg = a < 0
    mag = a.astype(np.uint64)  # modulo 2**64, so negating gives |v|, -2**63 included
    mag = np.where(neg, -mag, mag)

    def write(out):
        out[:, 0] = np.where(neg, _MINUS, 0)
        _digits(mag, True, out[:, 1:])

    return 1 + 4 * _groups(mag), write


def _table_cells(table: np.ndarray, codes: np.ndarray):
    """The cell ``table[code]`` of each code."""
    return table.itemsize, lambda out: np.copyto(out, _byte_rows(table.take(codes)))


def _reading_cells(x: np.ndarray):
    """``format(v, ".6f")`` of each float64 ``v``; nothing where ``v`` is NaN (width 0 if all are).

    A cell is formatted here only where the result is certain: ``v`` finite,
    ``y = |v| * 1e6`` below 2**52 and more than ``y * 2**-52`` away from a
    tie, which is twice the rounding error of ``y``, so rounding ``y`` half
    to even gives the digits of the exact product.  Every other cell (inf,
    huge values, ties such as 1/128 and their near neighbours) is formatted
    by ``format`` itself.
    """
    blank = np.isnan(x)
    if blank.all():
        return 0, None
    ax = np.abs(x)
    small = ax < _FAST_SCALED / 1e6  # False for nan
    y = np.where(small, ax, 0.0) * 1e6
    q = np.rint(y).astype(np.uint64)
    fast = small & ~blank & (y < _FAST_SCALED) & (np.abs(y - np.floor(y) - 0.5) > y * 2.0**-52)
    slow = ~(fast | blank)
    whole, frac = np.divmod(q, 10**6)
    texts = _byte_rows(np.array([format(v, ".6f") for v in x[slow].tolist()], "S"))
    point = 1 + 4 * _groups(whole)

    def write(out):
        out[:, 0] = np.where(np.signbit(x), _MINUS, 0)
        # eight fraction digits: the two leading zeros land on the units digit
        # and the point, which are written after them
        _digits(frac, False, out[:, point - 1 : point + 7])
        _digits(whole, True, out[:, 1:point])
        out[:, point] = _POINT
        out[~fast] = 0
        out[slow, : texts.shape[1]] = texts

    return max(point + 7, texts.shape[1]), write


def trace_to_text(trace: TraceFile) -> str:
    """The trace as CSV text; ConfigError for what ``trace_from_text`` would
    refuse or read back differently, its header checked by the reader itself."""
    meta = (trace.scan_interval_ns, trace.scan_window_ns, trace.behavior_tag, trace.seed)
    restarts = tuple(trace.restarts_ns)
    lines = [TRACE_MAGIC, "# ts_ns=%s ds_ns=%s behavior=%s seed=%s" % meta]
    if restarts != (0,):
        lines.append("# restarts_ns=" + ",".join(map(str, restarts)))
    packets = Packets.of(trace.packets)
    est = trace.est_labels
    if est is not None and len(est) != len(packets):
        raise ConfigError("one est_channel label per packet required")
    lines.append(TRACE_COLUMNS + ("," + EST_COLUMN if est is not None else ""))
    try:
        written = _trace_header(lines)
    except TraceParseError as exc:
        raise ConfigError(f"trace header not writable: {exc}") from None
    if written[:2] != (meta, restarts):
        raise ConfigError("trace metadata would not read back as written")
    channel_code = np.searchsorted(_CHANNEL_IDS, packets.channel).clip(max=len(_CHANNEL_IDS) - 1)
    unwritable = _CHANNEL_IDS[channel_code] != packets.channel
    if unwritable.any():
        bad = int(packets.channel[np.argmax(unwritable)])
        raise ConfigError(f"true_channel not writable to CSV: {bad}")
    for device_id in packets.device_ids:
        if not _DEVICE_ID.fullmatch(device_id):
            raise ConfigError(f"device id not writable to CSV: {device_id!r}")
    if est is not None and not isinstance(est, Labels):
        code = list(map(_LABEL_CODES.get, est))
        if None in code:
            raise ConfigError(f"est_channel label not writable to CSV: {est[code.index(None)]!r}")
        est = Labels(np.array(code, np.intp))
    # Each block of rows is one uint8 matrix: each cell a NUL-padded run of
    # columns and a separator after it.  Dropping the NULs leaves the rows' bytes.
    names = np.array(packets.device_ids, "S")
    width = 21 + names.itemsize + _CHANNEL_TEXT.itemsize + 18 + _LABEL_TEXT.itemsize + 5
    step = max(1, min(_WRITE_BLOCK, (_WRITE_BLOCK << 7) // width))
    body = []
    for i in range(0, len(packets), step):
        rows = slice(i, i + step)
        cols = [
            _int_cells(packets.recv_ns[rows]),
            _table_cells(names, packets.device[rows]),
            _table_cells(_CHANNEL_TEXT, channel_code[rows]),
            _reading_cells(packets.rssi_dbm[rows]),
        ]
        if est is not None:
            cols.append(_table_cells(_LABEL_TEXT, est.code[rows]))
        block = np.zeros((min(step, len(packets) - i), sum(w + 1 for w, _ in cols)), np.uint8)
        at = 0
        for w, write in cols:
            if w:
                write(block[:, at : at + w])
            block[:, at + w] = _COMMA
            at += w + 1
        block[:, -1] = _NEWLINE
        body.append(block.tobytes().translate(None, b"\0"))
    return "\n".join(lines) + "\n" + b"".join(body).decode("ascii")


def write_text(path: str, text: str) -> None:
    """Write an output file: UTF-8 with LF line endings on every platform.

    Text that does not encode to UTF-8 (a lone surrogate) is refused with
    ConfigError before the file is opened.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(
            f"cannot write {path}: not UTF-8 text: {exc.reason} at character {exc.start}"
        ) from None
    with open(path, "wb") as f:
        f.write(data)


def read_text(path: str, error: type[ValueError]) -> str:
    """An input file's text; ``error`` (one line) if it cannot be read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def write_trace(trace: TraceFile, path: str) -> None:
    write_text(path, trace_to_text(trace))


def _parse_meta_tokens(line: str, lineno: int) -> dict[str, str]:
    """The ``key=value`` tokens of a ``#`` line, each key once."""
    out = {}
    for token in line[1:].split():
        key, sep, value = token.partition("=")
        if not sep:
            raise TraceParseError(f"bad metadata token {token!r}", line=lineno)
        if key in out:
            raise TraceParseError(f"repeated metadata key {key!r}", line=lineno)
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


def _channel_cell(cell: str) -> int | None:
    """A ``true_channel`` cell as ``int`` reads it: 37-39, 0 if blank, else None."""
    try:
        ch = int(cell) if cell else 0
    except ValueError:
        return None
    return ch if not cell or ch in CHANNEL_FREQ_HZ else None


def _windows(buf: bytes, at: np.ndarray, w: int) -> np.ndarray:
    """The ``w`` bytes of ``buf`` from each offset ``at`` on, as an (n, w)
    uint8 matrix: one gather of overlapping ``V{w}`` items."""
    items = np.ndarray((len(buf) - w + 1,), f"V{w}", buf, 0, (1,))
    return items[at].view(np.uint8).reshape(len(at), w)


def _inside(width: np.ndarray, w: int) -> np.ndarray:
    """(n, w) bools, True in the last ``width`` columns of each row: the
    window at offset ``width`` of w False then w True."""
    return _windows(bytes(w) + b"\1" * w, np.minimum(width, w), w).view(bool)


def _keys(b: bytes, first: np.ndarray, width: np.ndarray, words: int) -> np.ndarray:
    """The first ``8 * words`` bytes of each cell, NUL after its end, as an
    (n, words) array of little-endian uint64 keys."""
    keys = _windows(b, first, 8 * words).view("<u8")
    return keys & _LOW_BYTES[np.clip(width[:, None] - 8 * np.arange(words), 0, 8)]


def _decimal_cells(b: bytes, first: np.ndarray, width: np.ndarray, point: bool):
    """(value, certain) of each cell.  Certain cells are, with ``point``,
    ``-?[0-9]{1,11}\\.[0-9]{6}`` whose digits make ``q < 2**53``, read as the
    float ``±q / 1e6``: ``q`` and 1e6 are exact, so the quotient is the
    correctly rounded decimal, as ``float`` gives it.  Without ``point``,
    ``-?[0-9]{1,18}`` as int64.  Every other value is junk."""
    neg = np.frombuffer(b, np.uint8)[first] == _MINUS
    first, width = first + neg, width - neg
    certain = (width > (7 if point else 0)) & (width <= 18)
    if not certain.any():
        return np.zeros(len(first), np.float64 if point else np.int64), certain
    w = 8 * -(-min(int(width.max()), 18) // 8)  # whole uint64 words
    inside = _inside(width, w)
    cells = _windows(b, first + width - w, w)  # right-aligned
    digits = cells - np.uint8(_ZERO)
    bad = (digits > 9) & inside
    digits *= inside
    if point:
        bad[:, w - 7] = cells[:, w - 7] != _POINT
        digits[:, w - 7] = 0
    certain &= sum(bad.view(np.uint64).T) == 0  # no byte of any word set
    # Eight digits to a little-endian word, the first in its lowest byte:
    # neighbours add up into 2-, 4-, then 8-digit numbers, none carrying.
    words = digits.view("<u8")
    for bits, lanes in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        scale = np.uint64(10 ** (bits // 8))
        words = (words * scale + (words >> np.uint64(bits))) & np.uint64(lanes)
    q = words[:, 0].astype(np.int64)
    for k in range(1, w // 8):
        q = q * 10**8 + words[:, k].astype(np.int64)
    if point:  # drop the 0 written over the point
        q = q // 10**7 * 10**6 + q % 10**6
        certain &= q < 2**53
        q = q / 1e6
    return np.where(neg, -q, q), certain


def _table_codes(b: bytes, first: np.ndarray, width: np.ndarray, table: np.ndarray):
    """The index of each cell in ``table`` (an ``S`` array whose items differ
    in their first 8 bytes), -1 for a cell not in it."""
    words = -(-table.itemsize // 8)
    entries = np.zeros((len(table), 8 * words), np.uint8)
    entries[:, : table.itemsize] = _byte_rows(table)
    entries = entries.view("<u8")
    cells = _keys(b, first, width, words)
    order = np.argsort(entries[:, 0])
    code = order[np.searchsorted(entries[:, 0], cells[:, 0], sorter=order).clip(max=len(table) - 1)]
    # a NUL at a cell's end would vanish from its key, so the widths must match too
    hit = width == np.char.str_len(table)[code]
    for k in range(words):
        hit &= cells[:, k] == entries[code, k]
    return np.where(hit, code, -1)


def _trace_block(b: bytes, n: int, lineno: int, has_est: bool, device_ids: dict, prev):
    """The columns of the ``n`` trace rows in ``b``, from file line ``lineno``
    on, after a row at time ``prev`` (None at the first row).

    ``b`` holds ``_PAD`` NULs and a newline, the rows' UTF-8 bytes with a
    newline after each, then ``_PAD`` NULs, so every gather stays inside
    it; the rows are stripped and non-blank, as ``trace_from_text`` slices
    them from a body.  A cell whose value is certain from its bytes
    (a plain integer time, a reading with six decimals, a channel
    or label cell as the writer writes it, a short device id) is converted
    a column at a time with numpy; every other cell goes through ``int``,
    ``float`` or ``_channel_cell`` on its own, so whatever they accept
    still reads.  New device ids go into ``device_ids``.  Each check runs
    once per column, in the field order of a row, so a one-row block raises
    exactly that row's error; in a longer block an error only says that
    some row is bad.
    """
    n_fields = 5 if has_est else 4
    # a row's cells start after the newline that ends the padding or the row before
    u8 = np.frombuffer(b, np.uint8)
    seps = np.flatnonzero((u8 == _COMMA) | (u8 == _NEWLINE))
    if len(seps) != n * n_fields + 1 or (u8[seps[n_fields::n_fields]] != _NEWLINE).any():
        raise TraceParseError(f"expected {n_fields} fields", line=lineno)
    # a row of starts and widths per column
    firsts = (seps[:-1] + 1).reshape(-1, n_fields).T.copy()
    widths = seps[1:].reshape(-1, n_fields).T - firsts

    def cells(col, rows):
        spans = zip(firsts[col, rows].tolist(), widths[col, rows].tolist())
        return [b[a : a + w].decode("utf-8", "surrogatepass") for a, w in spans]

    def uncertain(col, certain):
        rows = np.flatnonzero(~certain)
        return zip(rows.tolist(), cells(col, rows))

    recv, certain = _decimal_cells(b, firsts[0], widths[0], point=False)
    for i, cell in uncertain(0, certain):
        try:
            recv[i] = int(cell)
        except ValueError as exc:
            raise TraceParseError("recv_time_ns must be an integer", line=lineno) from exc
        except OverflowError as exc:
            raise TraceParseError("recv_time_ns out of the int64 range", line=lineno) from exc
    # compared, not differenced: the difference of two int64 times can wrap
    if (prev is not None and recv[0] < prev) or (recv[1:] < recv[:-1]).any():
        raise TraceOrderError(f"line {lineno}: timestamps moved backwards")

    if widths[1].max() <= 8 and b.find(b"\0", _PAD, len(b) - _PAD) < 0:
        keys, index = np.unique(_keys(b, firsts[1], widths[1], 1)[:, 0], return_inverse=True)
        seen = np.full(len(keys), n)
        np.minimum.at(seen, index, np.arange(n))  # the first row of each key
        by_first = np.argsort(seen)
        names = cells(1, seen[by_first])
        index = np.argsort(by_first)[index]
    else:  # long ids, or NULs, which a key would not tell from its padding
        names = cells(1, slice(None))
        rank = {name: k for k, name in enumerate(dict.fromkeys(names))}
        index = np.fromiter(map(rank.__getitem__, names), np.intp, len(names))
        names = list(rank)
    for name in names:
        if name not in device_ids:
            if not _DEVICE_ID.fullmatch(name):
                raise TraceParseError(f"bad device id {name!r}", line=lineno)
            device_ids[name] = len(device_ids)
    device = np.array(list(map(device_ids.__getitem__, names)), np.intp)[index]

    code = _table_codes(b, firsts[2], widths[2], _CHANNEL_TEXT)
    channel = _CHANNEL_IDS[code]
    for i, cell in uncertain(2, code >= 0):  # cells such as "037", "+37" or " 39", or a bad one
        ch = _channel_cell(cell)
        if ch is None:
            raise TraceParseError(f"bad true_channel {cell!r}", line=lineno)
        channel[i] = ch

    rssi, certain = _decimal_cells(b, firsts[3], widths[3], point=True)
    blank = widths[3] == 0
    rssi[blank] = np.nan
    for i, cell in uncertain(3, certain | blank):
        try:
            rssi[i] = float(cell)
        except ValueError as exc:
            raise TraceParseError(f"bad rssi_dbm {cell!r}", line=lineno) from exc

    est = np.zeros(0, np.intp)
    if has_est:
        est = _table_codes(b, firsts[4], widths[4], _LABEL_TEXT)
        missed = cells(4, np.flatnonzero(est < 0)[:1])
        if missed:
            raise TraceParseError(f"bad est_channel {missed[0]!r}", line=lineno)
    return recv, device, channel, rssi, est


def _trace_header(lines: list[str]):
    """Check a trace's header lines: its (ts_ns, ds_ns, behavior, seed), its
    restarts_ns, whether it has the est_channel column, and the index of its
    column header line."""
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise TraceParseError(f"missing {TRACE_MAGIC!r} magic", line=1)
    if len(lines) < 2 or not lines[1].startswith("#"):
        raise TraceParseError("missing metadata line", line=2)
    # The metadata line, then more ``#`` lines and blank lines, may precede
    # the column header; each key stands once among all their tokens.
    tokens, line_of, i = {}, {}, 1
    while i < len(lines) and (lines[i].startswith("#") or not lines[i].strip()):
        if lines[i].startswith("#"):
            extra = _parse_meta_tokens(lines[i], i + 1)
            for key in extra:
                if key in tokens:
                    raise TraceParseError(f"repeated metadata key {key!r}", line=i + 1)
            tokens.update(extra)
            line_of.update(dict.fromkeys(extra, i + 1))
        i += 1

    def value(key, kind=int):  # errors name the line of the key, or line 2 without one
        try:
            return kind(tokens[key])
        except KeyError:
            raise TraceParseError(f"metadata key {key} missing", line=2) from None
        except ValueError as exc:
            raise TraceParseError(f"bad metadata: {exc}", line=line_of[key]) from exc

    meta = (value("ts_ns"), value("ds_ns"), value("behavior", str), value("seed"))
    if not 0 < meta[1] <= meta[0] <= _INT64_MAX:
        line = max(line_of["ts_ns"], line_of["ds_ns"])
        raise TraceParseError("need 0 < ds_ns <= ts_ns < 2**63", line=line)

    restarts = (0,)
    if "restarts_ns" in tokens:
        lineno = line_of["restarts_ns"]
        try:
            restarts = tuple(int(v) for v in tokens["restarts_ns"].split(","))
        except ValueError as exc:
            raise TraceParseError("bad restarts_ns list", line=lineno) from exc
        if not restarts or any(b <= a for a, b in zip(restarts, restarts[1:])):
            message = "restarts_ns must be non-empty and strictly increasing"
            raise TraceParseError(message, line=lineno)
        if not _INT64_MIN <= restarts[0] <= restarts[-1] <= _INT64_MAX:
            raise TraceParseError("restarts_ns out of the int64 range", line=lineno)

    if i >= len(lines):
        raise TraceParseError("missing column header", line=len(lines) + 1)
    header = lines[i].strip()
    if header == TRACE_COLUMNS:
        has_est = False
    elif header == TRACE_COLUMNS + "," + EST_COLUMN:
        has_est = True
    else:
        raise TraceParseError(f"unexpected columns {header!r}", line=i + 1)
    return meta, restarts, has_est, i


def _trace_head(text: str) -> tuple[list[str], int]:
    """The lines of ``text``, breaks kept, up to and including the first one
    past line 1 that is neither ``#`` nor blank (every line if none is), and
    the offset after them.  Prefixes of doubling length are split until one
    holds that line whole: every line of a prefix but its last is."""
    n = 1 << 10
    while True:
        lines = text[:n].splitlines(keepends=True)[: -1 if n < len(text) else None]
        stop = next((k + 1 for k, ln in enumerate(lines) if k and ln.strip() and ln[0] != "#"), None)
        if stop or n >= len(text):
            return lines[:stop], sum(map(len, lines[:stop]))
        n *= 2


def _stripped_rows(body: str, lineno: int) -> tuple[bytes, Sequence[int]]:
    """The lines of ``body``, from file line ``lineno`` on, stripped and the
    blank ones dropped, as UTF-8 bytes with a newline after each; and each
    row's file line."""
    lines = body.splitlines()
    rows = list(filter(None, map(str.strip, lines)))
    linenos = range(lineno, lineno + len(lines))
    if len(rows) < len(lines):
        linenos = [n for n, line in zip(linenos, lines) if line.strip()]
    if rows:
        rows.append("")  # so that the last row ends with a newline too
    return "\n".join(rows).encode("utf-8", "surrogatepass"), linenos


def trace_from_text(text: str) -> TraceFile:
    """A trace from its CSV text: the header from its leading lines, the body
    from its UTF-8 bytes, ``_TEXT_BLOCK`` rows at a time.  A body whose bytes
    are all printable ASCII or newlines, no line empty (as the writer
    writes it), is read as it is; any other is first normalized by
    ``_stripped_rows``.  A block that fails is halved until one row raises,
    so the error names the first bad line."""
    head, start = _trace_head(text)
    (scan_interval_ns, scan_window_ns, behavior, seed), restarts, has_est, i = _trace_header(head)
    body_text = text[start:]
    body = body_text.encode("utf-8", "surrogatepass")
    u8 = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(u8 - np.uint8(0x21) > 0x7E - 0x21)  # every byte but printable ASCII
    if (u8[ends] == _NEWLINE).all() and (np.diff(ends, prepend=-1) > 1).all():
        if body and body[-1] != _NEWLINE:  # a last row without its newline
            body += b"\n"
            ends = np.append(ends, len(body) - 1)
        linenos = range(i + 2, i + 2 + len(ends))
    else:
        body, linenos = _stripped_rows(body_text, i + 2)
        ends = np.flatnonzero(np.frombuffer(body, np.uint8) == _NEWLINE)
    view, pad = memoryview(body), bytes(_PAD)

    def block(start, stop, prev):  # rows start .. stop - 1 after a row at time prev
        first = int(ends[start - 1]) + 1 if start else 0
        rows = b"".join([pad, b"\n", view[first : int(ends[stop - 1]) + 1], pad])
        return _trace_block(rows, stop - start, linenos[start], has_est, device_ids, prev)

    empty = np.zeros(0, np.intp)
    blocks = [(np.zeros(0, np.int64), empty, np.zeros(0, np.int64), np.zeros(0), empty)]
    device_ids: dict[str, int] = {}
    prev = None
    for start in range(0, len(ends), _TEXT_BLOCK):
        stop = min(start + _TEXT_BLOCK, len(ends))
        try:
            blocks.append(block(start, stop, prev))
        except (TraceParseError, TraceOrderError):
            # rows start .. stop - 1 fail after prev, so one of their halves does
            while stop - start > 1:
                mid = (start + stop) // 2
                try:
                    start, prev = mid, block(start, mid, prev)[0][-1]
                except (TraceParseError, TraceOrderError):
                    stop = mid
            block(start, stop, prev)
            raise
        prev = blocks[-1][0][-1]
    recv, device, channel, rssi, est = zip(*blocks)
    recv = np.concatenate(recv)
    packets = Packets(
        recv_ns=recv,
        device=np.concatenate(device),
        device_ids=tuple(device_ids),
        channel=np.concatenate(channel),
        window_index=np.full(len(recv), -1, np.int64),
        rssi_dbm=np.concatenate(rssi),
    )
    return TraceFile(
        scan_interval_ns=scan_interval_ns,
        scan_window_ns=scan_window_ns,
        behavior_tag=behavior,
        seed=seed,
        restarts_ns=restarts,
        packets=packets,
        est_labels=Labels(np.concatenate(est)) if has_est else None,
    )


def read_trace(path: str) -> TraceFile:
    return trace_from_text(read_text(path, TraceParseError))


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
                b = AccuracyBucket(float(parts[0]), float(parts[1]), *map(int, parts[2:5]))
            except ValueError as exc:
                raise TraceParseError(f"bad bucket row: {exc}", line=lineno) from exc
            if not -math.inf < b.start_s < b.end_s < math.inf:
                raise TraceParseError("need finite edges, start_s < end_s", line=lineno)
            if min(b.counts) < 0 or b.n_correct > b.n_classified:
                raise TraceParseError("need counts >= 0, n_correct <= n_classified", line=lineno)
            # blank exactly when nothing was classified; else the ratio to six
            # decimals, with 2**-50 for the float error of reading it back
            if parts[5] or b.n_classified:
                try:
                    ok = abs(float(parts[5]) - b.n_correct / b.n_classified) <= 5e-7 + 2**-50
                except (ValueError, ZeroDivisionError):
                    ok = False
                if not ok:
                    message = "need accuracy = n_correct / n_classified, blank if n_classified = 0"
                    raise TraceParseError(message, line=lineno)
            buckets.append(b)
        return cls(buckets=tuple(buckets))

    @classmethod
    def read(cls, path: str) -> "AccuracyCurve":
        return cls.from_csv_text(read_text(path, TraceParseError))


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
    # radio ns at which scanning (re)starts, 0 first; simulate_scenario
    # makes the instants, so a config that is only checked builds none
    restarts_ns: range


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
        is built; the restart schedule is a ``range`` of ns.  The ranging
        fields need ``n_train >= 4``, ``n_test >= 1``, a positive path-loss
        exponent and ``0 < distance_min_m <= distance_max_m < inf``; the RSSI
        model's dB figures, and the level it predicts on each channel at both
        distance bounds, must be finite and within ``MAX_SAMPLE_RSSI_DBM`` of
        zero.  A fault of a part the library checks is named by the config
        key that sets it.
        """
        if self.n_advertisers < 0:
            raise ConfigError("n_advertisers must be non-negative")
        if self.n_seeds <= 0:
            raise ConfigError("n_seeds must be positive")
        duration = Duration.from_seconds(self.duration_s)
        if duration.ns <= 0:
            raise ConfigError("duration_s must be positive")
        with _in_config_keys():
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
        with _in_config_keys():
            detector = DetectorConfig(
                scan_settings=behavior.effective_settings(scan),
                guard=Duration.from_seconds(self.guard_s),
                max_scan_time=Duration.from_seconds(self.max_scan_time_s),
                idle_timeout=Duration.from_seconds(self.idle_timeout_s),
            )
        channels = self.channel_list()
        if self.n_advertisers and not channels:
            raise ConfigError("adv_channels names no channel")
        with _in_config_keys():
            loss = LossModel(drop_prob=self.loss_prob)
        if self.n_train < 4:  # the unknowns of a channel-aware fit
            raise ConfigError("n_train must be at least 4")
        if self.n_test < 1:
            raise ConfigError("n_test must be positive")
        if not self.path_loss_exponent > 0:
            raise ConfigError("path_loss_exponent must be positive")
        if not 0 < self.distance_min_m <= self.distance_max_m < math.inf:
            raise ConfigError("need 0 < distance_min_m <= distance_max_m < inf")
        offsets = self.offsets()
        for name, value in [
            ("tx_power_dbm", self.tx_power_dbm),
            ("antenna_gain_db", self.antenna_gain_db),
            ("shadow_sigma_db", self.shadow_sigma_db),
            *(("channel_offsets_db", v) for v in offsets),
        ]:
            if not abs(value) <= MAX_SAMPLE_RSSI_DBM:  # nan fails too
                raise ConfigError(f"{name} must be a finite value in {_RSSI_BOUNDS}")
        if self.shadow_sigma_db < 0:
            raise ConfigError("shadow_sigma_db must be non-negative")
        rssi = RssiModel(
            tx_power_dbm=self.tx_power_dbm,
            antenna_gain_db=self.antenna_gain_db,
            path_loss_exponent=self.path_loss_exponent,
            shadow_sigma_db=self.shadow_sigma_db,
            channel_offset_db=offsets,
        )
        predict = rssi.to_calibration().predict_rssi
        for ch, d in product(_ALL_CHANNELS, (self.distance_min_m, self.distance_max_m)):
            level = predict(ch, d)
            if not abs(level) <= MAX_SAMPLE_RSSI_DBM:  # nan fails too
                at = f"on channel {ch.id} at {d:g} m is {level:g} dBm"
                raise ConfigError(f"predicted RSSI {at}, outside {_RSSI_BOUNDS}")
        return Scenario(
            scan, adv, behavior, duration, channels, clock, loss, rssi, detector,
            range(0, duration.ns, step_ns),
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
        return cls.from_text(read_text(path, ConfigError))


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
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# The words of the library's ConfigError messages that name a field set by
# an ExperimentConfig key, and that key.
_CONFIG_KEY_OF = {
    "drop_prob": "loss_prob",
    "guard": "guard_s",
    "max_scan_time": "max_scan_time_s",
    "idle_timeout": "idle_timeout_s",
    "jitter lower bound": "jitter_min_s",
    "upper bound": "jitter_max_s",
}
_LIBRARY_FIELD = re.compile(r"\b(?:" + "|".join(_CONFIG_KEY_OF) + r")\b")


@contextmanager
def _in_config_keys():
    """Restate a ConfigError of the library in the config keys the user wrote."""
    try:
        yield
    except ConfigError as exc:
        message = _LIBRARY_FIELD.sub(lambda m: _CONFIG_KEY_OF[m[0]], str(exc))
        raise ConfigError(message) from None


def _preset(name: str, kind: type, what: str):
    settings = preset_settings(name)
    if not isinstance(settings, kind):
        raise ConfigError(f"{name} is not {what}")
    return settings


def simulate_scenario(cfg: ExperimentConfig, seed: int, with_rssi: bool = False) -> TraceFile:
    """One full simulated capture of the configured scenario, as read_trace gives one."""
    parts = cfg.scenario()
    adv, clock = parts.adv, parts.clock
    restarts = [TimeInstant(ns, RADIO_CLOCK) for ns in parts.restarts_ns]
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

    # One view of every advertiser's events: simulate_reception takes a view or a
    # sequence of AdvertisingEvent, and perfbench counts beacons over its items.
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
        # The app reads its own clock when it restarts the scan, so its restart
        # stamps carry no delivery latency, unlike packet timestamps.
        restarts_ns=tuple(clock.to_app_ns(np.array(parts.restarts_ns, np.int64)).tolist()),
        packets=packets,
    )


def classification_samples(trace: TraceFile, dconf: DetectorConfig) -> Samples:
    """Every packet's elapsed time and outcome; see :class:`Samples`."""
    classified = classify_trace(trace.packets, trace.restarts, dconf)
    packets = classified.packets
    elapsed_ns = packets.recv_ns - classified.restart_ns[classified.anchor]
    return Samples(elapsed_ns / NS_PER_S, classified.outcomes(packets.channel))


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


def gen_ranging_samples(cfg: ExperimentConfig, rssi: RssiModel, n: int, rng) -> RangingSamples:
    """Draw labeled RSSI observations from ``rssi``, the config's RSSI model.

    Distances are log-uniform between the configured bounds, channels uniform;
    each sample draws its channel, distance, then (if shadowed) one ``rng.gauss``.
    ``cfg`` is expected to have passed :meth:`ExperimentConfig.validate`.
    """
    lo = math.log10(cfg.distance_min_m)
    span = math.log10(cfg.distance_max_m) - lo
    shadowed = rssi.shadow_sigma_db > 0
    choice, uniform, gauss = rng.choice, rng.random, rng.gauss
    channels, distances, z = [], [], []
    for _ in range(n):
        channels.append(choice(ADVERTISING_CHANNELS))
        distances.append(10.0 ** (lo + uniform() * span))
        if shadowed:
            z.append(gauss(0.0, 1.0))
    channel = np.array(channels, np.int64)
    distance = np.array(distances, np.float64)
    level = rssi.readings(channel, distance, z if shadowed else None)
    return RangingSamples(channel, distance, level)


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


def _sample_rows(text: str) -> RangingSamples:
    """A samples CSV read row by row: blank lines skipped, each row stripped."""
    rows = _table_rows(text, SAMPLES_COLUMNS, f"expected {SAMPLES_COLUMNS!r} header")
    channels, distances, readings = [], [], []
    for lineno, parts in rows:
        try:
            channel, distance, rssi = Channel.of(int(parts[0])), float(parts[1]), float(parts[2])
        except (ValueError, ConfigError) as exc:
            raise TraceParseError(f"bad sample row: {exc}", line=lineno) from exc
        if not (0 < distance < math.inf and math.isfinite(rssi)):
            raise TraceParseError("need 0 < distance_m < inf and a finite rssi_dbm", line=lineno)
        if abs(rssi) > MAX_SAMPLE_RSSI_DBM:
            raise TraceParseError(f"|rssi_dbm| above {MAX_SAMPLE_RSSI_DBM:g} dBm", line=lineno)
        channels.append(channel.id)
        distances.append(distance)
        readings.append(rssi)
    return RangingSamples(
        np.array(channels, np.int64), np.array(distances, np.float64), np.array(readings, np.float64)
    )


# Every byte a plain samples body holds besides its separators.
_NUMBER_BYTES = b"0123456789+-.eE"


def samples_from_text(text: str) -> RangingSamples:
    """The samples of a samples CSV's text.

    A plain body, the header line then rows of three number cells each ended
    by ``\n``, is read in one split; any other text, and any plain body with a
    cell that does not parse or a value out of range, goes through the row
    reader, which names the line at fault.
    """
    head, _, body = text.partition("\n")
    raw = body.encode("ascii", "replace")
    rows = raw.count(b"\n")
    plain = raw.endswith(b"\n") and raw.translate(None, _NUMBER_BYTES) == b",,\n" * rows
    if head == SAMPLES_COLUMNS and plain:
        cells = body.replace("\n", ",").split(",")
        try:  # a channel id the view refuses is a ConfigError, a ValueError
            samples = RangingSamples(
                np.fromiter(map(int, cells[0:-1:3]), np.int64, rows),
                np.fromiter(map(float, cells[1::3]), np.float64, rows),
                np.fromiter(map(float, cells[2::3]), np.float64, rows),
            )
        except (ValueError, OverflowError):
            pass
        else:
            distance, rssi = samples.distance_m, samples.rssi_dbm
            if np.all((0 < distance) & (distance < math.inf)) and np.all(
                np.abs(rssi) <= MAX_SAMPLE_RSSI_DBM
            ):
                return samples
    return _sample_rows(text)


def read_samples_csv(path: str) -> RangingSamples:
    return samples_from_text(read_text(path, TraceParseError))


def write_samples_csv(path: str, samples) -> None:
    lines = [SAMPLES_COLUMNS]
    for s in samples:
        lines.append(f"{s.channel.id},{s.distance_m!r},{s.rssi_dbm!r}")
    write_text(path, "\n".join(lines) + "\n")
