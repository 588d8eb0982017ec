"""Event-level simulator for BLE advertising, scanning and reception.

Transmissions and scan windows are generated on the radio clock.  Reception
converts each caught packet to the scanning app's clock (rate drift plus a
per-restart delivery latency), which is all a scan callback ever sees.

Randomness is always taken from an explicit ``random.Random`` so that a run
is reproducible from its seed alone.  Use :func:`substream` to derive
independent generators for separate concerns (one per advertiser, one for
the scanner, one for reception) without manual seed bookkeeping.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, replace
from itertools import groupby, islice

import numpy as np

from . import ranging
from .core import (
    ADVERTISING_CHANNELS,
    APP_CLOCK,
    CHANNEL_FREQ_HZ,
    RADIO_CLOCK,
    AdvSettings,
    Channel,
    ColumnView,
    Duration,
    ScanSettings,
    TimeInstant,
)
from .errors import ClockMismatchError, ConfigError

# Gap between the per-channel transmissions inside one advertising event.
# Real radios hop in well under a millisecond; the exact value only has to
# be small against every scan window in use.
INTER_BEACON_GAP = Duration(400_000)

_ALL_CHANNELS = tuple(Channel.of(c) for c in ADVERTISING_CHANNELS)
_CHANNEL_OF_ID = {0: None, **{c.id: c for c in _ALL_CHANNELS}}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def substream(seed: int, tag: str) -> random.Random:
    """Independent deterministic generator for one concern of a run.

    String seeding hashes with SHA-512 under the hood, so distinct tags give
    unrelated streams and results do not depend on platform hash settings.
    """
    rng = random.Random()
    rng.seed(f"{seed}:{tag}")
    return rng


@dataclass(frozen=True, slots=True)
class AdvertisingEvent:
    """One advertising event: the same payload sent on each listed channel.

    Beacons go out back to back, ``INTER_BEACON_GAP`` apart, in the order of
    ``channels`` (compliant devices use 37, 38, 39).
    """

    start: TimeInstant
    device_id: str
    channels: tuple[Channel, ...] = _ALL_CHANNELS

    def beacons(self):
        for i, ch in enumerate(self.channels):
            yield TimeInstant(self.start.ns + i * INTER_BEACON_GAP.ns, self.start.clock), ch


@dataclass(frozen=True, eq=False)
class AdvertisingEvents(ColumnView):
    """Advertising events as columns; items are :class:`AdvertisingEvent`.

    ``start_ns`` holds radio-clock start instants and ``source`` indexes
    the ``(device_id, channels)`` pairs in ``sources``.
    """

    start_ns: np.ndarray
    source: np.ndarray
    sources: tuple[tuple[str, tuple[Channel, ...]], ...]

    def __len__(self) -> int:
        return len(self.start_ns)

    def _item(self, i: int) -> AdvertisingEvent:
        start = TimeInstant(int(self.start_ns[i]), RADIO_CLOCK)
        return AdvertisingEvent(start, *self.sources[self.source[i]])

    @classmethod
    def of(cls, events) -> "AdvertisingEvents":
        """A view of ``events``: a view, or a sequence of events or views."""
        if isinstance(events, cls):
            return events
        parts = []
        for ev in events:
            if not isinstance(ev, cls):
                if ev.start.clock != RADIO_CLOCK:
                    raise ClockMismatchError("advertising events are radio-clocked")
                source = ((ev.device_id, ev.channels),)
                ev = cls(np.array([ev.start.ns], np.int64), np.zeros(1, np.intp), source)
            parts.append(ev)
        offsets = np.cumsum([0] + [len(p.sources) for p in parts])
        return cls(
            np.concatenate([np.zeros(0, np.int64)] + [p.start_ns for p in parts]),
            np.concatenate([np.zeros(0, np.intp)] + [p.source + o for p, o in zip(parts, offsets)]),
            tuple([src for p in parts for src in p.sources]),
        )

@dataclass(frozen=True, slots=True)
class ScanWindow:
    """Half-open interval [start, end) during which one channel is scanned."""

    start: TimeInstant
    end: TimeInstant
    channel: Channel

    @property
    def duration(self) -> Duration:
        return self.end - self.start


@dataclass(frozen=True, eq=False)
class ScanWindows(ColumnView):
    """Scan windows as columns; items are :class:`ScanWindow`.

    ``start_ns`` and ``end_ns`` hold radio-clock bounds and ``channel``
    holds channel ids.
    """

    start_ns: np.ndarray
    end_ns: np.ndarray
    channel: np.ndarray

    def __len__(self) -> int:
        return len(self.start_ns)

    def _item(self, i: int) -> ScanWindow:
        return ScanWindow(
            TimeInstant(int(self.start_ns[i]), RADIO_CLOCK),
            TimeInstant(int(self.end_ns[i]), RADIO_CLOCK),
            _CHANNEL_OF_ID[int(self.channel[i])],
        )

    @classmethod
    def of(cls, windows) -> "ScanWindows":
        """A view of ``windows``: a view, or a sequence of windows or views."""
        if isinstance(windows, cls):
            return windows
        parts = [np.zeros((3, 0), np.int64)]
        for is_view, group in groupby(windows, lambda w: isinstance(w, cls)):
            if is_view:
                parts += [np.stack([w.start_ns, w.end_ns, w.channel]) for w in group]
                continue
            group = list(group)
            if any(w.start.clock != RADIO_CLOCK or w.end.clock != RADIO_CLOCK for w in group):
                raise ClockMismatchError("scan windows are radio-clocked")
            rows = [(w.start.ns, w.end.ns, w.channel.id) for w in group]
            parts.append(np.array(rows, np.int64).T)
        return cls(*np.concatenate(parts, axis=1))


# Most candidates one ``getrandbits`` call of _event_starts draws.
_DRAW_BLOCK = 1 << 16


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` Mersenne Twister words of ``rng``, from one ``getrandbits(32 * n)``."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _event_starts(start_ns: int, end_ns: int, base_ns: int, span: int, rng) -> np.ndarray:
    """The ``t`` of ``t = start_ns; while t <= end_ns: t += base_ns + rng.randrange(span)``.

    Same int64 values and final ``rng`` state for 1 <= span <= 2**54: one
    ``getrandbits(32*w*n)`` holds the Mersenne Twister words of n candidates
    of CPython's ``randrange`` (``getrandbits(k)``, k = span.bit_length(): w
    words, least significant first, the last shifted right by 32*w - k), and a
    block asks for no more candidates than events certain to come.
    """
    k = span.bit_length()
    w = (k - 1) // 32 + 1
    parts, t = [np.zeros(0, np.int64)], start_ns
    while t <= end_ns:
        n = min((end_ns - t) // (base_ns + span - 1) + 1, _DRAW_BLOCK)
        words = _words(rng, w * n).reshape(n, w).copy()
        words[:, -1] >>= 32 * w - k
        cand = words.view(f"<u{4 * w}").ravel()
        step = cand[cand < span].astype(np.int64) + base_ns
        if len(step):
            starts = np.cumsum(step)
            starts -= step
            starts += t
            parts.append(starts)
            t = int(starts[-1]) + int(step[-1])
    return np.concatenate(parts)


def gen_advertising(
    settings: AdvSettings,
    device_id: str,
    start: TimeInstant,
    end: TimeInstant,
    rng: random.Random,
    channels: tuple[Channel, ...] = _ALL_CHANNELS,
) -> AdvertisingEvents:
    """Advertising events from ``start`` up to and including ``end``.

    Consecutive events are separated by the base interval plus an integer
    nanosecond count drawn uniformly from [0, rho_max]: the numbers of one
    ``rng.randrange(rho_max + 1)`` after each event, drawn in bulk as
    Mersenne Twister words.  This relies on the word order of CPython's
    ``getrandbits`` (a property test checks it), so ``rng`` must be a plain
    ``random.Random``.  Every beacon, those of an event at ``end`` included,
    must fall within the int64 ns range (ConfigError otherwise).
    """
    if start.clock != RADIO_CLOCK or end.clock != RADIO_CLOCK:
        raise ClockMismatchError("advertising runs on the radio clock")
    if not channels:
        raise ConfigError("an advertiser needs at least one channel")
    if start.ns < _INT64_MIN or end.ns + (len(channels) - 1) * INTER_BEACON_GAP.ns > _INT64_MAX:
        raise ConfigError("advertising beacons must stay within the int64 ns range")
    base, span = settings.base_interval.ns, settings.rho_max.ns + 1
    starts = _event_starts(start.ns, end.ns, base, span, rng)
    source = np.zeros(len(starts), np.intp)
    return AdvertisingEvents(starts, source, ((device_id, channels),))


class ScannerBehavior:
    """How a particular scanner implementation lays out its windows.

    Subclasses produce the windows actually opened over a list of scan
    epochs (the spans between successive scan restarts).  ``tag`` is the
    stable name used in trace headers and experiment configs.
    """

    tag = "abstract"

    def effective_settings(self, settings: ScanSettings) -> ScanSettings:
        """Timing a calibrated detector would assume for this scanner.

        Most behaviors honour the requested settings; devices that ignore
        them report what they really do.
        """
        return settings

    def min_gap_ns(self, settings: ScanSettings) -> int:
        """Least ns between two window starts, except where an epoch or a cadence begins."""
        return min(settings.scan_interval.ns, self.effective_settings(settings).scan_interval.ns)

    def windows(
        self,
        settings: ScanSettings,
        epochs: list[tuple[TimeInstant, TimeInstant]],
        rng: random.Random,
    ) -> ScanWindows:
        raise NotImplementedError


# The channel ids a scanner on each channel can hop to, in ``choice`` order.
_OTHERS = {c: tuple(o for o in ADVERTISING_CHANNELS if o != c) for c in ADVERTISING_CHANNELS}


def _random_walk(rng: random.Random):
    """Channel ids from 37 on, each next one drawn uniformly from the other two."""
    ch = 37
    while True:
        yield ch
        ch = rng.choice(_OTHERS[ch])


def _cadence(start_ns, end_ns, interval_ns, window_ns, channels) -> ScanWindows:
    """Windows every ``interval_ns`` from ``start_ns``, cut off at ``end_ns``.

    ``channels`` is the channel id the compliant cycle 37 -> 38 -> 39 -> 37
    starts from, or an iterator of ids advanced only when a window opens, so
    random channel sources draw exactly once per window.
    """
    n = max(-(-(end_ns - start_ns) // interval_ns), 0)
    starts = start_ns + interval_ns * np.arange(n, dtype=np.int64)
    width = min(window_ns, end_ns - start_ns)
    ends = np.minimum(starts, end_ns - width) + width  # min(starts + width, end) without int64 wrap
    if isinstance(channels, int):
        return ScanWindows(starts, ends, (np.arange(n, dtype=np.int64) + channels - 37) % 3 + 37)
    return ScanWindows(starts, ends, np.fromiter(islice(channels, n), np.int64, n))


class Compliant(ScannerBehavior):
    """Restarts on channel 37 and cycles 37, 38, 39 at the requested cadence."""

    tag = "compliant"

    def windows(self, settings, epochs, rng):
        own = self.effective_settings(settings)
        interval, window = own.scan_interval.ns, own.scan_window.ns
        return ScanWindows.of([_cadence(s.ns, e.ns, interval, window, 37) for s, e in epochs])


class BalancedOffset(ScannerBehavior):
    """Settles into the compliant pattern only some time after each restart.

    For each epoch an offset is drawn uniformly from [0, offset_factor * T].
    Until the offset has elapsed the scanner keeps the requested cadence but
    picks channels at random; from the offset on it behaves compliantly,
    anchored at the offset instant rather than at the restart.
    """

    tag = "balanced-offset"

    def __init__(self, offset_factor: float = 2.0):
        if offset_factor < 0:
            raise ConfigError("offset_factor must be non-negative")
        self.offset_factor = offset_factor

    def windows(self, settings, epochs, rng):
        interval = settings.scan_interval.ns
        window = settings.scan_window.ns
        random_channels = iter(lambda: rng.choice(ADVERTISING_CHANNELS), None)
        parts = []
        for start, end in epochs:
            span = round(self.offset_factor * interval)
            settle_ns = min(start.ns + rng.randrange(span + 1), end.ns)
            parts.append(_cadence(start.ns, settle_ns, interval, window, random_channels))
            parts.append(_cadence(settle_ns, end.ns, interval, window, 37))
        return ScanWindows.of(parts)


class AltInterval(Compliant):
    """Compliant pattern, but at the device's own timing.

    Models hardware that ignores the requested scan parameters (seen on
    older handsets that always scan with a fixed interval).
    """

    tag = "alt-interval"

    def __init__(self, scan_interval: Duration, scan_window: Duration | None = None):
        if scan_window is None:
            scan_window = scan_interval
        self._own = ScanSettings(scan_interval=scan_interval, scan_window=scan_window)

    def effective_settings(self, settings):
        return self._own


# Most Mersenne Twister words one block of RapidToggle.windows draws; its
# walk holds four tables of this length, so this bounds its memory.
_TOGGLE_BLOCK = 1 << 12


def _next_true(ok: np.ndarray, stride: int) -> array:
    """``out[p]`` (p <= len(ok)): the first of p, p + stride, ... where ``ok`` holds, or len(ok)."""
    m = len(ok)
    at = np.where(ok, np.arange(m), m)
    out = np.full(m + 1, m)
    for r in range(stride):
        out[r:m:stride] = np.minimum.accumulate(at[r::stride][::-1])[::-1]
    return array("q", out.tobytes())


class RapidToggle(ScannerBehavior):
    """Back-to-back short windows hopping to a random other channel each time.

    Window lengths are drawn uniformly from [min_window, max_window].  The
    requested interval and window are ignored; each restart begins on 37.
    """

    tag = "rapid-toggle"

    def __init__(
        self,
        min_window: Duration = Duration.from_seconds(0.100),
        max_window: Duration = Duration.from_seconds(0.200),
    ):
        if not 0 < min_window.ns <= max_window.ns < 2**63:
            raise ConfigError("need 0 < min_window <= max_window < 2**63 ns")
        self.min_window = min_window
        self.max_window = max_window

    def min_gap_ns(self, settings):
        return self.min_window.ns

    def windows(self, settings, epochs, rng):
        """Each window draws ``randrange(min, max + 1)``, then the next channel.

        That is one ``choice`` of the other two, also after an epoch's last
        window.  CPython takes both from whole Mersenne Twister words: w-word
        duration candidates until one is below the width, ``word >> 30`` until
        it is below 2.  So the words come in blocks of no more than the
        windows certain to come will use, and the walk looks up the next
        accepted word of each kind: the same windows and final ``rng`` state.
        """
        lo, hi = self.min_window.ns, self.max_window.ns
        width = hi - lo + 1
        k = width.bit_length()
        w = (k - 1) // 32 + 1
        spans = [(start.ns, end.ns) for start, end in epochs if start.ns < end.ns]
        ahead = sum(-(-(end - start) // hi) for start, end in spans)  # windows certain to come

        def block(rest, pending, cursor, end):
            need = pending + (w + 1) * (ahead + -(-max(end - cursor, 0) // hi))
            words = np.concatenate([rest, _words(rng, min(need, _TOGGLE_BLOCK) - len(rest))])
            cand = words[w - 1 :].astype(np.uint64) >> (32 * w - k)  # w <= 2 below 2**63
            if w == 2:
                cand = cand << 32 | words[:-1]
            ok = np.append(cand < width, np.zeros(w - 1, bool))
            cand += lo  # a rejected candidate may wrap; it is never read
            next_dur, next_ch = _next_true(ok, w), _next_true(words < 1 << 31, 1)
            return words, next_dur, array("q", cand.tobytes()), next_ch, (words >> 30).tolist()

        starts, ends, ids = array("q"), array("q"), array("q")  # no int object per window
        words, m, p, next_dur = np.zeros(0, np.uint32), 0, 0, [0]
        for cursor, end in spans:
            ahead -= -(-(end - cursor) // hi)
            first, ch = len(starts), 37
            while cursor < end:
                q = next_dur[p]
                while q == m:
                    rest = words[m - (m - p) % w :]  # a candidate cut off by the block's end
                    words, next_dur, step, next_ch, bit = block(rest, 0, cursor, end)
                    m, p = len(words), 0
                    q = next_dur[0]
                starts.append(cursor)
                ids.append(ch)
                cursor += step[q]
                r = next_ch[q + w]
                while r == m:
                    words, next_dur, step, next_ch, bit = block(words[m:], 1, cursor, end)
                    m = len(words)
                    r = next_ch[0]
                ch, p = _OTHERS[ch][bit[r]], r + 1
            ends += starts[first + 1 :]
            ends.append(end)
        return ScanWindows(*[np.frombuffer(col, np.int64) for col in (starts, ends, ids)])


class NonStandardOrder(ScannerBehavior):
    """Scans continuously but walks the channels in a random order.

    Windows fill the whole interval (window length equals the interval) and
    each next channel is drawn uniformly from the other two.  The walk is
    not reset by a scan restart.
    """

    tag = "nonstandard-order"

    def effective_settings(self, settings):
        return ScanSettings(
            scan_interval=settings.scan_interval, scan_window=settings.scan_interval
        )

    def windows(self, settings, epochs, rng):
        interval = settings.scan_interval.ns
        walk = _random_walk(rng)
        return ScanWindows.of([_cadence(s.ns, e.ns, interval, interval, walk) for s, e in epochs])


class ContinueChannel(ScannerBehavior):
    """Compliant timing, but a restart does not reset the channel cycle.

    A window cut short by a restart is scanned again first thing in the new
    epoch; otherwise the cycle simply continues where it stopped.  Only the
    window phase re-anchors at the restart.
    """

    tag = "continue-channel"

    def windows(self, settings, epochs, rng):
        interval = settings.scan_interval.ns
        window = settings.scan_window.ns
        parts, ch = [], 37
        for start, end in epochs:
            made = _cadence(start.ns, end.ns, interval, window, ch)
            parts.append(made)
            if len(made):
                last, last_end = int(made.channel[-1]), int(made.end_ns[-1])
                cut_short = last_end == end.ns and last_end - int(made.start_ns[-1]) < window
                ch = last if cut_short else last % 3 + 37  # the next in the cycle
        return ScanWindows.of(parts)


BEHAVIOR_TAGS = {
    cls.tag: cls
    for cls in (
        Compliant, BalancedOffset, AltInterval, RapidToggle, NonStandardOrder, ContinueChannel
    )
}


def behavior_from_tag(
    tag: str, alt_interval: Duration = Duration.from_seconds(5.0)
) -> ScannerBehavior:
    """Instantiate a behavior by its stable name."""
    cls = BEHAVIOR_TAGS.get(tag)
    if cls is None:
        known = ", ".join(sorted(BEHAVIOR_TAGS))
        raise ConfigError(f"unknown scanner behavior {tag!r} (known: {known})")
    if cls is AltInterval:
        return AltInterval(scan_interval=alt_interval)
    return cls()


def gen_scan_windows(
    behavior: ScannerBehavior,
    settings: ScanSettings,
    restarts: list[TimeInstant],
    end: TimeInstant,
    rng: random.Random,
) -> ScanWindows:
    """Windows a scanner opens between ``restarts[0]`` and ``end``.

    ``restarts`` are the radio instants at which scanning (re)starts; they
    must be strictly increasing and the first one must precede ``end``.
    All of them and ``end`` must be int64 ns, less than 2**63 ns apart.
    """
    if not restarts:
        raise ConfigError("need at least one scan start instant")
    for r in restarts:
        if r.clock != RADIO_CLOCK:
            raise ClockMismatchError("scan restarts are radio instants")
    if end.clock != RADIO_CLOCK:
        raise ClockMismatchError("scan horizon is a radio instant")
    ns = [r.ns for r in restarts]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("scan restarts must be strictly increasing")
    if ns[0] >= end.ns:
        raise ConfigError("first scan start must precede the horizon")
    last = max(ns[-1], end.ns)
    if ns[0] < _INT64_MIN or last > _INT64_MAX or last - ns[0] > _INT64_MAX:
        raise ConfigError("scan instants must fit int64 ns and span less than 2**63 ns")
    bounds = ns + [last]
    epochs = [
        (TimeInstant(a, RADIO_CLOCK), TimeInstant(min(b, end.ns), RADIO_CLOCK))
        for a, b in zip(bounds, bounds[1:])
    ]
    return behavior.windows(settings, epochs, rng)


@dataclass(frozen=True, slots=True)
class ClockModel:
    """Relation between the radio clock and the app clock.

    ``drift_rate`` is how many extra radio seconds elapse per app second
    (2e-4 means the radio runs 200 ppm fast relative to the app).  The
    ``jitter_range`` bounds a delivery latency added to every packet
    timestamp; it is drawn once per scan epoch, modelling a constant
    callback delay that changes when scanning restarts.
    """

    drift_rate: float = 0.0
    jitter_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 1.0 + self.drift_rate > 0.0:
            raise ConfigError("drift_rate must exceed -1")
        lo, hi = self.jitter_range
        if not 0.0 <= lo <= hi:
            raise ConfigError("need 0 <= jitter lower bound <= upper bound")

    def to_app_ns(self, radio_ns):
        """App-clock reading of radio instants (an int or an int64 array).

        Exact while |radio_ns| < 2**53 ns (about 104 days): up to there an
        int64 converts to float64 without loss, and ``np.rint`` rounds half
        to even as ``round`` does.
        """
        app = np.rint(np.asarray(radio_ns) / (1.0 + self.drift_rate)).astype(np.int64)
        return app if app.ndim else int(app)

    def draw_jitter(self, rng: random.Random) -> Duration:
        lo, hi = self.jitter_range
        lo_ns = round(lo * 1e9)
        hi_ns = round(hi * 1e9)
        return Duration(lo_ns + rng.randrange(hi_ns - lo_ns + 1))


@dataclass(frozen=True, slots=True)
class LossModel:
    """Independent per-packet loss."""

    drop_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigError("drop_prob must be within [0, 1]")

    def drops(self, rng: random.Random) -> bool:
        return self.drop_prob > 0.0 and rng.random() < self.drop_prob


@dataclass(frozen=True, slots=True)
class RssiModel:
    """Log-distance received-power model with per-channel gain spread.

    ``channel_offset_db`` holds the hardware gain deviation of channels
    37, 38, 39 in that order; real chains have been seen to differ by well
    over 10 dB between advertising channels.  Frequency-dependent free-space
    loss is applied on top, so offsets of zero still leave the channels
    slightly apart.
    """

    tx_power_dbm: float = 0.0
    antenna_gain_db: float = 0.0
    path_loss_exponent: float = 2.0
    shadow_sigma_db: float = 0.0
    channel_offset_db: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.shadow_sigma_db < 0:
            raise ConfigError("shadow_sigma_db must be non-negative")
        if len(self.channel_offset_db) != 3:
            raise ConfigError("channel_offset_db needs one entry per advertising channel")

    def to_calibration(self) -> "ranging.CalibrationModel":
        """The exact noise-free model, as a calibration result."""
        intercept = (
            self.tx_power_dbm
            + self.antenna_gain_db
            - ranging.path_loss_db(CHANNEL_FREQ_HZ[37], 1.0)
        )
        return ranging.CalibrationModel(
            intercept_dbm=intercept,
            path_loss_exponent=self.path_loss_exponent,
            channel_offset_db=self.channel_offset_db,
        )

    def reader(self, rng: random.Random):
        """``read(channel, distance_m)``: the exact prediction plus one shadowing draw."""
        predict, gauss = self.to_calibration().predict_rssi, rng.gauss
        sigma = self.shadow_sigma_db

        def read(channel: Channel, distance_m: float) -> float:
            level = predict(channel, distance_m)
            return level + gauss(0.0, sigma) if sigma > 0 else level

        return read


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One received advertising packet as the scanning app sees it."""

    recv: TimeInstant
    device_id: str
    channel: Channel | None
    rssi_dbm: float | None = None
    window_index: int = -1



@dataclass(frozen=True, eq=False)
class Packets(ColumnView):
    """Received packets as columns; items are :class:`PacketRecord`.

    ``recv_ns`` holds timestamps on ``clock``, ``device`` indexes
    ``device_ids``, ``channel`` holds channel ids (0 when unknown) and
    ``rssi_dbm`` is a list of readings, or None when none are attached.
    """

    recv_ns: np.ndarray
    device: np.ndarray
    device_ids: tuple[str, ...]
    channel: np.ndarray
    window_index: np.ndarray
    rssi_dbm: list | None = None
    clock: str = APP_CLOCK

    def __len__(self) -> int:
        return len(self.recv_ns)

    def _item(self, i: int) -> PacketRecord:
        return PacketRecord(
            recv=TimeInstant(int(self.recv_ns[i]), self.clock),
            device_id=self.device_ids[self.device[i]],
            channel=_CHANNEL_OF_ID[int(self.channel[i])],
            rssi_dbm=None if self.rssi_dbm is None else self.rssi_dbm[i],
            window_index=int(self.window_index[i]),
        )

    @classmethod
    def of(cls, packets) -> "Packets":
        """Columns of any packet sequence; a view is returned as it is."""
        if isinstance(packets, cls):
            return packets
        clocks = {p.recv.clock for p in packets} or {APP_CLOCK}
        if len(clocks) > 1:
            raise ClockMismatchError("packets of one capture must share a clock")
        ids = {}
        return cls(
            recv_ns=np.array([p.recv.ns for p in packets], np.int64),
            device=np.array([ids.setdefault(p.device_id, len(ids)) for p in packets], np.intp),
            device_ids=tuple(ids),
            channel=np.array([p.channel.id if p.channel else 0 for p in packets], np.int64),
            window_index=np.array([p.window_index for p in packets], np.int64),
            rssi_dbm=[p.rssi_dbm for p in packets],
            clock=clocks.pop(),
        )


def app_anchor_times(restarts: list[TimeInstant], clock: ClockModel) -> list[TimeInstant]:
    """Restart instants as the app records them.

    The app reads its own clock when it issues the restart, so no delivery
    latency applies here, unlike packet timestamps.
    """
    app = clock.to_app_ns(np.array([r.ns for r in restarts], np.int64))
    return [TimeInstant(ns, APP_CLOCK) for ns in app.tolist()]


def simulate_reception(
    events,
    windows,
    restarts: list[TimeInstant],
    clock: ClockModel,
    loss: LossModel,
    rng: random.Random,
) -> Packets:
    """Match transmissions against scan windows and timestamp the catches.

    ``events`` is an :class:`AdvertisingEvents` view or any sequence of
    :class:`AdvertisingEvent`, ``windows`` a :class:`ScanWindows` view or
    any sequence of :class:`ScanWindow`.  A beacon is received iff some window covers
    its transmit instant on the matching channel.  Windows must not
    overlap (ConfigError otherwise).  One channel slot of all events is
    matched at a time, by binary search over the bounds of the windows on
    that slot's channel; a packet's window is the first that ends after
    it.  Caught beacons are taken in transmit order (ties keep event
    order); one latency is drawn per epoch, then one loss draw per caught
    beacon when loss is on.  The result is sorted by app timestamp, ties
    in transmit order.
    """
    events = AdvertisingEvents.of(events)
    windows = ScanWindows.of(windows)
    order = np.argsort(windows.start_ns, kind="stable")
    bounds = np.stack([windows.start_ns[order], windows.end_ns[order]], 1)
    if np.any(np.diff(bounds.ravel()) < 0):
        raise ConfigError("scan windows must not overlap")
    w_channel = windows.channel[order]
    width = max((len(chs) for _, chs in events.sources), default=0)
    ids = np.zeros((len(events.sources), width), np.int64)  # 0 pads a short list
    for s, (_, chs) in enumerate(events.sources):
        ids[s, : len(chs)] = [c.id for c in chs]
    # Slot k goes out at start + k * gap: inside one of its channel's disjoint
    # half-open windows iff an odd number of their bounds are at or before it.
    caught = np.empty((len(events), width), bool)
    for k in range(width):
        t = events.start_ns + k * INTER_BEACON_GAP.ns
        for c in np.unique(ids[:, k]).tolist():
            edges = bounds[w_channel == c].ravel()
            mine = slice(None) if (ids[:, k] == c).all() else (ids[:, k] == c)[events.source]
            caught[mine, k] = np.searchsorted(edges, t[mine], side="right") & 1
    flat = np.flatnonzero(caught)
    ev = flat // max(width, 1)
    k = flat - ev * width  # np.divmod is several times slower
    t = events.start_ns[ev] + k * INTER_BEACON_GAP.ns
    # A stable sort of the caught beacons orders them as a stable sort of
    # every beacon would, so the draws below see the same sequence.
    hit = np.argsort(t, kind="stable")
    restart_ns = np.array([r.ns for r in restarts], np.int64)
    # One latency draw per epoch, before any loss draws, keeps the stream
    # layout stable when loss settings change.
    jitters = np.array([clock.draw_jitter(rng).ns for _ in restarts], np.int64)
    if loss.drop_prob > 0.0:
        hit = hit[~np.array([loss.drops(rng) for _ in hit], bool)]
    epoch = np.searchsorted(restart_ns, t[hit], side="right") - 1
    app_ns = clock.to_app_ns(t[hit]) + jitters[epoch]
    order = np.argsort(app_ns, kind="stable")
    hit = hit[order]
    src = events.source[ev[hit]]
    return Packets(
        recv_ns=app_ns[order],
        device=src,
        device_ids=tuple([device_id for device_id, _ in events.sources]),
        channel=ids[src, k[hit]],
        window_index=np.searchsorted(bounds[:, 1], t[hit], side="right"),
    )


# Most Gaussian pairs one ``getrandbits`` call of _gauss_draws draws.
_GAUSS_BLOCK = 1 << 10


def _floats(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a CPython ``math`` function) applied to each float of ``values``."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def _gauss_draws(n: int, rng: random.Random) -> np.ndarray:
    """The ``z`` of n calls of CPython's ``rng.gauss`` (each returns ``mu + z * sigma``).

    Same floats and final ``rng`` state: a pending ``rng.gauss_next`` comes
    first; each further pair takes two ``random()`` values, four Mersenne
    Twister words of one ``getrandbits(128 * pairs)`` (``random()`` is
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``), and gives ``cos(x2pi) * g2rad``
    then ``sin(x2pi) * g2rad`` with ``x2pi = u0 * 2pi`` and
    ``g2rad = sqrt(-2 * log(1 - u1))``; a sine left over goes back into
    ``rng.gauss_next``.  ``log``, ``cos`` and ``sin`` are ``math``'s, since
    numpy's may differ by an ulp; ``sqrt`` and the arithmetic are IEEE-exact.
    """
    parts = [np.zeros(0)]
    if n and rng.gauss_next is not None:
        parts.append(np.array([rng.gauss_next]))
        rng.gauss_next = None
        n -= 1
    while n > 0:
        pairs = min((n + 1) // 2, _GAUSS_BLOCK)
        words = _words(rng, 4 * pairs).reshape(pairs, 2, 2).astype(np.uint64)
        u = ((words[..., 0] >> 5) * 67108864 + (words[..., 1] >> 6)) * 2.0**-53
        x2pi = u[:, 0] * random.TWOPI
        g2rad = np.sqrt(-2.0 * _floats(math.log, 1.0 - u[:, 1]))
        z = np.stack([_floats(math.cos, x2pi) * g2rad, _floats(math.sin, x2pi) * g2rad], 1)
        z = z.ravel()
        if n < len(z):
            rng.gauss_next = float(z[-1])
            z = z[:-1]
        parts.append(z)
        n -= len(z)
    return np.concatenate(parts)


def attach_rssi(
    packets, model: RssiModel, distances: dict[str, float], rng: random.Random
) -> Packets:
    """Fill in RSSI readings given each device's distance in metres.

    The readings and the final ``rng`` state are those of ``model.reader(rng)``
    called once per packet in packet order: one prediction per channel and
    device, plus one shadowing draw per packet (see :func:`_gauss_draws`).
    A packet without an advertising channel, or a device without a
    distance, is refused before anything is drawn.
    """
    packets = Packets.of(packets)
    unknown = ~np.isin(packets.channel, ADVERTISING_CHANNELS)
    if unknown.any():
        dev = packets.device[np.argmax(unknown)]
        raise ConfigError(f"no advertising channel for a packet of {packets.device_ids[dev]!r}")
    where = [distances.get(d) for d in packets.device_ids]
    missing = np.array([d is None for d in where], bool)[packets.device]
    if missing.any():
        dev = packets.device[np.argmax(missing)]
        raise ConfigError(f"no distance given for device {packets.device_ids[dev]!r}")
    predict = model.to_calibration().predict_rssi
    key = packets.channel * len(where) + packets.device
    keys, inverse = np.unique(key, return_inverse=True)
    level = np.array(
        [predict(_CHANNEL_OF_ID[k // len(where)], where[k % len(where)]) for k in keys.tolist()],
        np.float64,
    )[inverse]
    sigma = model.shadow_sigma_db
    if sigma > 0:  # the reader adds rng.gauss(0.0, sigma), which is 0.0 + z * sigma
        level += 0.0 + _gauss_draws(len(level), rng) * sigma
    return replace(packets, rssi_dbm=level.tolist())
