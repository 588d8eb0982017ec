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
from itertools import islice

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
    _floats,
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
    Seeding in the constructor gives the state of ``Random()`` then ``.seed``,
    without first drawing a throwaway seed from the OS.
    """
    return random.Random(f"{seed}:{tag}")


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
        """A view of ``windows``: a view as it is, or a sequence of :class:`ScanWindow`."""
        if isinstance(windows, cls):
            return windows
        rows = [(w.start, w.end, w.channel.id) for w in windows]
        if any(s.clock != RADIO_CLOCK or e.clock != RADIO_CLOCK for s, e, _ in rows):
            raise ClockMismatchError("scan windows are radio-clocked")
        return cls(*np.array([(s.ns, e.ns, c) for s, e, c in rows], np.int64).reshape(-1, 3).T)


# Most candidates one ``getrandbits`` call of _event_starts draws, which
# also bounds what a block drawn past the end of the run overdraws.
_DRAW_BLOCK = 1 << 16


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` Mersenne Twister words of ``rng``, from one ``getrandbits(32 * n)``."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _event_starts(start_ns: int, end_ns: int, base_ns: int, span: int, rng) -> np.ndarray:
    """The ``t`` of ``t = start_ns; while t <= end_ns: t += base_ns + rng.randrange(span)``.

    Same int64 values and final ``rng`` state for 1 <= span <= 2**54: one
    ``getrandbits(32*w*n)`` holds the Mersenne Twister words of n candidates
    of CPython's ``randrange`` (``getrandbits(k)``, k = span.bit_length(): w
    words, least significant first, the last shifted right by 32*w - k).  The
    first block asks for the candidates certain to be used.  Each later block
    asks for those the expected events left need at the acceptance rate
    span / 2**k, plus slack; when the run ends inside it, ``rng`` is set back
    to its state before the block and draws the words of the used candidates
    again, so it stands where the loop leaves it.  No block forms an instant
    past the int64 range.
    """
    k = span.bit_length()
    w = (k - 1) // 32 + 1
    top = base_ns + span - 1
    parts, t, saved = [np.zeros(0, np.int64)], start_ns, None
    while t <= end_ns:
        n = (end_ns - t) // top + 1  # one per event certain to come
        if len(parts) > 1:  # after the first block that kept a candidate
            saved = rng.getstate()
            events = 2 * (end_ns - t) // (2 * base_ns + span - 1) + 1
            n = (events << k) // span + events // 8 + 16
        n = min(n, _DRAW_BLOCK, _INT64_MAX // top, (_INT64_MAX - t) // top + 1)
        words = _words(rng, w * n).reshape(n, w).copy()
        words[:, -1] >>= 32 * w - k
        cand = words.view(f"<u{4 * w}").ravel()
        kept = np.flatnonzero(cand < span)
        if len(kept):
            step = cand[kept].astype(np.int64) + base_ns
            starts = np.cumsum(step)
            starts -= step
            starts += t
            t = int(starts[-1]) + int(step[-1])
            if t > end_ns and saved is not None:
                m = int(np.searchsorted(starts, end_ns, "right"))
                starts = starts[:m]
                rng.setstate(saved)
                rng.getrandbits(32 * w * (int(kept[m - 1]) + 1))
            parts.append(starts)
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
    """Channel ids from 37 on, each next one drawn uniformly from the other two
    as CPython's ``choice`` does: ``getrandbits(2)`` until it is below 2."""
    bits, ch = rng.getrandbits, 37
    while True:
        yield ch
        r = bits(2)
        while r >= 2:
            r = bits(2)
        ch = _OTHERS[ch][r]


def _cadence(bounds, interval_ns, window_ns) -> tuple[ScanWindows, np.ndarray]:
    """Windows every ``interval_ns`` from each ``(start_ns, end_ns)`` of ``bounds``,
    cut off at its end, on the compliant cycle 37 -> 38 -> 39 -> 37 restarted at
    each start; with the index in ``bounds`` of each window's epoch."""
    start, end = np.array(bounds, np.int64).reshape(-1, 2).T
    n = np.maximum(-(-(end - start) // interval_ns), 0)
    epoch = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(epoch)) - np.repeat(np.cumsum(n) - n, n)  # the place in its epoch
    starts, width = start[epoch] + interval_ns * k, np.minimum(window_ns, end - start)[epoch]
    ends = np.minimum(starts, end[epoch] - width) + width  # min(starts + width, end), no wrap
    return ScanWindows(starts, ends, k % 3 + 37), epoch


class Compliant(ScannerBehavior):
    """Restarts on channel 37 and cycles 37, 38, 39 at the requested cadence."""

    tag = "compliant"

    def windows(self, settings, epochs, rng):
        own = self.effective_settings(settings)
        interval, window = own.scan_interval.ns, own.scan_window.ns
        return _cadence([(s.ns, e.ns) for s, e in epochs], interval, window)[0]


class BalancedOffset(ScannerBehavior):
    """Settles into the compliant pattern only some time after each restart.

    For each epoch an offset is drawn uniformly from [0, offset_factor * T].
    Until the offset has elapsed the scanner keeps the requested cadence but
    picks channels at random; from the offset on it behaves compliantly,
    anchored at the offset instant rather than at the restart.
    """

    tag = "balanced-offset"

    def __init__(self, offset_factor: float = 2.0):
        if not 0 <= offset_factor < math.inf:
            raise ConfigError("offset_factor must be finite and non-negative")
        self.offset_factor = offset_factor

    def windows(self, settings, epochs, rng):
        interval, window = settings.scan_interval.ns, settings.scan_window.ns
        span = round(self.offset_factor * interval)
        parts, drawn = [], []
        for start, end in epochs:
            settle_ns = min(start.ns + rng.randrange(span + 1), end.ns)
            n = -(-(settle_ns - start.ns) // interval)  # the windows before settling
            drawn += [rng.choice(ADVERTISING_CHANNELS) for _ in range(n)]
            parts += [(start.ns, settle_ns), (settle_ns, end.ns)]
        made, part = _cadence(parts, interval, window)
        made.channel[part % 2 == 0] = drawn
        return made


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
        """Each window draws ``randrange(min, max + 1)`` as CPython does, then
        hops; so does an epoch's last window.  The windows go straight into
        int64 columns, with no object per window."""
        lo = self.min_window.ns
        width = self.max_window.ns - lo + 1
        k = width.bit_length()
        bits = rng.getrandbits
        starts, ends, ids = array("q"), array("q"), array("q")
        for start, end in epochs:
            cursor, stop, first = start.ns, end.ns, len(starts)
            if cursor >= stop:
                continue
            walk = _random_walk(rng)
            for ch in walk:
                starts.append(cursor)
                ids.append(ch)
                r = bits(k)  # randrange: k-bit draws until one is below the width
                while r >= width:
                    r = bits(k)
                cursor += lo + r
                if cursor >= stop:
                    break
            next(walk)  # the hop after an epoch's last window is drawn too
            ends += starts[first + 1 :]
            ends.append(stop)
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
        made = _cadence([(s.ns, e.ns) for s, e in epochs], interval, interval)[0]
        made.channel[:] = np.fromiter(islice(_random_walk(rng), len(made)), np.int64, len(made))
        return made


class ContinueChannel(ScannerBehavior):
    """Compliant timing, but a restart does not reset the channel cycle.

    A window cut short by a restart is scanned again first thing in the new
    epoch; otherwise the cycle simply continues where it stopped.  Only the
    window phase re-anchors at the restart.
    """

    tag = "continue-channel"

    def windows(self, settings, epochs, rng):
        interval, window = settings.scan_interval.ns, settings.scan_window.ns
        made = _cadence([(s.ns, e.ns) for s, e in epochs], interval, window)[0]
        # only an epoch's last window can be short, and its channel comes again next
        short = made.end_ns - made.start_ns < window
        made.channel[:] = (np.arange(len(made)) - np.cumsum(short) + short) % 3 + 37
        return made


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


def _schedule_ns(restarts) -> list[int]:
    """The ns of the restarts that gen_scan_windows and simulate_reception
    take: radio instants, at least one, strictly increasing."""
    if any(r.clock != RADIO_CLOCK for r in restarts):
        raise ClockMismatchError("scan restarts are radio instants")
    ns = [r.ns for r in restarts]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("scan restarts must be non-empty and strictly increasing")
    return ns


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
    ns = _schedule_ns(restarts)
    if end.clock != RADIO_CLOCK:
        raise ClockMismatchError("scan horizon is a radio instant")
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
        if not hi < 2**53 / 1e9:  # draw_jitter counts whole ns
            raise ConfigError("upper bound must stay below 2**53 ns")

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
        if len(self.channel_offset_db) != 3:
            raise ConfigError("channel_offset_db needs one entry per advertising channel")
        for name in ("tx_power_dbm", "antenna_gain_db", "channel_offset_db"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite")
        if not 0 < self.path_loss_exponent < math.inf:
            raise ConfigError("path_loss_exponent must be finite and positive")
        if not 0 <= self.shadow_sigma_db < math.inf:
            raise ConfigError("shadow_sigma_db must be finite and non-negative")

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

    @np.errstate(all="ignore")  # inf and nan where float arithmetic gives them
    def readings(self, channel, distance_m, z=None) -> np.ndarray:
        """The readings at channel ids ``channel`` and distances ``distance_m`` (m):
        ``to_calibration().predict_rssi`` of each, with one ``math.log10`` per distinct
        distance and the rest as column arithmetic in ``predict_rssi``'s order,
        plus ``0.0 + z * shadow_sigma_db`` (what ``rng.gauss(0.0, sigma)`` adds) where
        standard-normal draws ``z`` are given."""
        model = self.to_calibration()
        channel = np.asarray(channel, np.int64)
        bad = (channel < 37) | (channel > 39)
        if bad.any():
            raise ConfigError(f"not an advertising channel: {channel[bad].min()}")
        dist, d_at = np.unique(np.asarray(distance_m, np.float64), return_inverse=True)
        if np.any(dist <= 0):
            raise ConfigError("distance must be positive")
        slope = 10.0 * model.path_loss_exponent
        level = (model.intercept_dbm - slope * _floats(math.log10, dist))[d_at]
        level += model._channel_terms()[channel - 37]
        if z is not None:
            level += 0.0 + np.asarray(z, np.float64) * self.shadow_sigma_db
        return level


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
    ``rssi_dbm`` is a float64 column of readings, NaN where a packet has
    none (an item's ``rssi_dbm`` is then None), all NaN without RSSI.
    """

    recv_ns: np.ndarray
    device: np.ndarray
    device_ids: tuple[str, ...]
    channel: np.ndarray
    window_index: np.ndarray
    rssi_dbm: np.ndarray
    clock: str = APP_CLOCK

    def __len__(self) -> int:
        return len(self.recv_ns)

    def _item(self, i: int) -> PacketRecord:
        rssi = float(self.rssi_dbm[i])
        return PacketRecord(
            recv=TimeInstant(int(self.recv_ns[i]), self.clock),
            device_id=self.device_ids[self.device[i]],
            channel=_CHANNEL_OF_ID[int(self.channel[i])],
            rssi_dbm=None if math.isnan(rssi) else rssi,
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
            rssi_dbm=np.array([p.rssi_dbm for p in packets], np.float64),  # None reads as NaN
            clock=clocks.pop(),
        )


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
    its transmit instant on the matching channel; each window's bounds are
    searched among the sorted event starts, and it gives its catches their
    ``window_index``.  Windows must not overlap nor open before the first
    restart, nor beacons pass the int64 ns range (ConfigError otherwise).
    Caught beacons are taken in transmit order (ties keep event order); one
    latency is drawn per epoch, then one loss draw per caught beacon when
    loss is on.  The result is sorted by
    app timestamp, ties in transmit order, with no readings (all NaN).
    """
    restart_ns = np.array(_schedule_ns(restarts), np.int64)
    events = AdvertisingEvents.of(events)
    windows = ScanWindows.of(windows)
    order = np.argsort(windows.start_ns, kind="stable")
    w_start, w_end = windows.start_ns[order], windows.end_ns[order]
    if np.any(w_end < w_start) or np.any(w_start[1:] < w_end[:-1]):
        raise ConfigError("scan windows must not overlap")
    if len(w_start) and w_start[0] < restart_ns[0]:
        raise ConfigError("scan windows must not open before the first restart")
    w_channel, gap = windows.channel[order], INTER_BEACON_GAP.ns
    lists = [[c.id for c in chs] for _, chs in events.sources]
    groups = {(k, c) for chs in lists for k, c in enumerate(chs)}
    by_start = np.argsort(events.start_ns, kind="stable")
    starts = events.start_ns[by_start]
    # A window [s, e) on channel c catches the events that send c in slot k
    # and start in [s, e) - k * gap, clamped at the int64 bottom: a run of
    # their sorted starts, at an offset ``first`` in ``pool``.
    pool, runs = [by_start], [np.zeros((4, 0), np.int64)]
    for k, c in sorted(groups):
        mine = np.array([chs[k : k + 1] == [c] for chs in lists])
        first = 0 if mine.all() else sum(map(len, pool))
        if first:
            pool.append(by_start[mine[events.source[by_start]]])
        at = events.start_ns[pool[-1]] if first else starts
        if len(at) and at[-1] > _INT64_MAX - k * gap:
            raise ConfigError("advertising beacons must stay within the int64 ns range")
        w, floor = np.flatnonzero(w_channel == c), _INT64_MIN + k * gap
        lo, hi = (np.searchsorted(at, np.maximum(b[w], floor) - k * gap) for b in (w_start, w_end))
        runs.append(np.stack([w, lo + first, hi - lo, np.full(len(w), k * gap)]))
    runs = np.concatenate(runs, axis=1)
    w, first, n, shift = runs[:, np.argsort(runs[0], kind="stable")]
    pool = pool[0] if len(pool) == 1 else np.concatenate(pool)
    ev = pool[np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)]
    t, win = events.start_ns[ev] + np.repeat(shift, n), np.repeat(w, n)
    # With each channel in one slot a window catches one slot, so the runs,
    # in window order, are in transmit order, ties in event order.
    if len({c for _, c in groups}) < len(groups):
        hit = np.lexsort((ev, t))
        ev, t, win = ev[hit], t[hit], win[hit]
    # One latency draw per epoch, before any loss draws, keeps the stream
    # layout stable when loss settings change.
    jitters = np.array([clock.draw_jitter(rng).ns for _ in restart_ns], np.int64)
    if loss.drop_prob > 0.0:
        kept = ~np.array([loss.drops(rng) for _ in range(len(t))], bool)
        ev, t, win = ev[kept], t[kept], win[kept]
    # Each epoch's run of beacons takes its latency; no window opens before the first.
    cuts = np.append(np.searchsorted(t, restart_ns), len(t))
    app_ns = clock.to_app_ns(t) + np.repeat(jitters, np.diff(cuts))
    order = np.argsort(app_ns, kind="stable")
    win = win[order]
    return Packets(
        recv_ns=app_ns[order],
        device=events.source[ev[order]],
        device_ids=tuple([device_id for device_id, _ in events.sources]),
        channel=w_channel[win],
        window_index=win,
        rssi_dbm=np.full(len(order), np.nan),
    )


# Most Gaussian pairs one ``getrandbits`` call of _gauss_draws draws.
_GAUSS_BLOCK = 1 << 10


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

    The readings are :meth:`RssiModel.readings`, with one shadowing draw per
    packet in packet order when ``model.shadow_sigma_db > 0``: the floats and
    final ``rng`` state of one ``rng.gauss`` each (see :func:`_gauss_draws`).
    A packet without an advertising channel, or a device without a finite
    positive distance, is refused before anything is drawn.
    """
    packets = Packets.of(packets)
    unknown = ~np.isin(packets.channel, ADVERTISING_CHANNELS)
    if unknown.any():
        dev = packets.device[np.argmax(unknown)]
        raise ConfigError(f"no advertising channel for a packet of {packets.device_ids[dev]!r}")
    where = [distances.get(d) for d in packets.device_ids]
    distance = np.array(where, np.float64)[packets.device]  # None is NaN
    bad = ~(np.isfinite(distance) & (distance > 0))
    if bad.any():
        dev = packets.device[np.argmax(bad)]
        name = packets.device_ids[dev]
        if where[dev] is None:
            raise ConfigError(f"no distance given for device {name!r}")
        raise ConfigError(f"distance of device {name!r} must be finite and positive")
    z = _gauss_draws(len(packets.device), rng) if model.shadow_sigma_db > 0 else None
    return replace(packets, rssi_dbm=model.readings(packets.channel, distance, z))
