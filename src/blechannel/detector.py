"""Advertising-channel identification from packet arrival times.

A compliant scanner restarts on channel 37 and then cycles 37, 38, 39, one
channel per scan interval.  Knowing when scanning started, the elapsed time
of a packet pins down the interval slot it arrived in and therefore the
channel it was received on; no radio access is needed.  Packets close to a
slot boundary are left unclassified (the guard zone) because clock drift
and delivery latency make the slot ambiguous there.

All classification arithmetic is integer nanoseconds, so results are exact
however long the scan has been running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import APP_CLOCK, Channel, ColumnView, Duration, ScanSettings, TimeInstant
from .errors import ClockMismatchError, ConfigError
from .simkit import Packets

DEFAULT_GUARD = Duration.from_seconds(0.2)
# Android silently downgrades scans that run longer than 30 minutes, so a
# session must restart well before that.
MAX_SCAN_TIME_CEILING = Duration.from_seconds(1800.0)
DEFAULT_MAX_SCAN_TIME = Duration.from_seconds(600.0)
DEFAULT_IDLE_TIMEOUT = Duration.from_seconds(300.0)


class ClassKind(enum.Enum):
    """What a packet's timing says about it."""

    CHANNEL = "channel"
    GUARD = "guard"
    PRE_START = "pre-start"


@dataclass(frozen=True, slots=True)
class Classification:
    """Outcome of classifying one packet against one scan-start anchor.

    ``slot_index`` counts scan intervals since the anchor.  ``slot_start``
    and ``slot_end`` bound the full interval the packet fell into, which is
    also the tightest window reconstruction the arrival time supports.
    They are present for guard packets too (the nearest slot by division);
    only the channel is withheld there.  Pre-start packets carry nothing.
    """

    kind: ClassKind
    channel: Channel | None = None
    slot_index: int | None = None
    slot_start: TimeInstant | None = None
    slot_end: TimeInstant | None = None
    offset_in_slot: Duration | None = None

    @property
    def label(self) -> str:
        """Stable text form: the channel id, "guard" or "pre-start"."""
        code = KINDS.index(self.kind)
        return _LABELS[self.channel.id - 37 if code == CHANNEL else 2 + code]


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Tuning for the classifier and the scanning state machine."""

    scan_settings: ScanSettings
    guard: Duration = DEFAULT_GUARD
    max_scan_time: Duration = DEFAULT_MAX_SCAN_TIME
    idle_timeout: Duration = DEFAULT_IDLE_TIMEOUT

    def __post_init__(self):
        if self.scan_settings.scan_interval.ns < 2:
            raise ConfigError("scan interval must be at least 2 ns")
        if not 0 <= self.guard.ns < self.scan_settings.scan_interval.ns:
            raise ConfigError("guard must be non-negative and below the scan interval")
        if not 0 < self.max_scan_time.ns <= MAX_SCAN_TIME_CEILING.ns:
            raise ConfigError(
                f"max_scan_time must be positive and at most "
                f"{MAX_SCAN_TIME_CEILING.seconds:.0f} s"
            )
        if self.idle_timeout.ns <= 0:
            raise ConfigError("idle_timeout must be positive")


# Kind codes of the columnar kernel, indexing KINDS.
CHANNEL, GUARD, PRE_START = range(3)
KINDS = (ClassKind.CHANNEL, ClassKind.GUARD, ClassKind.PRE_START)
_LABELS = ("37", "38", "39", "guard", "pre-start")


@dataclass(frozen=True, eq=False)
class Labels(ColumnView):
    """Label codes as texts: _LABELS[slot % 3] on a channel, else _LABELS[2 + kind]."""

    code: np.ndarray

    def __post_init__(self):
        if np.any((self.code < 0) | (self.code >= len(_LABELS))):
            raise ConfigError(f"label codes must lie in [0, {len(_LABELS)})")

    def __len__(self) -> int:
        return len(self.code)

    def _item(self, i: int) -> str:
        return _LABELS[self.code[i]]


@dataclass(frozen=True, eq=False)
class Instants(ColumnView):
    """Instants on one clock as an int64 ns column; items are :class:`TimeInstant`."""

    ns: np.ndarray
    clock: str = APP_CLOCK

    def __len__(self) -> int:
        return len(self.ns)

    def _item(self, i: int) -> TimeInstant:
        return TimeInstant(int(self.ns[i]), self.clock)

    @classmethod
    def of(cls, instants) -> "Instants":
        """Columns of any instants, read once; a view is returned as it is."""
        if isinstance(instants, cls):
            return instants
        instants = tuple(instants)
        clocks = {t.clock for t in instants} or {APP_CLOCK}
        if len(clocks) > 1:
            raise ClockMismatchError("instants of one column must share a clock")
        return cls(np.array([t.ns for t in instants], np.int64), clocks.pop())


def _slot_rule(delta, interval, guard):
    """(slot, rem, in_guard) of an elapsed time >= 0; ints and int arrays alike.

    The remainder is taken as ``delta - slot * interval``, exact in ints and in
    uint64 alike: numpy's remainder has no fast path for one divisor, its floor
    division has.  A packet within half a guard of either slot edge is in the
    guard zone; doubling both sides keeps odd guards in integers.
    """
    slot = delta // interval
    rem = delta - slot * interval
    twice = 2 * rem
    return slot, rem, (twice < guard) | (twice > 2 * interval - guard)


def _channel_offset(slot: np.ndarray) -> np.ndarray:
    """``slot % 3`` of slots >= 0, by floor division (see :func:`_slot_rule`)."""
    return slot - slot // 3 * 3


def _classification(kind: int, slot: int, rem: int, anchor: TimeInstant, interval: int):
    if kind == PRE_START:
        return Classification(kind=ClassKind.PRE_START)
    start = TimeInstant(anchor.ns + slot * interval, anchor.clock)
    end = TimeInstant(start.ns + interval, anchor.clock)
    channel = Channel.of(37 + slot % 3) if kind == CHANNEL else None
    return Classification(KINDS[kind], channel, slot, start, end, Duration(rem))


def classify_time(
    recv: TimeInstant, anchor: TimeInstant, config: DetectorConfig
) -> Classification:
    """Classify one arrival against the most recent scan start.

    ``recv`` and ``anchor`` must be on the same clock; subtracting them
    enforces that.  A packet is in the guard zone when it sits within half
    a guard length of either edge of its slot.
    """
    delta = (recv - anchor).ns
    interval = config.scan_settings.scan_interval.ns
    if delta < 0:
        return _classification(PRE_START, 0, 0, anchor, interval)
    slot, rem, guarded = _slot_rule(delta, interval, config.guard.ns)
    return _classification(GUARD if guarded else CHANNEL, slot, rem, anchor, interval)


def classify_ns(recv_ns, restart_ns, interval_ns: int, guard_ns: int):
    """The columnar classifier: ``(kind, slot, rem, anchor)`` int64 arrays.

    Each arrival (int64 ns, any order) is measured from the latest restart
    at or before it; ``anchor`` indexes that restart in the sorted
    restarts (the first for an arrival before them all).  ``kind`` holds
    KINDS codes, and a CHANNEL packet's channel is ``37 + slot % 3``.
    Pre-start rows have slot and rem 0.  Elapsed times are taken in
    uint64, so any two int64 instants are exact.  Needs ``interval_ns >=
    2`` (slots then fit int64; DetectorConfig enforces it) and ``0 <=
    guard_ns < interval_ns``.
    """
    recv = np.asarray(recv_ns, dtype=np.int64)
    starts = np.sort(np.asarray(restart_ns, dtype=np.int64))
    if not starts.size:
        raise ConfigError("need at least one scan start to classify against")
    anchor = np.maximum(np.searchsorted(starts, recv, side="right") - 1, 0)
    start = starts[anchor]
    pre = recv < start
    delta = recv.view(np.uint64) - start.view(np.uint64)
    slot, rem, guarded = _slot_rule(delta, np.uint64(interval_ns), np.uint64(guard_ns))
    kind = np.where(pre, PRE_START, np.where(guarded, GUARD, CHANNEL))
    slot = np.where(pre, 0, slot.astype(np.int64))
    return kind, slot, np.where(pre, 0, rem.astype(np.int64)), anchor


class SessionMode(enum.Enum):
    LOW_POWER = "low-power"
    LOW_LATENCY = "low-latency"


@dataclass
class DetectorSession:
    """Scanning state machine for live classification.

    The session idles in a low-power background scan.  The first packet
    from a target switches it to continuous scanning with a fresh restart,
    which is the instant all later packets are classified against.  The
    scan is restarted whenever it has run for ``max_scan_time`` (drift
    accumulates from the anchor, and the platform degrades overlong scans)
    and dropped back to low power after ``idle_timeout`` without a packet.

    Drive it with :func:`session_on_packet` for every arrival and
    :func:`session_on_tick` from a timer.
    """

    config: DetectorConfig
    mode: SessionMode = SessionMode.LOW_POWER
    anchor: TimeInstant | None = None
    last_signal: TimeInstant | None = None
    restarts: list[TimeInstant] = field(default_factory=list)

    def _restart(self, now: TimeInstant) -> None:
        self.anchor = now
        self.restarts.append(now)

    def on_packet(self, recv: TimeInstant) -> Classification | None:
        """Classify an arrival, or absorb it if it only (re)arms the scan.

        Returns None for the packet that triggers the switch out of low
        power: the scan restarts on detection, so that packet has no slot.
        """
        self.last_signal = recv
        if self.mode is SessionMode.LOW_POWER:
            self.mode = SessionMode.LOW_LATENCY
            self._restart(recv)
            return None
        if (recv - self.anchor).ns > self.config.max_scan_time.ns:
            # A timer should normally have restarted us; recover here so a
            # tickless driver still never classifies against a stale anchor.
            self._restart(recv)
            return None
        return classify_time(recv, self.anchor, self.config)

    def on_tick(self, now: TimeInstant) -> str | None:
        """Advance time-based transitions; returns "restart", "idle" or None."""
        if self.mode is not SessionMode.LOW_LATENCY:
            return None
        if self.last_signal is not None and (now - self.last_signal).ns > self.config.idle_timeout.ns:
            self.mode = SessionMode.LOW_POWER
            self.anchor = None
            return "idle"
        if self.anchor is not None and (now - self.anchor).ns > self.config.max_scan_time.ns:
            self._restart(now)
            return "restart"
        return None


def session_on_packet(session: DetectorSession, recv: TimeInstant) -> Classification | None:
    return session.on_packet(recv)


def session_on_tick(session: DetectorSession, now: TimeInstant) -> str | None:
    return session.on_tick(now)


@dataclass(frozen=True, slots=True)
class ClassifiedPacket:
    """A trace packet with its classification and the anchor used."""

    packet: object
    result: Classification
    anchor: TimeInstant


@dataclass(frozen=True, eq=False)
class ClassifiedPackets(ColumnView):
    """:func:`classify_trace`'s kernel columns; items are :class:`ClassifiedPacket`.

    ``anchor`` indexes ``restart_ns``, the sorted restarts on ``clock``.
    """

    packets: Packets
    restart_ns: np.ndarray
    clock: str
    interval_ns: int
    kind: np.ndarray
    slot: np.ndarray
    rem: np.ndarray
    anchor: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def _item(self, i: int) -> ClassifiedPacket:
        anchor = TimeInstant(int(self.restart_ns[self.anchor[i]]), self.clock)
        kind, slot, rem = int(self.kind[i]), int(self.slot[i]), int(self.rem[i])
        result = _classification(kind, slot, rem, anchor, self.interval_ns)
        return ClassifiedPacket(self.packets[i], result, anchor)

    def labels(self) -> Labels:
        """Each packet's :attr:`Classification.label`, kept as label codes."""
        return Labels(np.where(self.kind == CHANNEL, _channel_offset(self.slot), self.kind + 2))

    def outcomes(self, true_channel: np.ndarray) -> np.ndarray:
        """1 where the channel matches ``true_channel`` (ids, 0 unknown), 0
        where it does not, -1 for guard, pre-start and unknown truth."""
        judged = (self.kind == CHANNEL) & (true_channel != 0)
        return np.where(judged, 37 + _channel_offset(self.slot) == true_channel, -1)


def classify_trace(packets, restarts, config: DetectorConfig) -> ClassifiedPackets:
    """Classify a whole capture against a known restart schedule.

    ``restarts`` are the scan-start instants the app recorded, on the same
    clock as the packet timestamps.  Each packet is classified against the
    latest restart at or before it; packets older than every restart come
    back as pre-start.  ``packets`` is a :class:`Packets` view or any
    packet records, in any order, and ``restarts`` an :class:`Instants`
    view or any instants; no packets means no clock to mix.
    """
    restarts = Instants.of(restarts)
    packets = Packets.of(packets)
    if len({p.clock for p in (packets, restarts) if len(p)}) > 1:
        raise ClockMismatchError("packets and restarts must share one clock")
    starts = np.sort(restarts.ns)
    interval = config.scan_settings.scan_interval.ns
    kind, slot, rem, anchor = classify_ns(packets.recv_ns, starts, interval, config.guard.ns)
    return ClassifiedPackets(packets, starts, restarts.clock, interval, kind, slot, rem, anchor)
