"""Domain types and protocol constants for BLE advertising and scanning.

Time is kept as integer nanoseconds throughout so that slot arithmetic at
multi-second boundaries stays exact over arbitrarily long runs.  Instants are
tagged with the clock they were read from ("app" or "radio"); mixing clocks
without an explicit conversion raises instead of silently producing garbage.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ClockMismatchError, ConfigError

NS_PER_S = 1_000_000_000

APP_CLOCK = "app"
RADIO_CLOCK = "radio"


@dataclass(frozen=True, slots=True, order=True)
class Duration:
    """Signed span of time with nanosecond resolution."""

    ns: int

    @classmethod
    def from_seconds(cls, seconds: float) -> "Duration":
        ns = seconds * NS_PER_S
        if not math.isfinite(ns):
            raise ConfigError(f"duration out of range: {seconds!r} s")
        return cls(round(ns))

    @property
    def seconds(self) -> float:
        return self.ns / NS_PER_S

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.ns + other.ns)

    def __sub__(self, other: "Duration") -> "Duration":
        return Duration(self.ns - other.ns)

    def __neg__(self) -> "Duration":
        return Duration(-self.ns)

    def __mul__(self, k: int) -> "Duration":
        return Duration(self.ns * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.ns != 0


@dataclass(frozen=True, slots=True)
class TimeInstant:
    """A point in time on a named clock."""

    ns: int
    clock: str

    def _check(self, other: "TimeInstant") -> None:
        if self.clock != other.clock:
            raise ClockMismatchError(
                f"cannot mix {self.clock}-clock and {other.clock}-clock instants"
            )

    def __add__(self, delta: Duration) -> "TimeInstant":
        return TimeInstant(self.ns + delta.ns, self.clock)

    def __sub__(self, other):
        if isinstance(other, TimeInstant):
            self._check(other)
            return Duration(self.ns - other.ns)
        return TimeInstant(self.ns - other.ns, self.clock)

    def __lt__(self, other: "TimeInstant") -> bool:
        self._check(other)
        return self.ns < other.ns

    def __le__(self, other: "TimeInstant") -> bool:
        self._check(other)
        return self.ns <= other.ns

    def __gt__(self, other: "TimeInstant") -> bool:
        self._check(other)
        return self.ns > other.ns

    def __ge__(self, other: "TimeInstant") -> bool:
        self._check(other)
        return self.ns >= other.ns


class ColumnView(Sequence):
    """Read-only sequence over numpy columns whose items are built on access.

    Hot paths read the columns; item objects exist only for callers that
    index or iterate.  A view equals any sequence with equal items.
    """

    __hash__ = None

    def _item(self, i: int):
        raise NotImplementedError

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(len(self)))]
        return self._item(range(len(self))[i])

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _floats(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a CPython ``math`` function) applied to each float of ``values``."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def app_instant(seconds: float) -> TimeInstant:
    return TimeInstant(round(seconds * NS_PER_S), APP_CLOCK)


def radio_instant(seconds: float) -> TimeInstant:
    return TimeInstant(round(seconds * NS_PER_S), RADIO_CLOCK)


# Advertising channels and their center frequencies.
CHANNEL_FREQ_HZ = {37: 2.402e9, 38: 2.426e9, 39: 2.480e9}
ADVERTISING_CHANNELS = (37, 38, 39)


@dataclass(frozen=True, slots=True)
class Channel:
    """One of the three BLE advertising channels (37, 38 or 39)."""

    id: int

    def __post_init__(self):
        if self.id not in CHANNEL_FREQ_HZ:
            raise ConfigError(f"not an advertising channel: {self.id}")

    @classmethod
    def of(cls, channel_id: int) -> "Channel":
        return _CHANNELS.get(channel_id) or cls(channel_id)


_CHANNELS = {c: Channel(c) for c in ADVERTISING_CHANNELS}

CH37 = _CHANNELS[37]
CH38 = _CHANNELS[38]
CH39 = _CHANNELS[39]


def channel_frequency(channel: Channel) -> float:
    """Center frequency of an advertising channel in Hz."""
    return CHANNEL_FREQ_HZ[channel.id]


def next_channel(channel: Channel) -> Channel:
    """Round-robin successor: 37 -> 38 -> 39 -> 37."""
    return _CHANNELS[37 + (channel.id - 37 + 1) % 3]


@dataclass(frozen=True, slots=True)
class ScanSettings:
    """Scanner timing: one window of ``scan_window`` every ``scan_interval``."""

    scan_interval: Duration
    scan_window: Duration

    def __post_init__(self):
        if not 0 < self.scan_window.ns <= self.scan_interval.ns:
            raise ConfigError(
                f"need 0 < scan_window <= scan_interval, got "
                f"{self.scan_window.seconds} s / {self.scan_interval.seconds} s"
            )


@dataclass(frozen=True, slots=True)
class AdvSettings:
    """Advertiser timing: one event every base_interval plus a random delay.

    The delay is drawn uniformly from [0, rho_max] before each event.  Both
    stay below 2**53 ns (about 104 days), the range of exact simulated time.
    """

    base_interval: Duration
    rho_max: Duration = Duration.from_seconds(0.010)

    def __post_init__(self):
        if not 0 < self.base_interval.ns < 2**53:
            raise ConfigError("advertising base_interval must be positive and below 2**53 ns")
        if not 0 <= self.rho_max.ns < 2**53:
            raise ConfigError("rho_max must be non-negative and below 2**53 ns")


class AndroidMode(enum.Enum):
    """Named parameter sets selectable through the Android BLE API."""

    SCAN_MODE_LOW_POWER = "SCAN_MODE_LOW_POWER"
    SCAN_MODE_BALANCED = "SCAN_MODE_BALANCED"
    SCAN_MODE_LOW_LATENCY = "SCAN_MODE_LOW_LATENCY"
    # Older Android releases used a 5 s interval for low-latency scanning
    # (observed on the Galaxy S5); exposed as its own preset.
    SCAN_MODE_LOW_LATENCY_OLD_API = "SCAN_MODE_LOW_LATENCY_OLD_API"
    ADVERTISE_MODE_LOW_POWER = "ADVERTISE_MODE_LOW_POWER"
    ADVERTISE_MODE_BALANCED = "ADVERTISE_MODE_BALANCED"
    ADVERTISE_MODE_LOW_LATENCY = "ADVERTISE_MODE_LOW_LATENCY"


_SCAN_PRESETS = {
    AndroidMode.SCAN_MODE_LOW_POWER: (5.120, 0.512),
    AndroidMode.SCAN_MODE_BALANCED: (4.096, 1.024),
    AndroidMode.SCAN_MODE_LOW_LATENCY: (4.096, 4.096),
    AndroidMode.SCAN_MODE_LOW_LATENCY_OLD_API: (5.000, 5.000),
}

_ADVERTISE_PRESETS = {
    AndroidMode.ADVERTISE_MODE_LOW_POWER: 1.000,
    AndroidMode.ADVERTISE_MODE_BALANCED: 0.250,
    AndroidMode.ADVERTISE_MODE_LOW_LATENCY: 0.100,
}


def preset_settings(mode):
    """Return the ScanSettings or AdvSettings behind a named Android mode.

    ``mode`` may be an AndroidMode or its string name; unknown names raise
    ConfigError.
    """
    if isinstance(mode, str):
        try:
            mode = AndroidMode(mode.upper())
        except ValueError:
            raise ConfigError(f"unknown Android mode: {mode!r}") from None
    if mode in _SCAN_PRESETS:
        interval_s, window_s = _SCAN_PRESETS[mode]
        return ScanSettings(
            scan_interval=Duration.from_seconds(interval_s),
            scan_window=Duration.from_seconds(window_s),
        )
    if mode in _ADVERTISE_PRESETS:
        return AdvSettings(base_interval=Duration.from_seconds(_ADVERTISE_PRESETS[mode]))
    raise ConfigError(f"unknown Android mode: {mode!r}")
