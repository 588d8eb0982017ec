"""RSSI distance estimation aware of the advertising channel.

The three advertising channels sit 78 MHz apart and radio chains amplify
them differently, so a single RSSI-to-distance curve smears several dB of
purely channel-dependent variation into the range estimate.  This module
provides the free-space reference maths, a least-squares calibration that
fits per-channel corrections, and a comparison harness for channel-aware
versus channel-agnostic estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ADVERTISING_CHANNELS, CHANNEL_FREQ_HZ, Channel, ColumnView, _floats
from .errors import ConfigError, FitError, NoDataError, TraceParseError

SPEED_OF_LIGHT_M_S = 299_792_458.0


def path_loss_db(freq_hz: float, distance_m: float, exponent: float = 2.0) -> float:
    """Log-distance path loss: free space at one metre, then rolloff.

    With exponent 2 this is exactly the free-space loss at any distance.
    """
    if freq_hz <= 0:
        raise ConfigError("frequency must be positive")
    if distance_m <= 0:
        raise ConfigError("distance must be positive")
    loss_1m = 20.0 * math.log10(4.0 * math.pi * freq_hz / SPEED_OF_LIGHT_M_S)
    return loss_1m + 10.0 * exponent * math.log10(distance_m)


@dataclass(frozen=True, slots=True)
class RadioLink:
    """Transmit power and combined antenna gain of one link."""

    tx_power_dbm: float = 0.0
    antenna_gain_db: float = 0.0


def friis_rx_power(link: RadioLink, freq_hz: float, distance_m: float) -> float:
    """Free-space received power in dBm."""
    return link.tx_power_dbm + link.antenna_gain_db - path_loss_db(freq_hz, distance_m)


def estimate_distance(
    link: RadioLink, freq_hz: float, rssi_dbm: float, exponent: float = 2.0
) -> float:
    """Invert the log-distance model for a single reading, in metres."""
    if exponent <= 0:
        raise ConfigError("path-loss exponent must be positive")
    margin = link.tx_power_dbm + link.antenna_gain_db - rssi_dbm - path_loss_db(freq_hz, 1.0)
    return 10.0 ** (margin / (10.0 * exponent))


@dataclass(frozen=True, slots=True)
class RangingSample:
    """One calibration or evaluation observation."""

    channel: Channel
    distance_m: float
    rssi_dbm: float


@dataclass(frozen=True, eq=False)
class RangingSamples(ColumnView):
    """Labelled readings as columns; items are :class:`RangingSample`.

    ``channel`` holds int64 channel ids (37, 38 or 39), ``distance_m`` and
    ``rssi_dbm`` float64 columns of the same length.
    """

    channel: np.ndarray
    distance_m: np.ndarray
    rssi_dbm: np.ndarray

    def __post_init__(self):
        if not len(self.channel) == len(self.distance_m) == len(self.rssi_dbm):
            raise ConfigError("sample columns must have one entry per sample")
        bad = (self.channel < 37) | (self.channel > 39)
        if bad.any():
            raise ConfigError(f"not an advertising channel: {self.channel[bad][0]}")

    def __len__(self) -> int:
        return len(self.channel)

    def _item(self, i: int) -> RangingSample:
        return RangingSample(
            Channel.of(int(self.channel[i])), float(self.distance_m[i]), float(self.rssi_dbm[i])
        )

    @classmethod
    def of(cls, samples) -> "RangingSamples":
        """Columns of any iterable of samples, read once; a view is returned as it is."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        return cls(
            channel=np.array([s.channel.id for s in samples], np.int64),
            distance_m=np.array([s.distance_m for s in samples], np.float64),
            rssi_dbm=np.array([s.rssi_dbm for s in samples], np.float64),
        )


# Extra free-space loss of each channel id relative to channel 37; 0.28 dB at most.
_FREQ_TERM_DB = {
    c: 20.0 * math.log10(f / CHANNEL_FREQ_HZ[37]) for c, f in CHANNEL_FREQ_HZ.items()
}
_FREQ_TERMS = np.array([_FREQ_TERM_DB[c] for c in ADVERTISING_CHANNELS])


# Every key CalibrationModel.to_text writes.
_MODEL_KEYS = frozenset(
    "channel_aware intercept_dbm path_loss_exponent offset_38_db offset_39_db intercept_se"
    " offset_38_se offset_39_se exponent_se residual_sigma_db n_samples".split()
)


@dataclass(frozen=True, slots=True)
class CalibrationModel:
    """Fitted RSSI model.

    Expected reading on channel c at distance d:

        intercept + offset[c] - freq_term(c) - 10 * exponent * log10(d)

    where ``intercept`` is the channel 37 level at one metre, ``offset``
    the hardware gain deviation per channel (37 pinned to zero by the fit)
    and ``freq_term`` the deterministic free-space difference between the
    channel frequencies.  A channel-agnostic model zeroes both channel
    terms and treats every reading identically.

    Standard errors are populated by :func:`calibrate` when it has degrees
    of freedom to estimate them.
    """

    intercept_dbm: float
    path_loss_exponent: float = 2.0
    channel_offset_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    channel_aware: bool = True
    intercept_se: float | None = None
    offset_se: tuple[float, float] | None = None
    exponent_se: float | None = None
    residual_sigma_db: float | None = None
    n_samples: int = 0

    def _channel_terms(self) -> np.ndarray:
        """What channels 37, 38, 39 add to the channel 37 level: each offset less
        its frequency term, or zeros for a channel-agnostic model."""
        if not self.channel_aware:
            return np.zeros(3)
        return np.array(self.channel_offset_db, np.float64) - _FREQ_TERMS

    def predict_rssi(self, channel: Channel, distance_m: float) -> float:
        if distance_m <= 0:
            raise ConfigError("distance must be positive")
        level = self.intercept_dbm - 10.0 * self.path_loss_exponent * math.log10(distance_m)
        if self.channel_aware:
            level += self.channel_offset_db[channel.id - 37] - _FREQ_TERM_DB[channel.id]
        return level

    def distance(self, channel: Channel, rssi_dbm: float) -> float:
        """Distance in metres that makes the model match the reading."""
        level_1m = self.intercept_dbm
        if self.channel_aware:
            level_1m += self.channel_offset_db[channel.id - 37] - _FREQ_TERM_DB[channel.id]
        return 10.0 ** ((level_1m - rssi_dbm) / (10.0 * self.path_loss_exponent))

    def to_text(self) -> str:
        lines = [
            "# blechannel-model v1",
            f"channel_aware={'true' if self.channel_aware else 'false'}",
            f"intercept_dbm={self.intercept_dbm!r}",
            f"path_loss_exponent={self.path_loss_exponent!r}",
            f"offset_38_db={self.channel_offset_db[1]!r}",
            f"offset_39_db={self.channel_offset_db[2]!r}",
        ]
        if self.intercept_se is not None:
            lines.append(f"intercept_se={self.intercept_se!r}")
        if self.offset_se is not None:
            lines.append(f"offset_38_se={self.offset_se[0]!r}")
            lines.append(f"offset_39_se={self.offset_se[1]!r}")
        if self.exponent_se is not None:
            lines.append(f"exponent_se={self.exponent_se!r}")
        if self.residual_sigma_db is not None:
            lines.append(f"residual_sigma_db={self.residual_sigma_db!r}")
        lines.append(f"n_samples={self.n_samples}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibrationModel":
        lines = text.splitlines()
        if not lines or lines[0].strip() != "# blechannel-model v1":
            raise TraceParseError("not a blechannel model file", line=1)
        fields: dict[str, str] = {}
        for i, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise TraceParseError("expected key=value", line=i)
            key = key.strip()
            if key not in _MODEL_KEYS:
                raise TraceParseError(f"unknown key {key!r}", line=i)
            if key in fields:
                raise TraceParseError(f"duplicate key {key!r}", line=i)
            fields[key] = value.strip()
        aware = fields.get("channel_aware", "true")
        if aware not in ("true", "false"):
            raise TraceParseError(f"channel_aware must be true or false, got {aware!r}")
        for key in ("offset_38_db", "offset_39_db", "n_samples"):
            fields.setdefault(key, "0")

        def number(key: str, sign: str = "", parse=float):
            """``key``'s value, None if absent; refused unless finite and, if
            ``sign`` says so, "positive" or "non-negative", as calibrate writes it."""
            if key not in fields:
                return None
            try:
                value = parse(fields[key])
            except ValueError as exc:
                raise TraceParseError(f"bad model file: {exc}") from exc
            signed = {"": True, "positive": value > 0, "non-negative": value >= 0}[sign]
            if not (-math.inf < value < math.inf and signed):  # a huge int n_samples is finite
                need = "finite" + (f" and {sign}" if sign else "")
                raise TraceParseError(f"{key} must be {need}, got {fields[key]!r}")
            return value

        for key in ("intercept_dbm", "path_loss_exponent"):
            if key not in fields:
                raise TraceParseError(f"bad model file: {key} missing")
        se_keys = [key for key in ("offset_38_se", "offset_39_se") if key in fields]
        if len(se_keys) == 1:
            raise TraceParseError(f"bad model file: {se_keys[0]} without the other offset_*_se")
        return cls(
            intercept_dbm=number("intercept_dbm"),
            path_loss_exponent=number("path_loss_exponent", "positive"),
            channel_offset_db=(0.0, number("offset_38_db"), number("offset_39_db")),
            channel_aware=aware == "true",
            intercept_se=number("intercept_se", "non-negative"),
            offset_se=tuple(number(key, "non-negative") for key in se_keys) or None,
            exponent_se=number("exponent_se", "non-negative"),
            residual_sigma_db=number("residual_sigma_db", "non-negative"),
            n_samples=number("n_samples", "non-negative", int),
        )


@np.errstate(all="ignore")  # a fit that overflows is refused at the end
def calibrate(
    samples,
    *,
    path_loss_exponent: float | None = None,
    channel_aware: bool = True,
) -> CalibrationModel:
    """Least-squares fit of the log-distance model to labeled readings.

    Pass ``path_loss_exponent`` to pin the rolloff instead of fitting it; a
    pinned value must be finite and positive.  A channel-aware fit needs
    readings on all three channels and, when the exponent is free, at least
    two distinct distances.  A fit whose intercept, exponent or offsets are
    not finite (huge readings or a huge pinned exponent overflow) is refused.
    """
    if path_loss_exponent is not None and not 0 < path_loss_exponent < math.inf:
        raise ConfigError(
            f"path_loss_exponent must be finite and positive, got {path_loss_exponent!r}"
        )
    samples = RangingSamples.of(samples)
    if not len(samples):
        raise NoDataError("no calibration samples")
    chan, dist, rssi = samples.channel, samples.distance_m, samples.rssi_dbm
    if not (np.all((0 < dist) & (dist < math.inf)) and np.isfinite(rssi).all()):
        raise ConfigError("calibration needs positive finite distances and finite readings")
    # not np.unique: without return_inverse it imports numpy.ma, about 1 MiB
    missing = set(CHANNEL_FREQ_HZ) - set(chan.tolist()) if channel_aware else set()
    if missing:
        raise FitError(
            f"channel-aware calibration needs samples on all channels, missing {sorted(missing)}"
        )

    # math.log10 and this order of adding to y keep the per-reading floats.
    log_d = _floats(math.log10, dist)
    y = rssi
    design = {"intercept": np.ones(len(samples))}
    if channel_aware:
        y = y + _FREQ_TERMS[chan - 37]
        design["offset_38"] = (chan == 38).astype(float)
        design["offset_39"] = (chan == 39).astype(float)
    if path_loss_exponent is None:
        design["exponent"] = -10.0 * log_d
    else:
        y = y + (10.0 * path_loss_exponent) * log_d
    x = np.column_stack(list(design.values()))

    n, p = x.shape
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < p:
        raise FitError(
            "calibration design is rank deficient; vary the distances "
            "(and channels, for a channel-aware fit)"
        )

    resid = y - x @ coef
    se, sigma = {}, None
    if n > p:
        sigma2 = float(resid @ resid) / (n - p)
        cov = sigma2 * np.linalg.inv(x.T @ x)
        se = dict(zip(design, np.sqrt(np.diag(cov)).tolist()))
        sigma = math.sqrt(sigma2)
    fit = dict(zip(design, coef.tolist()))
    exponent = fit.get("exponent", path_loss_exponent)
    if exponent <= 0:
        raise FitError(f"fitted path-loss exponent is not physical: {exponent:.3f}")
    if not all(map(math.isfinite, fit.values())):
        raise FitError("fitted model is not finite")

    return CalibrationModel(
        intercept_dbm=fit["intercept"],
        path_loss_exponent=exponent,
        channel_offset_db=(0.0, fit.get("offset_38", 0.0), fit.get("offset_39", 0.0)),
        channel_aware=channel_aware,
        intercept_se=se.get("intercept"),
        offset_se=(se["offset_38"], se["offset_39"]) if channel_aware and se else None,
        exponent_se=se.get("exponent"),
        residual_sigma_db=sigma,
        n_samples=n,
    )


def balanced_average(readings) -> float:
    """Mean RSSI that weighs each advertising channel equally.

    ``readings`` is an iterable of (channel, rssi_dbm) pairs; channels may
    be ``Channel`` values or bare ids.  Plain averaging over-weights
    whichever channel the scanner happened to sit on longest, which skews
    any distance derived from the mean; averaging per channel first removes
    that imbalance.  Channels with no readings are simply left out.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for channel, rssi in readings:
        cid = channel.id if isinstance(channel, Channel) else int(channel)
        if cid not in CHANNEL_FREQ_HZ:
            raise ConfigError(f"not an advertising channel: {cid}")
        sums[cid] = sums.get(cid, 0.0) + rssi
        counts[cid] = counts.get(cid, 0) + 1
    if not counts:
        raise NoDataError("no RSSI readings to average")
    return sum(sums[c] / counts[c] for c in counts) / len(counts)


@dataclass(frozen=True, slots=True)
class EstimatorComparison:
    """Channel-aware versus channel-agnostic ranging on the same data."""

    aware: CalibrationModel
    agnostic: CalibrationModel
    aware_rmse_m: float
    agnostic_rmse_m: float

    @property
    def rmse_ratio(self) -> float:
        """aware / agnostic; below 1 means channel awareness helped."""
        if self.agnostic_rmse_m == 0.0:
            return math.inf if self.aware_rmse_m > 0 else 1.0
        return self.aware_rmse_m / self.agnostic_rmse_m


@np.errstate(all="ignore")  # overflow gives inf and nan, as float arithmetic does
def _rmse(model: CalibrationModel, samples: RangingSamples) -> float:
    """Root mean square of ``model.distance`` less the true distance, reading by
    reading: one ``10.0 ** x`` each, and the squares summed left to right."""
    level_1m = model.intercept_dbm + model._channel_terms()[samples.channel - 37]
    x = (level_1m - samples.rssi_dbm) / (10.0 * model.path_loss_exponent)
    errs = _floats((10.0).__pow__, x) - samples.distance_m
    return math.sqrt(sum((errs * errs).tolist()) / len(errs))


def compare_estimators(
    train, test, *, path_loss_exponent: float | None = None
) -> EstimatorComparison:
    """Fit both model flavours on ``train`` and score distance RMSE on ``test``.

    Either may be a :class:`RangingSamples` view or any iterable of samples.
    """
    test = RangingSamples.of(test)
    if not len(test):
        raise NoDataError("no evaluation samples")
    train = RangingSamples.of(train)
    aware = calibrate(train, path_loss_exponent=path_loss_exponent, channel_aware=True)
    agnostic = calibrate(train, path_loss_exponent=path_loss_exponent, channel_aware=False)
    return EstimatorComparison(
        aware=aware,
        agnostic=agnostic,
        aware_rmse_m=_rmse(aware, test),
        agnostic_rmse_m=_rmse(agnostic, test),
    )
