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

from .core import CHANNEL_FREQ_HZ, Channel
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


# Extra free-space loss of each channel id relative to channel 37; 0.28 dB at most.
_FREQ_TERM_DB = {
    c: 20.0 * math.log10(f / CHANNEL_FREQ_HZ[37]) for c, f in CHANNEL_FREQ_HZ.items()
}


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
            fields[key.strip()] = value.strip()
        aware = fields.get("channel_aware", "true")
        if aware not in ("true", "false"):
            raise TraceParseError(f"channel_aware must be true or false, got {aware!r}")
        try:
            offsets = (
                0.0,
                float(fields.get("offset_38_db", "0")),
                float(fields.get("offset_39_db", "0")),
            )
            off_se = None
            if "offset_38_se" in fields and "offset_39_se" in fields:
                off_se = (float(fields["offset_38_se"]), float(fields["offset_39_se"]))
            return cls(
                intercept_dbm=float(fields["intercept_dbm"]),
                path_loss_exponent=float(fields["path_loss_exponent"]),
                channel_offset_db=offsets,
                channel_aware=aware == "true",
                intercept_se=float(fields["intercept_se"]) if "intercept_se" in fields else None,
                offset_se=off_se,
                exponent_se=float(fields["exponent_se"]) if "exponent_se" in fields else None,
                residual_sigma_db=(
                    float(fields["residual_sigma_db"]) if "residual_sigma_db" in fields else None
                ),
                n_samples=int(fields.get("n_samples", "0")),
            )
        except (KeyError, ValueError) as exc:
            raise TraceParseError(f"bad model file: {exc}") from exc


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
    samples = list(samples)
    if not samples:
        raise NoDataError("no calibration samples")
    chan = np.array([s.channel.id for s in samples])
    dist = np.array([s.distance_m for s in samples], dtype=float)
    rssi = np.array([s.rssi_dbm for s in samples], dtype=float)
    if not (np.all((0 < dist) & (dist < math.inf)) and np.isfinite(rssi).all()):
        raise ConfigError("calibration needs positive finite distances and finite readings")
    missing = set(CHANNEL_FREQ_HZ) - set(chan.tolist()) if channel_aware else set()
    if missing:
        raise FitError(
            f"channel-aware calibration needs samples on all channels, missing {sorted(missing)}"
        )

    # math.log10 and this order of adding to y keep the per-reading floats.
    log_d = np.array([math.log10(d) for d in dist.tolist()])
    y = rssi
    design = {"intercept": np.ones(len(samples))}
    if channel_aware:
        y = y + np.array([_FREQ_TERM_DB[c] for c in chan.tolist()])
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


def _rmse(model: CalibrationModel, samples) -> float:
    errs = [model.distance(s.channel, s.rssi_dbm) - s.distance_m for s in samples]
    return math.sqrt(sum(e * e for e in errs) / len(errs))


def compare_estimators(
    train, test, *, path_loss_exponent: float | None = None
) -> EstimatorComparison:
    """Fit both model flavours on ``train`` and score distance RMSE on ``test``."""
    test = list(test)
    if not test:
        raise NoDataError("no evaluation samples")
    aware = calibrate(train, path_loss_exponent=path_loss_exponent, channel_aware=True)
    agnostic = calibrate(train, path_loss_exponent=path_loss_exponent, channel_aware=False)
    return EstimatorComparison(
        aware=aware,
        agnostic=agnostic,
        aware_rmse_m=_rmse(aware, test),
        agnostic_rmse_m=_rmse(agnostic, test),
    )
