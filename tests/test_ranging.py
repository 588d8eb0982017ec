import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blechannel.core import CHANNEL_FREQ_HZ, Channel
from blechannel.errors import ConfigError, FitError, NoDataError, TraceParseError
from blechannel.ranging import (
    _FREQ_TERM_DB,
    CalibrationModel,
    RadioLink,
    RangingSample,
    balanced_average,
    calibrate,
    compare_estimators,
    estimate_distance,
    friis_rx_power,
    path_loss_db,
)
from blechannel.simkit import substream

CH37 = Channel.of(37)
CH38 = Channel.of(38)
CH39 = Channel.of(39)
LINK = RadioLink(tx_power_dbm=0.0, antenna_gain_db=0.0)
F37 = CHANNEL_FREQ_HZ[37]


def test_path_loss_validation():
    with pytest.raises(ConfigError):
        path_loss_db(0.0, 1.0)
    with pytest.raises(ConfigError):
        path_loss_db(F37, 0.0)
    with pytest.raises(ConfigError):
        path_loss_db(F37, -2.0)


def test_path_loss_exponent_controls_rolloff():
    for n in (1.8, 2.0, 3.5):
        delta = path_loss_db(F37, 2.0, n) - path_loss_db(F37, 1.0, n)
        assert delta == pytest.approx(10.0 * n * math.log10(2.0), abs=1e-12)


def test_friis_distance_round_trip():
    for d in (0.5, 1.0, 3.7, 25.0):
        rx = friis_rx_power(LINK, F37, d)
        assert estimate_distance(LINK, F37, rx) == pytest.approx(d, rel=1e-12)


def test_estimate_distance_wavelength_identity():
    # at rssi equal to the transmit power the range is one wavelength over 4 pi
    d = estimate_distance(LINK, F37, 0.0)
    assert d == pytest.approx(299792458.0 / F37 / (4 * math.pi), rel=1e-12)
    with pytest.raises(ConfigError):
        estimate_distance(LINK, F37, -40.0, exponent=0.0)


def test_balanced_average_weighs_channels_equally():
    readings = [(37, -40.0), (37, -42.0), (38, -50.0)]
    assert balanced_average(readings) == pytest.approx((-41.0 - 50.0) / 2)
    # flooding one channel with duplicates must not move the result
    flooded = readings + [(37, -41.0)] * 50
    assert balanced_average(flooded) == pytest.approx(
        ((-40 - 42 - 41 * 50) / 52 - 50.0) / 2
    )
    assert balanced_average([(CH37, -40.0), (38, -44.0), (CH39, -48.0)]) == pytest.approx(-44.0)


def test_balanced_average_rejects_bad_input():
    with pytest.raises(NoDataError):
        balanced_average([])
    with pytest.raises(ConfigError):
        balanced_average([(11, -40.0)])


def make_samples(truth: CalibrationModel, rng, n=90, sigma=0.0, channels=(CH37, CH38, CH39)):
    out = []
    for _ in range(n):
        ch = rng.choice(channels)
        d = 10.0 ** (rng.random() * 1.2)  # 1 m .. ~16 m
        rssi = truth.predict_rssi(ch, d)
        if sigma > 0:
            rssi += rng.gauss(0.0, sigma)
        out.append(RangingSample(channel=ch, distance_m=d, rssi_dbm=rssi))
    return out


TRUTH = CalibrationModel(
    intercept_dbm=-41.5, path_loss_exponent=2.3, channel_offset_db=(0.0, 5.0, -7.0)
)


def test_calibrate_recovers_noiseless_parameters():
    samples = make_samples(TRUTH, substream(10, "cal"))
    model = calibrate(samples)
    assert model.intercept_dbm == pytest.approx(-41.5, abs=1e-9)
    assert model.path_loss_exponent == pytest.approx(2.3, abs=1e-9)
    assert model.channel_offset_db[0] == 0.0
    assert model.channel_offset_db[1] == pytest.approx(5.0, abs=1e-9)
    assert model.channel_offset_db[2] == pytest.approx(-7.0, abs=1e-9)
    assert model.n_samples == 90
    assert model.residual_sigma_db == pytest.approx(0.0, abs=1e-9)


def test_calibrate_with_pinned_exponent():
    truth = CalibrationModel(intercept_dbm=-40.0, path_loss_exponent=2.0)
    samples = make_samples(truth, substream(11, "cal"))
    model = calibrate(samples, path_loss_exponent=2.0)
    assert model.path_loss_exponent == 2.0
    assert model.exponent_se is None
    assert model.intercept_dbm == pytest.approx(-40.0, abs=1e-9)


def test_calibrate_input_validation():
    with pytest.raises(NoDataError):
        calibrate([])
    with pytest.raises(ConfigError):
        calibrate([RangingSample(CH37, -1.0, -40.0)])
    for bad in (RangingSample(CH37, math.inf, -40.0), RangingSample(CH37, 1.0, math.nan)):
        with pytest.raises(ConfigError):
            calibrate([bad])
    samples = make_samples(TRUTH, substream(12, "cal"))
    for pinned in (math.nan, math.inf, 0.0, -2.0):
        with pytest.raises(ConfigError, match="path_loss_exponent must be finite and positive"):
            calibrate(samples, path_loss_exponent=pinned)
    with pytest.raises(FitError, match="fitted model is not finite"):
        calibrate(samples, path_loss_exponent=1e308)  # 10 * 1e308 overflows
    only_37 = make_samples(TRUTH, substream(12, "cal"), channels=(CH37,))
    with pytest.raises(FitError):
        calibrate(only_37)
    # agnostic fits are fine with a single channel
    model = calibrate(only_37, channel_aware=False)
    assert model.channel_aware is False
    assert model.channel_offset_db == (0.0, 0.0, 0.0)


def test_calibrate_needs_distance_variation_to_fit_exponent():
    rng = substream(13, "cal")
    flat = [
        RangingSample(ch, 2.0, TRUTH.predict_rssi(ch, 2.0))
        for ch in (CH37, CH38, CH39)
        for _ in range(10)
    ]
    with pytest.raises(FitError):
        calibrate(flat)
    # pinning the exponent makes the single-distance fit solvable
    model = calibrate(flat, path_loss_exponent=2.3)
    assert model.intercept_dbm == pytest.approx(-41.5, abs=1e-9)


def test_agnostic_model_ignores_the_channel():
    model = calibrate(make_samples(TRUTH, substream(14, "cal")), channel_aware=False)
    d = 3.0
    assert model.predict_rssi(CH37, d) == model.predict_rssi(CH38, d) == model.predict_rssi(CH39, d)
    assert model.distance(CH37, -55.0) == model.distance(CH39, -55.0)


def test_model_distance_inverts_prediction():
    for ch in (CH37, CH38, CH39):
        for d in (0.7, 2.0, 9.0):
            assert TRUTH.distance(ch, TRUTH.predict_rssi(ch, d)) == pytest.approx(d, rel=1e-12)
    with pytest.raises(ConfigError):
        TRUTH.predict_rssi(CH37, 0.0)


def test_model_text_round_trip():
    samples = make_samples(TRUTH, substream(15, "cal"), sigma=1.0)
    model = calibrate(samples)
    restored = CalibrationModel.from_text(model.to_text())
    assert restored == model


def test_model_from_text_rejects_garbage():
    with pytest.raises(TraceParseError):
        CalibrationModel.from_text("intercept_dbm=-40\n")
    with pytest.raises(TraceParseError):
        CalibrationModel.from_text("# blechannel-model v1\nintercept_dbm\n")
    with pytest.raises(TraceParseError):
        CalibrationModel.from_text("# blechannel-model v1\npath_loss_exponent=2\n")
    with pytest.raises(TraceParseError):
        CalibrationModel.from_text(TRUTH.to_text().replace("=true", "=yes"))


_floats = st.floats(allow_nan=True, allow_infinity=True)
_optional = st.one_of(st.none(), _floats)


@settings(max_examples=200, deadline=None)
@given(
    intercept=_floats,
    exponent=_floats,
    offsets=st.tuples(_floats, _floats),
    aware=st.booleans(),
    intercept_se=_optional,
    offset_se=st.one_of(st.none(), st.tuples(_floats, _floats)),
    exponent_se=_optional,
    sigma=_optional,
    n=st.integers(0, 10**9),
)
def test_model_text_round_trip_is_byte_stable(
    intercept, exponent, offsets, aware, intercept_se, offset_se, exponent_se, sigma, n
):
    model = CalibrationModel(
        intercept_dbm=intercept,
        path_loss_exponent=exponent,
        channel_offset_db=(0.0, *offsets),
        channel_aware=aware,
        intercept_se=intercept_se,
        offset_se=offset_se,
        exponent_se=exponent_se,
        residual_sigma_db=sigma,
        n_samples=n,
    )
    text = model.to_text()
    assert CalibrationModel.from_text(text).to_text() == text


def test_standard_errors_shrink_with_sample_size():
    small = calibrate(make_samples(TRUTH, substream(16, "cal"), n=60, sigma=2.0))
    large = calibrate(make_samples(TRUTH, substream(16, "cal"), n=960, sigma=2.0))
    assert small.intercept_se > large.intercept_se
    assert small.exponent_se > large.exponent_se
    assert large.residual_sigma_db == pytest.approx(2.0, rel=0.15)


def test_compare_estimators_prefers_awareness_under_spread():
    rng = substream(17, "cmp")
    train = make_samples(TRUTH, rng, n=300, sigma=1.0)
    test = make_samples(TRUTH, rng, n=200, sigma=1.0)
    result = compare_estimators(train, test)
    assert result.aware_rmse_m < result.agnostic_rmse_m
    assert result.rmse_ratio < 1.0
    assert result.aware.channel_aware and not result.agnostic.channel_aware
    with pytest.raises(NoDataError):
        compare_estimators(train, [])


# The per-reading fit that calibrate replaced, kept as the reference.
def reference_calibrate(
    samples,
    *,
    path_loss_exponent: float | None = None,
    channel_aware: bool = True,
) -> CalibrationModel:
    """Least-squares fit of the log-distance model to labeled readings.

    Pass ``path_loss_exponent`` to pin the rolloff instead of fitting it.
    A channel-aware fit needs readings on all three channels and, when the
    exponent is free, at least two distinct distances.
    """
    samples = list(samples)
    if not samples:
        raise NoDataError("no calibration samples")
    for s in samples:
        if not (0 < s.distance_m < math.inf and math.isfinite(s.rssi_dbm)):
            raise ConfigError("calibration needs positive finite distances and finite readings")
    if channel_aware:
        present = {s.channel.id for s in samples}
        missing = set(CHANNEL_FREQ_HZ) - present
        if missing:
            raise FitError(
                f"channel-aware calibration needs samples on all channels, missing {sorted(missing)}"
            )

    fit_exponent = path_loss_exponent is None
    rows = []
    targets = []
    for s in samples:
        y = s.rssi_dbm
        if channel_aware:
            y += _FREQ_TERM_DB[s.channel.id]
        row = [1.0]
        if channel_aware:
            row.append(1.0 if s.channel.id == 38 else 0.0)
            row.append(1.0 if s.channel.id == 39 else 0.0)
        if fit_exponent:
            row.append(-10.0 * math.log10(s.distance_m))
        else:
            y += 10.0 * path_loss_exponent * math.log10(s.distance_m)
        rows.append(row)
        targets.append(y)

    x = np.asarray(rows, dtype=float)
    yv = np.asarray(targets, dtype=float)
    n, p = x.shape
    coef, _, rank, _ = np.linalg.lstsq(x, yv, rcond=None)
    if rank < p:
        raise FitError(
            "calibration design is rank deficient; vary the distances "
            "(and channels, for a channel-aware fit)"
        )

    resid = yv - x @ coef
    dof = n - p
    ses = None
    sigma = None
    if dof > 0:
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(x.T @ x)
        ses = np.sqrt(np.diag(cov))
        sigma = math.sqrt(sigma2)

    idx = 1
    offsets = (0.0, 0.0, 0.0)
    off_se = None
    if channel_aware:
        offsets = (0.0, float(coef[1]), float(coef[2]))
        if ses is not None:
            off_se = (float(ses[1]), float(ses[2]))
        idx = 3
    if fit_exponent:
        exponent = float(coef[idx])
        exp_se = float(ses[idx]) if ses is not None else None
    else:
        exponent = path_loss_exponent
        exp_se = None
    if exponent <= 0:
        raise FitError(f"fitted path-loss exponent is not physical: {exponent:.3f}")

    return CalibrationModel(
        intercept_dbm=float(coef[0]),
        path_loss_exponent=exponent,
        channel_offset_db=offsets,
        channel_aware=channel_aware,
        intercept_se=float(ses[0]) if ses is not None else None,
        offset_se=off_se,
        exponent_se=exp_se,
        residual_sigma_db=sigma,
        n_samples=n,
    )


_distances = st.one_of(
    st.sampled_from([1.0, 2.5, 14.0]),
    st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
)
_readings = st.one_of(
    st.floats(min_value=-120.0, max_value=0.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _outcome(fit, samples, **flags):
    try:
        with np.errstate(all="ignore"):
            return repr(fit(samples, **flags))
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)


def refusing_reference_calibrate(samples, path_loss_exponent=None, channel_aware=True):
    """reference_calibrate with calibrate's two refusals: a pinned exponent that
    is not finite and positive, and a model whose fitted values are not finite."""
    e = path_loss_exponent
    if e is not None and not 0 < e < math.inf:
        raise ConfigError(f"path_loss_exponent must be finite and positive, got {e!r}")
    model = reference_calibrate(samples, path_loss_exponent=e, channel_aware=channel_aware)
    values = (model.intercept_dbm, model.path_loss_exponent, *model.channel_offset_db)
    if not all(map(math.isfinite, values)):
        raise FitError("fitted model is not finite")
    return model


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(
        st.builds(RangingSample, st.sampled_from([CH37, CH38, CH39]), _distances, _readings),
        max_size=60,
    ),
    exponent=st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=6.0, exclude_min=True),
        st.sampled_from([-1.0, 0.0, math.nan, math.inf, 1e308]),
    ),
    aware=st.booleans(),
)
def test_calibrate_matches_the_per_reading_fit(samples, exponent, aware):
    # repr of every field: equal models with bit-identical floats
    flags = dict(path_loss_exponent=exponent, channel_aware=aware)
    expected = _outcome(refusing_reference_calibrate, samples, **flags)
    assert _outcome(calibrate, samples, **flags) == expected
