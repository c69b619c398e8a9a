"""The flip-probability closed form and the environment-to-noise
calibration tables.

The flip-probability oracle is Monte Carlo: draw (mismatch, noise) pairs,
count sign disagreements, and require agreement within 3 standard errors.
The closed form itself was frozen after checking that arctan(1)/pi = 1/4
(equal magnitudes flip one readout in four) and the 0 / 0.5 limits.
"""

import math

import numpy as np
import pytest

from pufsim.entropy import (
    EnvironmentCondition,
    NoiseCalibration,
    calibrate_noise_for_ber,
    expected_flip_probability,
    noise_sigma_at,
)
from pufsim.errors import ExtrapolationRefusedError, InvalidArgumentError


# -- flip probability closed form --------------------------------------------

def test_flip_probability_limits():
    assert expected_flip_probability(1.0, 0.0) == 0.0
    # equal magnitudes: arctan(1)/pi = 0.25 exactly
    assert expected_flip_probability(0.7, 0.7) == pytest.approx(0.25, abs=1e-15)
    # noise dominating: approaches 1/2 from below
    assert expected_flip_probability(1e-9, 1.0) < 0.5
    assert expected_flip_probability(1e-9, 1.0) == pytest.approx(0.5, abs=1e-8)


def test_flip_probability_monotonic_and_scale_invariant():
    sigmas = [0.01, 0.1, 0.5, 1.0, 2.0]
    vals = [expected_flip_probability(1.0, s) for s in sigmas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    vals_m = [expected_flip_probability(m, 0.3) for m in sigmas]
    assert all(a > b for a, b in zip(vals_m, vals_m[1:]))
    for k in (0.1, 3.0, 100.0):
        assert expected_flip_probability(0.25 * k, 0.1 * k) == pytest.approx(
            expected_flip_probability(0.25, 0.1), rel=1e-12
        )


@pytest.mark.parametrize("sigma_n", [0.05, 0.25, 1.0])
def test_flip_probability_monte_carlo(sigma_n):
    # empirical flip rate of sign(m + n) vs sign(m) over fresh draws
    rng = np.random.default_rng(1234)
    trials = 400_000
    m = rng.standard_normal(trials) * 0.25
    n = rng.standard_normal(trials) * sigma_n
    flips = np.mean(np.sign(m + n) != np.sign(m))
    want = expected_flip_probability(0.25, sigma_n)
    se = math.sqrt(want * (1 - want) / trials)
    assert abs(flips - want) < 3 * se + 1e-12


def test_calibration_round_trip():
    for ber in (0.0, 1e-6, 0.0123, 0.0307, 0.1589, 0.3, 0.49):
        sigma = calibrate_noise_for_ber(ber, 0.25)
        assert expected_flip_probability(0.25, sigma) == pytest.approx(
            ber, rel=1e-12, abs=1e-15
        )


def test_calibration_domain():
    with pytest.raises(InvalidArgumentError):
        calibrate_noise_for_ber(0.5, 0.25)
    with pytest.raises(InvalidArgumentError):
        calibrate_noise_for_ber(-0.01, 0.25)
    with pytest.raises(InvalidArgumentError):
        calibrate_noise_for_ber(0.1, 0.0)
    with pytest.raises(InvalidArgumentError):
        expected_flip_probability(1.0, -0.1)


# -- environment conditions ---------------------------------------------------

def test_environment_validation():
    EnvironmentCondition(25.0, 1.0)
    EnvironmentCondition(-55.0, 3.3)
    EnvironmentCondition(125.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        EnvironmentCondition(126.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        EnvironmentCondition(-56.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        EnvironmentCondition(25.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        EnvironmentCondition(float("nan"), 1.0)


# -- calibration tables --------------------------------------------------------

REF = EnvironmentCondition(25.0, 1.0)

TEMP_TABLE = (
    (0.0, 0.0837),
    (20.0, 0.0123),
    (25.0, 0.0),
    (45.0, 0.0603),
    (65.0, 0.1149),
    (85.0, 0.1589),
)


def _cal(**kw):
    base = dict(sigma_mismatch=0.25, reference=REF, temperature_anchors=TEMP_TABLE)
    base.update(kw)
    return NoiseCalibration(**base)


def test_anchor_values_are_exact():
    # an anchor at a segment's end is not read as b0 + 1 * (b1 - b0): that
    # gives 0.012300000000000005 at 20 C and 0.022999999999999993 at 2.5 V
    cal = _cal()
    for celsius, ber in TEMP_TABLE:
        assert cal.target_ber_at(EnvironmentCondition(celsius, 1.0)) == ber
    volts = ((2.0, 0.12), (2.5, 0.023), (3.0, 0.026), (3.3, 0.0))
    cal = NoiseCalibration(sigma_mismatch=0.25, reference=EnvironmentCondition(25.0, 3.3),
                           voltage_anchors=volts)
    for voltage, ber in volts:
        assert cal.target_ber_at(EnvironmentCondition(25.0, voltage)) == ber


def test_interpolation_between_anchors():
    cal = _cal()
    # midway between the 45C and 65C anchors
    assert cal.target_ber_at(EnvironmentCondition(55.0, 1.0)) == pytest.approx(
        (0.0603 + 0.1149) / 2, abs=1e-12
    )
    # quarter point between 0C and 20C
    assert cal.target_ber_at(EnvironmentCondition(5.0, 1.0)) == pytest.approx(
        0.0837 + 0.25 * (0.0123 - 0.0837), abs=1e-12
    )


def test_extrapolation_refused_not_clamped():
    cal = _cal()
    with pytest.raises(ExtrapolationRefusedError):
        cal.target_ber_at(EnvironmentCondition(-10.0, 1.0))
    with pytest.raises(ExtrapolationRefusedError):
        cal.target_ber_at(EnvironmentCondition(90.0, 1.0))
    assert not cal.covers(EnvironmentCondition(90.0, 1.0))
    assert cal.covers(EnvironmentCondition(85.0, 1.0))


def test_empty_axis_pins_to_reference():
    cal = _cal()  # no voltage anchors
    assert cal.target_ber_at(EnvironmentCondition(25.0, 1.0)) == 0.0
    with pytest.raises(ExtrapolationRefusedError):
        cal.target_ber_at(EnvironmentCondition(25.0, 1.2))
    # within the 1e-9 tolerance band counts as the reference value
    assert cal.covers(EnvironmentCondition(25.0, 1.0 + 1e-10))


def test_axes_combine_additively():
    cal = _cal(voltage_anchors=((0.8, 0.05), (1.0, 0.0), (1.2, 0.03)))
    got = cal.target_ber_at(EnvironmentCondition(85.0, 1.2))
    assert got == pytest.approx(0.1589 + 0.03, abs=1e-12)


def test_combined_ber_cannot_reach_half():
    cal = _cal(
        temperature_anchors=((25.0, 0.3),),
        voltage_anchors=((1.0, 0.3),),
    )
    with pytest.raises(InvalidArgumentError):
        cal.target_ber_at(EnvironmentCondition(25.0, 1.0))


def test_anchor_table_validation():
    with pytest.raises(InvalidArgumentError):
        _cal(temperature_anchors=((20.0, 0.1), (0.0, 0.2)))  # unsorted
    with pytest.raises(InvalidArgumentError):
        _cal(temperature_anchors=((20.0, 0.1), (20.0, 0.2)))  # duplicate
    with pytest.raises(InvalidArgumentError):
        _cal(temperature_anchors=((20.0, 0.6),))  # ber out of range
    with pytest.raises(InvalidArgumentError):
        _cal(bias_noise_coupling=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            _cal(bias_noise_coupling=bad)
        with pytest.raises(InvalidArgumentError):
            _cal(sigma_mismatch=bad)


def test_noise_sigma_at_consistency():
    cal = _cal()
    env = EnvironmentCondition(85.0, 1.0)
    sigma = noise_sigma_at(cal, env)
    assert expected_flip_probability(0.25, sigma) == pytest.approx(0.1589, rel=1e-12)
    # zero-ber anchor means literally zero noise
    assert noise_sigma_at(cal, REF) == 0.0
