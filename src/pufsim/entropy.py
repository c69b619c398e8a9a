"""The power-up model of a bistable cell and the closed-form link between
noise magnitude and expected bit-error rate.

A cell's power-up value is modeled as the sign of

    margin = static_mismatch + systematic_offset + noise_draw

where static_mismatch is the device's process-variation term, the offset is
an optional position-systematic skew, and the noise draw is an independent
per-readout disturbance. The readout (`signature.read_signatures`) draws
each bit with P(1) = P(margin > 0); without noise a zero margin reads 0.
For zero-mean Gaussian mismatch m ~ N(0, sigma_m^2) and noise
n ~ N(0, sigma_n^2), the probability that sign(m + n) differs from
sign(m) is the orthant probability of the bivariate normal (m, m + n):

    P(flip) = arctan(sigma_n / sigma_m) / pi

which this module exposes together with its exact inverse. Environmental
stress (temperature, supply voltage) enters only through the noise magnitude,
looked up from piecewise-linear anchor tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ExtrapolationRefusedError, InvalidArgumentError

TEMPERATURE_RANGE = (-55.0, 125.0)  # model validity range, degrees Celsius


@dataclass(frozen=True)
class EnvironmentCondition:
    """Temperature and supply voltage at which a readout occurs."""

    temperature_celsius: float
    supply_voltage_volts: float

    def __post_init__(self):
        if not math.isfinite(self.temperature_celsius) or not math.isfinite(
            self.supply_voltage_volts
        ):
            raise InvalidArgumentError("environment values must be finite")
        if self.supply_voltage_volts <= 0:
            raise InvalidArgumentError("supply voltage must be positive")
        lo, hi = TEMPERATURE_RANGE
        if not lo <= self.temperature_celsius <= hi:
            raise InvalidArgumentError(
                f"temperature {self.temperature_celsius} outside model range "
                f"[{lo}, {hi}]"
            )


def expected_flip_probability(sigma_m: float, sigma_n: float) -> float:
    """Probability that one noisy readout disagrees with the noiseless bit.

    Exact for independent zero-mean Gaussians; strictly increasing in
    sigma_n, strictly decreasing in sigma_m, and invariant under common
    rescaling of both.
    """
    if not (sigma_m > 0):
        raise InvalidArgumentError("sigma_m must be positive")
    if sigma_n < 0:
        raise InvalidArgumentError("sigma_n must be non-negative")
    return math.atan2(sigma_n, sigma_m) / math.pi


def calibrate_noise_for_ber(target_ber: float, sigma_m: float) -> float:
    """Noise magnitude whose expected flip probability equals target_ber.

    Exact inverse of expected_flip_probability; round-trips to within
    1e-12 relative error on [0, 0.49].
    """
    if not (sigma_m > 0):
        raise InvalidArgumentError("sigma_m must be positive")
    if not (0 <= target_ber < 0.5):
        raise InvalidArgumentError(
            f"target bit-error rate {target_ber} unreachable; must be in [0, 0.5)"
        )
    return sigma_m * math.tan(math.pi * target_ber)


def _validate_anchors(anchors, axis_name):
    xs = [x for x, _ in anchors]
    if sorted(xs) != xs or len(set(xs)) != len(xs):
        raise InvalidArgumentError(f"{axis_name} anchors must be sorted and unique")
    for _, ber in anchors:
        if not (0 <= ber < 0.5):
            raise InvalidArgumentError(
                f"{axis_name} anchor bit-error rate {ber} outside [0, 0.5)"
            )


@dataclass(frozen=True)
class NoiseCalibration:
    """Anchor tables mapping environment to a target bit-error rate.

    The two axes are independent piecewise-linear tables: temperature
    anchors are understood as measured at the reference voltage, voltage
    anchors at the reference temperature, and the combined target is their
    sum. An axis with no anchors contributes zero but then pins that axis
    of any queried environment to the reference value; conditions outside
    an anchor hull are refused rather than clamped.

    bias_noise_coupling scales the per-position noise magnitude by
    (1 + coupling * |systematic offset| / sigma_mismatch) during readout,
    so systematically skewed cells are also noisier. Set to 0 to make noise
    strictly position-independent.
    """

    sigma_mismatch: float
    reference: EnvironmentCondition
    temperature_anchors: tuple = field(default_factory=tuple)
    voltage_anchors: tuple = field(default_factory=tuple)
    bias_noise_coupling: float = 2.0

    def __post_init__(self):
        if not (0 < self.sigma_mismatch < math.inf):
            raise InvalidArgumentError("sigma_mismatch must be positive and finite")
        if not (0 <= self.bias_noise_coupling < math.inf):
            raise InvalidArgumentError(
                "bias_noise_coupling must be non-negative and finite"
            )
        object.__setattr__(
            self,
            "temperature_anchors",
            tuple((float(x), float(b)) for x, b in self.temperature_anchors),
        )
        object.__setattr__(
            self,
            "voltage_anchors",
            tuple((float(x), float(b)) for x, b in self.voltage_anchors),
        )
        _validate_anchors(self.temperature_anchors, "temperature")
        _validate_anchors(self.voltage_anchors, "voltage")

    def _axis_ber(self, anchors, value, ref_value, axis_name):
        if not anchors:
            if abs(value - ref_value) > 1e-9:
                raise ExtrapolationRefusedError(
                    f"no {axis_name} anchors; environment must stay at the "
                    f"reference {axis_name} {ref_value}"
                )
            return 0.0
        xs = [x for x, _ in anchors]
        if value < xs[0] or value > xs[-1]:
            raise ExtrapolationRefusedError(
                f"{axis_name} {value} outside anchor hull [{xs[0]}, {xs[-1]}]"
            )
        for (x0, b0), (x1, b1) in zip(anchors, anchors[1:]):
            if x0 <= value <= x1:
                if x1 == x0:
                    return b0
                t = (value - x0) / (x1 - x0)
                return b0 + t * (b1 - b0)
        return anchors[-1][1]  # value == last anchor

    def target_ber_at(self, env: EnvironmentCondition) -> float:
        """Interpolated target bit-error rate at env; exact on anchors."""
        ber = self._axis_ber(
            self.temperature_anchors,
            env.temperature_celsius,
            self.reference.temperature_celsius,
            "temperature",
        )
        ber += self._axis_ber(
            self.voltage_anchors,
            env.supply_voltage_volts,
            self.reference.supply_voltage_volts,
            "voltage",
        )
        if ber >= 0.5:
            raise InvalidArgumentError(
                f"combined target bit-error rate {ber} is unreachable"
            )
        return ber

    def covers(self, env: EnvironmentCondition) -> bool:
        """True when env lies inside the anchor hull."""
        try:
            self.target_ber_at(env)
        except ExtrapolationRefusedError:
            return False
        return True


def noise_sigma_at(calibration: NoiseCalibration, env: EnvironmentCondition) -> float:
    """Noise magnitude whose expected flip probability matches the
    calibration's interpolated target at env."""
    ber = calibration.target_ber_at(env)
    return calibrate_noise_for_ber(ber, calibration.sigma_mismatch)
