"""Readout sessions, signature assembly, enrollment, and bias-elimination
masking.

A readout session powers up every cell of every device `trials` times under
one environment. The bit of (device, trial, position) is the sign of

    margin(device, position) + noise,  margin = mismatch + bias_offset

with zero-mean normal noise of magnitude sigma_eff(position). The base
noise magnitude comes from the session's calibration at the session
environment. Positions carrying a systematic bias offset are additionally
noisier: their effective magnitude is
base * (1 + coupling * |offset| / sigma_mismatch), with the coupling
factor taken from the calibration (0 disables the effect). Skewed cells
thus hurt both uniqueness and reliability, which is what makes eliminating
them worthwhile.

Threshold readout. A bit is 1 with probability p = Phi(x), x = margin /
sigma_eff, so it is resolved as `u < p * 2**32` with u a uniform 32-bit
integer: the same law as `margin + sigma_eff * z > 0` with z standard
normal, up to a shift of P(1) below 2**-32. Most bits are resolved without
evaluating p. A table built at import holds ndtr on a grid of x from -9 to
9 in steps of 1/64, widened by 2**-40 into a bracket LO <= p <= HI for each
grid bucket (the end buckets run to -inf and +inf), and scales it to
integer bounds LO32 = floor(LO * 2**32) and HIM1 = ceil(HI * 2**32) - 1.
Each cell looks up its bucket from x once per session; a draw with u < LO32
reads 1 and one with u > HIM1 reads 0. A draw lands inside its bracket with
probability under 0.63% at any x; only the cells with such a draw evaluate
p = ndtr(x), and only those draws compare u < p * 2**32, exactly, so the
bits are exactly those of evaluating p for every cell. A noiseless session
(sigma = 0) has p = (margin > 0) and draws nothing, so it reproduces the
sign of the margin exactly and an exact zero margin resolves to 0.

Randomness derivation. The draws of a session with t trials over n
positions are the readout stream of its session seed, with ceil(n / 2)
words per row (see `pufsim.population`): row (device, trial) is stream row
device * t + trial. Each raw 64-bit word holds two uniforms, its low
32-bit half first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .artifacts import read_container, write_atomic, write_container
from .entropy import (
    EnvironmentCondition,
    NoiseCalibration,
    calibrate_noise_for_ber,
    noise_sigma_at,
)
from .errors import InvalidArgumentError
from .kernels import check_bits, check_int, check_mask, read_only, unpack_bits
from .population import (
    _SEED_MAX, _TAG_READOUT, DevicePopulation, keyed_philox, row_width, stream_rows,
)
from .special import ndtr

# uniforms drawn per device range (256 KiB of raw words); bounds the
# readout's working memory, whatever the population size; the heap lift in
# pufsim.randomness keeps a range's temporaries on reused heap pages
_RANGE_VALUES = 1 << 16

# text assembled per write of the signature CSV, unless one device's rows
# are longer
_CSV_CHUNK_BYTES = 1 << 18

# Bracketing table for Phi: ndtr on the grid x_k = _GRID_LO + k / _GRID_STEPS,
# k = 0 .. _GRID_POINTS - 1 (-9 to 9). Bucket b = 1 .. _GRID_POINTS - 1 holds
# x in [x_(b-1), x_b), bucket 0 all x < x_0 and the last bucket all x >= 9.
# _SLACK (in probability) covers the rounding of the bucket index and the
# error of ndtr, whose tested bound pufsim.special states, so ndtr(x) and
# the exact Phi(x) both lie in [_PHI_LO[b], _PHI_HI[b]] for every x of
# bucket b. Scaled to the uint32 draws, the bracket is
# _LO32[b] <= ndtr(x) * 2**32 <= _HIM1[b] + 1; tests/test_special.py
# checks it at every bucket's edges.
_GRID_STEPS = 64
_GRID_LO = -9.0
_GRID_POINTS = 18 * _GRID_STEPS + 1
_SLACK = 2.0**-40
_SCALE = 2.0**32
_GRID_PHI = ndtr(_GRID_LO + np.arange(_GRID_POINTS) / _GRID_STEPS)
_PHI_LO = np.clip(np.concatenate(([0.0], _GRID_PHI - _SLACK)), 0.0, 1.0)
_PHI_HI = np.clip(np.concatenate((_GRID_PHI + _SLACK, [1.0])), 0.0, 1.0)
_LO32 = np.minimum(np.floor(_PHI_LO * _SCALE), _SCALE - 1).astype(np.uint32)
_HIM1 = (np.ceil(_PHI_HI * _SCALE) - 1).astype(np.uint32)

_MAGIC = b"PUFS"
_VERSION = 1
# version, flags (bit 0: a mask follows), devices, trials, positions
_HEADER = "<HHIII"


def noise_stream(
    session_seed: int, device: int, trial: int, trials: int, n: int
) -> np.random.Philox:
    """Philox bit generator at the start of row (device, trial) in a
    session of `trials` trials over n positions: the first n entries of
    `random_raw(ceil(n / 2)).view(np.uint32)` are that row's draws.

    The readout draws whole device ranges and never calls this. It stays
    as the per-row form of the addressing that the tests check range draws
    against, and because perfbench/spans.py rebinds it by name.
    """
    return keyed_philox(session_seed, _TAG_READOUT, device * trials + trial, -(-n // 2))


@dataclass(frozen=True)
class ReadoutSession:
    """One acquisition: environment, trial count, seed, calibration.

    target_ber, when set, bypasses the environment lookup and calibrates
    the noise magnitude for that bit-error rate directly (the environment
    is still validated as a plain condition).
    """

    env: EnvironmentCondition
    trials: int
    session_seed: int
    calibration: NoiseCalibration
    target_ber: Optional[float] = None

    def __post_init__(self):
        check_int(self.trials, "trials", 1)
        check_int(self.session_seed, "session_seed", 0, _SEED_MAX)

    def noise_sigma(self) -> float:
        if self.target_ber is not None:
            return calibrate_noise_for_ber(
                self.target_ber, self.calibration.sigma_mismatch
            )
        return noise_sigma_at(self.calibration, self.env)


class SignatureSet:
    """Per-device, per-trial bit vectors with an optional position mask.

    bits has shape (devices, trials, n) with 0/1 uint8 values. The mask
    (1 = kept) is advisory: bits are never destroyed, downstream metrics
    simply exclude masked positions and use the reduced length.
    """

    def __init__(self, bits: np.ndarray, mask: Optional[np.ndarray] = None):
        bits = check_bits(bits)
        if bits.ndim != 3:
            raise InvalidArgumentError("bits must be (devices, trials, positions)")
        if 0 in bits.shape:
            raise InvalidArgumentError(f"empty signature set of shape {bits.shape}")
        self.bits = read_only(bits)
        self.mask = None if mask is None else read_only(check_mask(mask, bits.shape[2])[0])

    @property
    def num_devices(self) -> int:
        return self.bits.shape[0]

    @property
    def trials(self) -> int:
        return self.bits.shape[1]

    @property
    def n(self) -> int:
        return self.bits.shape[2]

    @property
    def effective_length(self) -> int:
        return int(self.mask.sum()) if self.mask is not None else self.n

    def kept_positions(self) -> np.ndarray:
        if self.mask is None:
            return np.arange(self.n)
        return np.flatnonzero(self.mask)

    # -- serialization -----------------------------------------------------

    def to_binary(self, path) -> None:
        """Container layout: header (version, flags, device count, trials,
        n), the packed mask when flags bit 0 is set, then row-major packed
        bits, one row per (device, trial)."""
        d, t, n = self.bits.shape
        flags = 1 if self.mask is not None else 0
        parts = [np.packbits(self.mask, bitorder="little")] if flags else []
        rows = self.bits.reshape(d * t, n)
        parts.append(np.packbits(rows, axis=-1, bitorder="little"))
        write_container(path, _MAGIC, _HEADER, (_VERSION, flags, d, t, n), *parts)

    @classmethod
    def from_binary(cls, path) -> "SignatureSet":
        (_, flags, d, t, n), payload = read_container(
            path, _MAGIC, _VERSION, _HEADER,
            lambda _, flags, d, t, n: ((flags & 1) + d * t) * ((n + 7) // 8),
        )
        if flags & ~1:
            raise InvalidArgumentError(f"{path}: unknown flags {flags:#x}")
        has_mask = flags & 1
        packed = np.frombuffer(payload, dtype=np.uint8)
        rows = unpack_bits(packed.reshape(has_mask + d * t, (n + 7) // 8), n)
        try:
            return cls(rows[has_mask:].reshape(d, t, n), rows[0] if has_mask else None)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{path}: {exc}") from None

    def to_csv(self, path) -> None:
        """One row per (device, trial); bits as a 0/1 character string.

        The text is assembled as uint8 arrays, without a loop over rows:
        devices whose numbers have the same count of decimal digits share
        one layout of their t rows, so a chunk of them is one (devices,
        bytes) array, written as it is. A chunk holds at most
        _CSV_CHUNK_BYTES, and never more than the d * t * (n + 1) bytes of
        the bits as text, unless one device's rows are longer.
        """
        d, t, n = self.bits.shape
        comma = np.full((t, 1), ord(","), dtype=np.uint8)
        # ",<trial>," for each run of trials of one digit count
        trial_runs = [(a, b, np.hstack([comma[a:b], _decimal(a, b, k), comma[a:b]]))
                      for a, b, k in _digit_runs(t)]
        budget = min(_CSV_CHUNK_BYTES, d * t * (n + 1))
        with write_atomic(path, "wb") as fh:
            fh.write(b"device,trial,bits\n")
            for start, stop, digits in _digit_runs(d):
                widths = [digits + mid.shape[1] + n + 1 for _, _, mid in trial_runs]
                device_bytes = sum((b - a) * w for (a, b, _), w in zip(trial_runs, widths))
                step = max(1, budget // device_bytes)
                for lo in range(start, stop, step):
                    hi = min(lo + step, stop)
                    text = np.empty((hi - lo, device_bytes), dtype=np.uint8)
                    device = _decimal(lo, hi, digits)[:, None, :]
                    col = 0
                    for (a, b, mid), width in zip(trial_runs, widths):
                        rows = text[:, col:col + (b - a) * width].reshape(hi - lo, b - a, width)
                        rows[:, :, :digits] = device
                        rows[:, :, digits:width - n - 1] = mid
                        np.add(self.bits[lo:hi, a:b], ord("0"), out=rows[:, :, width - n - 1:-1])
                        rows[:, :, -1] = ord("\n")
                        col += (b - a) * width
                    fh.write(text)


def _digit_runs(count: int):
    """(start, stop, digits) for each run of 0 .. count - 1 whose decimal
    forms have the same number of digits."""
    start, digits = 0, 1
    while start < count:
        stop = min(10**digits, count)
        yield start, stop, digits
        start, digits = stop, digits + 1


def _decimal(start: int, stop: int, digits: int) -> np.ndarray:
    """(stop - start, digits) uint8 decimal text of start .. stop - 1, each
    of exactly `digits` digits."""
    values = np.arange(start, stop, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    return (values // powers % 10 + ord("0")).astype(np.uint8)


@dataclass(frozen=True)
class GoldenSignature:
    """Per-device enrollment reference and per-position agreement.

    counts[device, position] is how many of the `trials` enrollment reads
    agree with the golden bit, held in the smallest unsigned dtype that
    holds `trials`; stability is counts / trials, always in [0.5, 1.0]
    under the majority definition.
    """

    bits: np.ndarray  # (devices, n) uint8
    counts: np.ndarray  # (devices, n) unsigned, <= trials
    trials: int

    def __post_init__(self):
        check_int(self.trials, "trials", 1)
        counts = self.counts
        if counts.shape != self.bits.shape or counts.max(initial=0) > self.trials:
            raise InvalidArgumentError("counts must match bits' shape and be <= trials")

    @property
    def stability(self) -> np.ndarray:
        """Fraction of enrollment trials agreeing with the golden bit."""
        return self.counts / self.trials


def check_golden(sigs: SignatureSet, golden: GoldenSignature) -> None:
    """Refuse a golden whose (devices, n) is not the signature set's."""
    if golden.bits.shape != (sigs.num_devices, sigs.n):
        raise InvalidArgumentError(
            f"golden of (devices, n) = {golden.bits.shape} does not match the "
            f"signatures' {(sigs.num_devices, sigs.n)}"
        )


def count_dtype(trials: int) -> np.dtype:
    """Smallest little-endian unsigned dtype that holds `trials`."""
    return np.min_scalar_type(trials).newbyteorder("<")


def _resolve(x: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """out = u[:, :, :n] < ndtr(x)[:, None, :] * 2**32 for x of shape
    (r, n), uint32 u of shape (r, t, w >= n) and uint8 out of shape
    (r, t, n), bit for bit. The draws in u are overwritten.

    Each cell's bucket brackets ndtr(x) * 2**32 between _LO32 and
    _HIM1 + 1: a draw below _LO32 reads 1, one above _HIM1 reads 0, and
    only the cells with a draw inside (at most 0.63% of draws for any x)
    evaluate ndtr. For integer u, u < p * 2**32 is u < ceil(p * 2**32);
    those draws compare both sides as offsets from _LO32, which fit in 32
    bits because a bracket is narrower than 2**32.
    """
    n = x.shape[1]
    # bucket = floor((x - x_0) * steps) + 1, clipped to the table; the cast
    # truncates, which is floor on the clipped, non-negative values. The
    # steps work in place, so fewer temporaries are alive at once.
    bucket = x * _GRID_STEPS
    bucket += 1 - _GRID_LO * _GRID_STEPS
    bucket = np.clip(bucket, 0, _GRID_POINTS, out=bucket).astype(np.intp)
    lo = np.take(_LO32, bucket)
    span = np.take(_HIM1, bucket)
    span -= lo
    draws = u[:, :, :n]
    bits = out.view(bool)  # a bool output needs no casting buffer
    np.less(draws, lo[:, None, :], out=bits)
    # each draw becomes its offset from lo, which wraps below lo, so it is
    # <= span just inside the bracket
    offset = np.subtract(draws, lo[:, None, :], out=draws)
    undecided = offset <= span[:, None, :]
    cells = np.flatnonzero(undecided.any(axis=1))
    # at those cells span becomes ceil(ndtr(x) * 2**32) - lo, in [0, span + 1]
    exact = np.ceil(ndtr(np.take(x, cells)) * _SCALE)
    np.put(span, cells, exact - np.take(lo, cells))
    np.less(offset, span[:, None, :], out=bits, where=undecided)


def read_signatures(population: DevicePopulation,
                    session: ReadoutSession) -> SignatureSet:
    """Run the session over the population and assemble all signatures.

    Devices are read in ranges of about _RANGE_VALUES uniforms, each drawn
    from its own counter offset, so the bits are identical for every range
    size.
    """
    sigma_n = session.noise_sigma()
    sigma_m = session.calibration.sigma_mismatch
    coupling = session.calibration.bias_noise_coupling
    offsets = population.bias_offsets
    sigma_eff = sigma_n * (1.0 + coupling * np.abs(offsets) / sigma_m)
    d, t, n = population.num_devices, session.trials, population.cells_per_device
    words = -(-n // 2)  # per row: two uniforms per word
    bits = np.empty((d, t, n), dtype=np.uint8)
    step = max(1, _RANGE_VALUES // (t * 2 * row_width(words)))
    for lo in range(0, d, step):
        hi = min(lo + step, d)
        x = population.mismatch[lo:hi] + offsets
        if sigma_n == 0:
            # strict inequality: an exact zero margin resolves to 0
            bits[lo:hi] = (x > 0)[:, None, :]
            continue
        x /= sigma_eff
        u = stream_rows(session.session_seed, _TAG_READOUT, lo * t, (hi - lo) * t, words)
        _resolve(x, u.view(np.uint32).reshape(hi - lo, t, -1), bits[lo:hi])
    return SignatureSet(bits)


def enroll_golden(sigs: SignatureSet) -> GoldenSignature:
    """Majority vote across trials; an exact tie takes the trial-0 bit.
    Counts are summed in `count_dtype(trials)`, which every step keeps."""
    t = sigs.trials
    half = t // 2
    counts = sigs.bits.sum(axis=1, dtype=count_dtype(t))
    golden = (counts > half).view(np.uint8)
    if t % 2 == 0:
        golden |= (counts == half) & sigs.bits[:, 0, :]
    # a golden 1 has counts >= t - counts and a golden 0 counts <= t -
    # counts, with equality only at a tie, so the larger is the agreement
    agree = np.maximum(counts, t - counts)
    golden.setflags(write=False)
    agree.setflags(write=False)
    return GoldenSignature(bits=golden, counts=agree, trials=t)


def check_mask_thresholds(bias_threshold: float, stability_threshold: float) -> None:
    if not (0 < bias_threshold <= 0.5):
        raise InvalidArgumentError("bias_threshold must be in (0, 0.5]")
    if not (0.5 < stability_threshold <= 1.0):
        raise InvalidArgumentError("stability_threshold must be in (0.5, 1.0]")


def eliminate_biased_positions(
    sigs: SignatureSet,
    bias_threshold: float = 0.3,
    stability_threshold: float = 0.9,
    golden: Optional[GoldenSignature] = None,
) -> np.ndarray:
    """Keep-mask over positions: a position is eliminated when its
    across-device golden-bit mean deviates from 0.5 by more than
    bias_threshold, or its across-device mean stability falls below
    stability_threshold. Each is one exact integer sum per column and one
    correctly rounded division: the deviation of c ones among d devices
    is |2c - d| / 2d, so a column exactly at either threshold is kept."""
    d = sigs.num_devices
    if d < 2:
        raise InvalidArgumentError("bias elimination needs at least 2 devices")
    check_mask_thresholds(bias_threshold, stability_threshold)
    if golden is None:
        golden = enroll_golden(sigs)
    check_golden(sigs, golden)
    ones = golden.bits.sum(axis=0, dtype=np.int64)
    mean_stab = golden.counts.sum(axis=0, dtype=np.int64) / (golden.trials * d)
    eliminate = ((np.abs(2 * ones - d) / (2 * d) > bias_threshold)
                 | (mean_stab < stability_threshold))
    return check_mask((~eliminate).view(np.uint8), sigs.n)[0]


def apply_mask(sigs: SignatureSet, mask: np.ndarray) -> SignatureSet:
    """New SignatureSet carrying the mask; original bits are retained so
    masked and unmasked metrics can come from the same readout."""
    return SignatureSet(sigs.bits, mask)
