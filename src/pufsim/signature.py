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
sigma_eff, so it is resolved as `u < p` with u uniform on [0, 1): the same
law as `margin + sigma_eff * z > 0` with z standard normal. Most bits are
resolved without evaluating p. A table built at import holds ndtr on a grid
of x from -9 to 9 in steps of 1/64, widened by 2**-40 into a bracket
LO <= p <= HI for each grid bucket (the end buckets run to -inf and +inf).
Each cell looks up its bucket from x once per session; a draw with u < LO
reads 1 and one with u >= HI reads 0. A draw lands inside its bracket with
probability under 0.63% at any x; only the cells with such a draw evaluate
p = ndtr(x), and only those draws read `u < p`, so the bits are exactly
those of evaluating p for every cell. A noiseless
session (sigma = 0) has p = (margin > 0) and draws nothing, so it
reproduces the sign of the margin exactly and an exact zero margin
resolves to 0.

Randomness derivation. A session has one keyed Philox counter generator,
key = (session_seed, readout tag) built by `population.keyed_philox` as
exact 64-bit words, in the manner of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11). Each uniform uses
one 64-bit output, and each row is padded to whole 4-output counter
blocks, so row (device, trial) of a session with t trials and n positions
starts at counter block (device * t + trial) * ceil(n / 4). Any device
range is then one contiguous draw that starts at a computed counter,
which makes the bits independent of how the devices are split into ranges
and of the thread count.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .artifacts import read_container, write_atomic, write_container
from .entropy import (
    EnvironmentCondition,
    NoiseCalibration,
    calibrate_noise_for_ber,
    noise_sigma_at,
)
from .errors import EmptySignatureError, InvalidArgumentError
from .kernels import check_bits, read_only, unpack_bits
from .population import DevicePopulation, keyed_philox

_TAG_READOUT = 5

# uniforms drawn per device range (256 KiB of float64); bounds the
# readout's working memory, whatever the population size
_RANGE_VALUES = 1 << 15

# Bracketing table for Phi: ndtr on the grid x_k = _GRID_LO + k / _GRID_STEPS,
# k = 0 .. _GRID_POINTS - 1 (-9 to 9). Bucket b = 1 .. _GRID_POINTS - 1 holds
# x in [x_(b-1), x_b), bucket 0 all x < x_0 and the last bucket all x >= 9.
# _SLACK (in probability) covers the rounding of the bucket index and of
# ndtr itself, both below 1e-15, so _PHI_LO[b] <= ndtr(x) <= _PHI_HI[b] for
# every x of bucket b.
_GRID_STEPS = 64
_GRID_LO = -9.0
_GRID_POINTS = 18 * _GRID_STEPS + 1
_SLACK = 2.0**-40
_GRID_PHI = ndtr(_GRID_LO + np.arange(_GRID_POINTS) / _GRID_STEPS)
_PHI_LO = np.concatenate(([-np.inf], _GRID_PHI - _SLACK))
_PHI_HI = np.concatenate((_GRID_PHI + _SLACK, [np.inf]))

# Padding of the needed-cell mask. numpy keeps freed data blocks under
# 1 KiB in a per-size cache for the life of the process; a small index
# array of a new size in every range would leave such blocks pinned across
# the heap (3 MiB more peak RSS from the second pipeline run in a process
# on). With 128 always-set entries, the index array never gets that small.
_INDEX_PAD = 128

_MAGIC = b"PUFS"
_VERSION = 1
# version, flags (bit 0: a mask follows), devices, trials, positions
_HEADER = "<HHIII"


def _row_blocks(n: int) -> int:
    """4-output Philox counter blocks per readout row of n positions."""
    return (n + 3) // 4


def _readout_generator(session_seed: int, first_block: int) -> np.random.Generator:
    bitgen = keyed_philox(session_seed, _TAG_READOUT)
    bitgen.advance(first_block)
    return np.random.Generator(bitgen)


def noise_stream(
    session_seed: int, device: int, trial: int, trials: int, n: int
) -> np.random.Generator:
    """Generator whose first n uniforms are the readout draws of row
    (device, trial) in a session of `trials` trials over n positions.

    The readout draws whole device ranges and never calls this. It stays
    as the per-row form of the addressing that the tests check range draws
    against, and because perfbench/spans.py rebinds it by name.
    """
    return _readout_generator(session_seed, (device * trials + trial) * _row_blocks(n))


def check_trials(trials: int) -> None:
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")


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
        check_trials(self.trials)
        if not (0 <= int(self.session_seed) < 2**64):
            raise InvalidArgumentError("session_seed must fit in 64 unsigned bits")

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
        self.bits = read_only(bits)
        self.mask = None
        if mask is not None:
            mask = check_bits(mask, "mask")
            if mask.shape != (bits.shape[2],):
                raise InvalidArgumentError(
                    f"mask length {mask.shape} does not match n={bits.shape[2]}"
                )
            if int(mask.sum()) == 0:
                raise EmptySignatureError("mask keeps zero positions")
            self.mask = read_only(mask)

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
        has_mask = flags & 1
        packed = np.frombuffer(payload, dtype=np.uint8)
        rows = unpack_bits(packed.reshape(has_mask + d * t, (n + 7) // 8), n)
        return cls(rows[has_mask:].reshape(d, t, n), rows[0] if has_mask else None)

    def to_csv(self, path) -> None:
        """One row per (device, trial); bits as a 0/1 character string."""
        d, t, n = self.bits.shape
        text = np.empty((d * t, n + 1), dtype=np.uint8)
        text[:, :n] = self.bits.reshape(d * t, n) + ord("0")
        text[:, n] = ord("\n")
        with write_atomic(path, "wb") as fh:
            fh.write(b"device,trial,bits\n")
            for row, (dev, trial) in enumerate(np.ndindex(d, t)):
                fh.write(b"%d,%d,%s" % (dev, trial, text[row].tobytes()))


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
        check_trials(self.trials)
        counts = self.counts
        if counts.shape != self.bits.shape or counts.max(initial=0) > self.trials:
            raise InvalidArgumentError("counts must match bits' shape and be <= trials")

    @property
    def stability(self) -> np.ndarray:
        """Fraction of enrollment trials agreeing with the golden bit."""
        return self.counts / self.trials


def count_dtype(trials: int) -> np.dtype:
    """Smallest little-endian unsigned dtype that holds `trials`."""
    return np.min_scalar_type(trials).newbyteorder("<")


class _RangeBuffers:
    """Working arrays of one readout thread, sized for its largest device
    range of r devices x t trials x n positions and reused for every range
    it reads, so that a range allocates only the index array of its
    exactly resolved cells."""

    def __init__(self, r: int, t: int, n: int):
        cells = r * n
        self.u = np.empty(r * t * 4 * _row_blocks(n))
        self.x = np.empty(cells)
        self.lo = np.empty(cells)
        self.hi = np.empty(cells)
        self.bucket = np.empty(cells, dtype=np.intp)
        self.needed = np.empty(cells + _INDEX_PAD, dtype=bool)
        self.undecided = np.empty(r * t * n, dtype=bool)

    def resolve(self, x: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
        """out = u[:, :, :n] < ndtr(x)[:, None, :] for contiguous x of shape
        (r, n), u of shape (r, t, w >= n) and out of shape (r, t, n), bit for
        bit.

        Each cell's bucket brackets ndtr(x) between _PHI_LO and _PHI_HI: a
        draw below the bracket reads 1, one at or above it reads 0, and only
        the cells with a draw inside it (at most 0.63% of draws for any x)
        evaluate ndtr.
        """
        r, n = x.shape
        t = u.shape[1]
        m = r * n
        lo = self.lo[:m].reshape(r, n)
        hi = self.hi[:m].reshape(r, n)
        bucket = self.bucket[:m].reshape(r, n)
        undecided = self.undecided[: m * t].reshape(r, t, n)
        # bucket = floor((x - x_0) * steps) + 1, clipped to the table; the
        # cast truncates, which is floor on the clipped, non-negative values
        np.multiply(x, _GRID_STEPS, out=lo)
        np.add(lo, 1 - _GRID_LO * _GRID_STEPS, out=lo)
        np.clip(lo, 0, _GRID_POINTS, out=lo)
        np.copyto(bucket, lo, casting="unsafe")
        np.take(_PHI_LO, bucket, out=lo, mode="clip")
        np.take(_PHI_HI, bucket, out=hi, mode="clip")
        draws = u[:, :, :n]
        bits = out.view(bool)  # a bool output needs no casting buffer
        np.less(draws, lo[:, None, :], out=bits)
        np.less(draws, hi[:, None, :], out=undecided)
        undecided ^= bits
        # the mask of cells to evaluate ends in _INDEX_PAD set entries
        needed = self.needed[: m + _INDEX_PAD]
        np.any(undecided, axis=1, out=needed[:m].reshape(r, n))
        needed[m:] = True
        cells = np.flatnonzero(needed)[:-_INDEX_PAD]
        # lo becomes p = ndtr(x) at those cells, evaluated in the spent hi
        p = np.take(x, cells, out=self.hi[: cells.size], mode="clip")
        ndtr(p, out=p)
        lo.put(cells, p)
        np.less(draws, lo[:, None, :], out=bits, where=undecided)


def read_signatures(
    population: DevicePopulation, session: ReadoutSession, threads: int = 1
) -> SignatureSet:
    """Run the session over the population and assemble all signatures.

    Devices are read in ranges of about _RANGE_VALUES uniforms, each from
    its own counter offset, so the bits are identical for every range size
    and thread count.
    """
    sigma_n = session.noise_sigma()
    sigma_m = session.calibration.sigma_mismatch
    coupling = session.calibration.bias_noise_coupling
    offsets = population.bias_offsets
    sigma_eff = sigma_n * (1.0 + coupling * np.abs(offsets) / sigma_m)
    d, t, n = population.num_devices, session.trials, population.cells_per_device
    blocks = _row_blocks(n)
    bits = np.empty((d, t, n), dtype=np.uint8)
    step = max(1, _RANGE_VALUES // (t * 4 * blocks))
    local = threading.local()

    def fill(lo: int):
        hi = min(lo + step, d)
        r = hi - lo
        if sigma_n == 0:
            # strict inequality: an exact zero margin resolves to 0
            bits[lo:hi] = (population.mismatch[lo:hi] + offsets > 0)[:, None, :]
            return
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = _RangeBuffers(min(step, d), t, n)
        x = buffers.x[: r * n].reshape(r, n)
        np.add(population.mismatch[lo:hi], offsets, out=x)
        np.divide(x, sigma_eff, out=x)
        u = buffers.u[: r * t * 4 * blocks]
        _readout_generator(session.session_seed, lo * t * blocks).random(out=u)
        buffers.resolve(x, u.reshape(r, t, 4 * blocks), bits[lo:hi])

    starts = range(0, d, step)
    threads = max(1, int(threads))
    if threads == 1:
        for lo in starts:
            fill(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
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
    agree = np.where(golden, counts, t - counts)
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
    stability_threshold."""
    if sigs.num_devices < 2:
        raise InvalidArgumentError("bias elimination needs at least 2 devices")
    check_mask_thresholds(bias_threshold, stability_threshold)
    if golden is None:
        golden = enroll_golden(sigs)
    mean_bit = golden.bits.mean(axis=0)
    mean_stab = golden.stability.mean(axis=0)
    eliminate = (np.abs(mean_bit - 0.5) > bias_threshold) | (
        mean_stab < stability_threshold
    )
    mask = (~eliminate).astype(np.uint8)
    if int(mask.sum()) == 0:
        raise EmptySignatureError("all positions eliminated")
    return mask


def apply_mask(sigs: SignatureSet, mask: np.ndarray) -> SignatureSet:
    """New SignatureSet carrying the mask; original bits are retained so
    masked and unmasked metrics can come from the same readout."""
    return SignatureSet(sigs.bits, mask)
