"""Readout sessions, signature assembly, enrollment, and bias-elimination
masking.

A readout session powers up every cell of every device `trials` times under
one environment. The bit of (device, trial, position) is the sign of

    mismatch(device, position) + bias_offset(position) + noise

with noise drawn from a stream derived from (session_seed, device, trial);
position indexes into that stream. The base noise magnitude comes from the
session's calibration at the session environment. Positions carrying a
systematic bias offset are additionally noisier: their effective magnitude
is base * (1 + coupling * |offset| / sigma_mismatch), with the coupling
factor taken from the calibration (0 disables the effect). Skewed cells
thus hurt both uniqueness and reliability, which is what makes eliminating
them worthwhile.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import (
    EnvironmentCondition,
    NoiseCalibration,
    calibrate_noise_for_ber,
    noise_sigma_at,
)
from .errors import EmptySignatureError, InvalidArgumentError
from .population import DevicePopulation

_TAG_READOUT = 5

_MAGIC = b"PUFS"
_VERSION = 1


def noise_stream(session_seed: int, device: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one (device, trial) readout row."""
    ss = np.random.SeedSequence(session_seed, spawn_key=(_TAG_READOUT, device, trial))
    return np.random.Generator(np.random.Philox(ss))


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
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")

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
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 3:
            raise InvalidArgumentError("bits must be (devices, trials, positions)")
        self.bits = bits
        self.bits.setflags(write=False)
        self.mask = None
        if mask is not None:
            mask = np.asarray(mask, dtype=np.uint8)
            if mask.shape != (bits.shape[2],):
                raise InvalidArgumentError("mask length must equal n")
            if int(mask.sum()) == 0:
                raise EmptySignatureError("mask keeps zero positions")
            self.mask = mask
            self.mask.setflags(write=False)

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
        """Flat layout: header (device count, trials, n, mask) then
        row-major packed bits, one row per (device, trial)."""
        d, t, n = self.bits.shape
        flags = 1 if self.mask is not None else 0
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<HHIII", _VERSION, flags, d, t, n))
            if self.mask is not None:
                fh.write(np.packbits(self.mask, bitorder="little").tobytes())
            rows = self.bits.reshape(d * t, n)
            fh.write(np.packbits(rows, axis=-1, bitorder="little").tobytes())

    @classmethod
    def from_binary(cls, path) -> "SignatureSet":
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(4)
            if magic != _MAGIC:
                raise InvalidArgumentError(f"not a signature file: {path}")
            header = fh.read(16)
            if len(header) != 16:
                raise InvalidArgumentError(
                    f"{path}: truncated header, expected at least 20 bytes, "
                    f"found {size}"
                )
            version, flags, d, t, n = struct.unpack("<HHIII", header)
            if version != _VERSION:
                raise InvalidArgumentError(f"unsupported signature version {version}")
            nbytes = (n + 7) // 8
            expected = 20 + (nbytes if flags & 1 else 0) + d * t * nbytes
            if size != expected:
                raise InvalidArgumentError(
                    f"{path}: header declares {expected} bytes, found {size}"
                )
            mask = None
            if flags & 1:
                raw = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
                mask = np.unpackbits(raw, bitorder="little")[:n]
            raw = np.frombuffer(fh.read(d * t * nbytes), dtype=np.uint8)
            rows = np.unpackbits(raw.reshape(d * t, nbytes), axis=-1, bitorder="little")
            return cls(rows[:, :n].reshape(d, t, n), mask)

    def to_csv(self, path) -> None:
        """One row per (device, trial); bits as a 0/1 character string."""
        d, t, n = self.bits.shape
        with open(path, "w") as fh:
            fh.write("device,trial,bits\n")
            for dev in range(d):
                for trial in range(t):
                    row = self.bits[dev, trial]
                    fh.write(f"{dev},{trial},{''.join('1' if b else '0' for b in row)}\n")


@dataclass(frozen=True)
class GoldenSignature:
    """Per-device enrollment reference and per-position stability.

    stability is the fraction of trials agreeing with the golden bit,
    always in [0.5, 1.0] under the majority definition.
    """

    bits: np.ndarray  # (devices, n) uint8
    stability: np.ndarray  # (devices, n) float64


def read_signatures(
    population: DevicePopulation, session: ReadoutSession, threads: int = 1
) -> SignatureSet:
    """Run the session over the population and assemble all signatures.

    Deterministic for identical (population, session) regardless of the
    thread count: every (device, trial) row has its own derived stream.
    """
    sigma_n = session.noise_sigma()
    sigma_m = session.calibration.sigma_mismatch
    coupling = session.calibration.bias_noise_coupling
    offsets = population.bias_offsets
    sigma_eff = sigma_n * (1.0 + coupling * np.abs(offsets) / sigma_m)
    d, t, n = population.num_devices, session.trials, population.cells_per_device
    bits = np.empty((d, t, n), dtype=np.uint8)

    def fill(dev_lo: int, dev_hi: int):
        for dev in range(dev_lo, dev_hi):
            static = population.mismatch[dev] + offsets
            for trial in range(t):
                draws = noise_stream(session.session_seed, dev, trial).standard_normal(n)
                # strict inequality: an exact zero margin resolves to 0
                bits[dev, trial] = (static + draws * sigma_eff) > 0
        return dev_hi - dev_lo

    threads = max(1, int(threads))
    if threads == 1:
        fill(0, d)
    else:
        step = (d + threads - 1) // threads
        bounds = [(lo, min(lo + step, d)) for lo in range(0, d, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: fill(*b), bounds))
    return SignatureSet(bits)


def enroll_golden(sigs: SignatureSet) -> GoldenSignature:
    """Majority vote across trials; an exact tie takes the trial-0 bit."""
    t = sigs.trials
    counts = sigs.bits.sum(axis=1, dtype=np.int64)
    golden = np.where(
        counts * 2 > t, 1, np.where(counts * 2 == t, sigs.bits[:, 0, :], 0)
    ).astype(np.uint8)
    agree = np.where(golden == 1, counts, t - counts) / t
    golden.setflags(write=False)
    agree.setflags(write=False)
    return GoldenSignature(bits=golden, stability=agree)


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
    if not (0 < bias_threshold <= 0.5):
        raise InvalidArgumentError("bias_threshold must be in (0, 0.5]")
    if not (0.5 < stability_threshold <= 1.0):
        raise InvalidArgumentError("stability_threshold must be in (0.5, 1.0]")
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
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.shape != (sigs.n,):
        raise InvalidArgumentError(
            f"mask length {mask.shape} does not match n={sigs.n}"
        )
    return SignatureSet(sigs.bits, mask)
