"""Signature-quality metrics: uniqueness (inter-device Hamming distance),
reliability (intra-device Hamming distance against the enrolled golden),
bias colormaps, distance histograms, and environment robustness sweeps.

Inter-HD over R device signatures of length n:

    (2 / (R (R - 1))) * sum_{u<v} HD(S_u, S_v) / n * 100

Intra-HD of one device from x re-reads against its reference S_v:

    (1 / x) * sum_u HD(S_u, S_v) / n * 100

Distance totals are exact integers until the final division, so results
are independent of pair ordering or partitioning: the inter-HD total comes
in closed form from per-position one-counts, and the pairwise pass over
64-bit packed words with population count runs only where a distance
histogram is wanted. Masked positions are excluded from both the numerator
and n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .entropy import EnvironmentCondition, NoiseCalibration
from .errors import InvalidArgumentError
from .population import DevicePopulation
from .signature import (
    GoldenSignature,
    ReadoutSession,
    SignatureSet,
    enroll_golden,
    read_signatures,
)


def _as_bit_matrix(signatures) -> np.ndarray:
    mat = np.asarray(signatures, dtype=np.uint8)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise InvalidArgumentError("signatures must be a (devices, n) bit array")
    if not np.isin(mat, (0, 1)).all():
        raise InvalidArgumentError("signatures must contain only 0/1 values")
    return mat


def _check_mask(mask: Optional[np.ndarray], n: int):
    """Validated 0/1 keep-mask (or None) and the effective length."""
    if mask is None:
        return None, n
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.shape != (n,):
        raise InvalidArgumentError("mask length must equal signature length")
    if not np.isin(mask, (0, 1)).all():
        raise InvalidArgumentError("mask must contain only 0/1 values")
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise InvalidArgumentError("mask keeps zero positions")
    return mask, n_eff


def _masked_pack(mat: np.ndarray, mask: Optional[np.ndarray]):
    mask, n_eff = _check_mask(mask, mat.shape[1])
    if mask is not None:
        mat = mat * mask  # zeroed positions drop out of every XOR
    return kernels.pack_bits(mat), n_eff


def _device_count(mat: np.ndarray) -> int:
    r = mat.shape[0]
    if r < 2:
        raise InvalidArgumentError("inter-HD needs at least 2 devices")
    return r


def inter_hd(signatures, mask: Optional[np.ndarray] = None) -> float:
    """Average pairwise Hamming distance between device signatures, in
    percent of the (effective) signature length.

    The pair total is exact and needs no pairwise pass: a kept position
    with c ones among r devices differs in c * (r - c) pairs, so
    sum_{u<v} HD(S_u, S_v) = sum_j c_j (r - c_j).
    """
    mat = _as_bit_matrix(signatures)
    r = _device_count(mat)
    mask, n_eff = _check_mask(mask, mat.shape[1])
    ones = mat.sum(axis=0, dtype=np.int64)
    if mask is not None:
        ones = ones[mask == 1]
    total = int(np.dot(ones, r - ones))
    return 200.0 * total / (r * (r - 1) * n_eff)


def inter_hd_details(signatures, mask: Optional[np.ndarray] = None):
    """inter_hd plus the integer histogram of raw pairwise distances."""
    mat = _as_bit_matrix(signatures)
    r = _device_count(mat)
    packed, n_eff = _masked_pack(mat, mask)
    total, hist = kernels.pairwise_hd_stats(packed, n_eff)
    percent = 200.0 * total / (r * (r - 1) * n_eff)
    return percent, hist


def intra_hd(reference, rereads, mask: Optional[np.ndarray] = None) -> float:
    """Average distance of one device's re-reads to its reference, in
    percent of the (effective) signature length."""
    ref = np.asarray(reference, dtype=np.uint8)
    reads = _as_bit_matrix(rereads)
    if reads.shape[0] < 1:
        raise InvalidArgumentError("intra-HD needs at least one re-read")
    if ref.shape != (reads.shape[1],):
        raise InvalidArgumentError("reference length must match re-read length")
    packed_ref, n_eff = _masked_pack(ref[None, :], mask)
    packed_reads, _ = _masked_pack(reads, mask)
    total = int(np.bitwise_count(packed_reads ^ packed_ref).sum())
    return 100.0 * total / (reads.shape[0] * n_eff)


def mean_intra_hd(sigs: SignatureSet, golden: GoldenSignature) -> float:
    """Population mean of per-device intra-HD against the golden bits,
    honoring the signature set's mask."""
    d, t, n = sigs.bits.shape
    mask = sigs.mask
    if mask is not None:
        n_eff = int(mask.sum())
        diff = (sigs.bits != golden.bits[:, None, :]) & (mask[None, None, :] == 1)
    else:
        n_eff = n
        diff = sigs.bits != golden.bits[:, None, :]
    total = int(diff.sum(dtype=np.int64))
    return 100.0 * total / (d * t * n_eff)


def ones_fraction_and_colormap(sigs: SignatureSet, trial: int = 0):
    """Fraction of 1 bits at one trial over all devices and positions,
    plus the device-by-position grid for rendering."""
    if not (0 <= trial < sigs.trials):
        raise InvalidArgumentError(f"trial {trial} out of range")
    grid = sigs.bits[:, trial, :]
    return float(grid.mean()), grid


def hd_histogram(pairwise_percents: Sequence[float], bucket_width: float = 1.0) -> dict:
    """Counts per percent bucket [k*w, (k+1)*w); keys are bucket lower
    edges, values sum to the number of pairs."""
    if not (bucket_width > 0):
        raise InvalidArgumentError("bucket width must be positive")
    out: dict = {}
    for p in np.asarray(pairwise_percents, dtype=np.float64):
        edge = float(np.floor(p / bucket_width) * bucket_width)
        out[edge] = out.get(edge, 0) + 1
    return dict(sorted(out.items()))


def hd_histogram_from_counts(
    raw_hist: np.ndarray, n_eff: int, bucket_width: float = 1.0
) -> dict:
    """Same histogram built from the integer-distance counts that
    inter_hd_details returns (avoids materializing every pair)."""
    if not (bucket_width > 0):
        raise InvalidArgumentError("bucket width must be positive")
    out: dict = {}
    for h, count in enumerate(raw_hist):
        if count == 0:
            continue
        percent = 100.0 * h / n_eff
        edge = float(np.floor(percent / bucket_width) * bucket_width)
        out[edge] = out.get(edge, 0) + int(count)
    return dict(sorted(out.items()))


def robustness_sweep(
    population: DevicePopulation,
    calibration: NoiseCalibration,
    envs: Sequence[EnvironmentCondition],
    trials: int = 1,
    base_seed: int = 0,
    nominal_env: Optional[EnvironmentCondition] = None,
    threads: int = 1,
):
    """Mean intra-HD at each environment against a golden enrolled at the
    nominal environment (defaults to the calibration reference).

    Reproducible: the enrollment seed and each sweep point's session seed
    derive from base_seed and the point's position in envs.
    """
    nominal = nominal_env if nominal_env is not None else calibration.reference
    enroll_seed = int(
        np.random.SeedSequence(base_seed, spawn_key=(0,)).generate_state(1)[0]
    )
    enroll_sigs = read_signatures(
        population,
        ReadoutSession(nominal, trials=1, session_seed=enroll_seed,
                       calibration=calibration),
        threads=threads,
    )
    golden = enroll_golden(enroll_sigs)
    results = []
    for idx, env in enumerate(envs):
        seed = int(
            np.random.SeedSequence(base_seed, spawn_key=(1 + idx,)).generate_state(1)[0]
        )
        sigs = read_signatures(
            population,
            ReadoutSession(env, trials=trials, session_seed=seed,
                           calibration=calibration),
            threads=threads,
        )
        results.append((env, mean_intra_hd(sigs, golden)))
    return results


@dataclass
class MetricReport:
    """Bundle of the quality numbers one readout produces."""

    inter_hd_percent: float
    intra_hd_percent: Optional[float]
    hd_histogram: dict
    ones_fraction: float
    colormap: np.ndarray
    per_env_ber: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "inter_hd_percent": self.inter_hd_percent,
            "intra_hd_percent": self.intra_hd_percent,
            "hd_histogram": {f"{k:g}": v for k, v in self.hd_histogram.items()},
            "ones_fraction": self.ones_fraction,
            "per_env_ber": [
                {
                    "temperature_celsius": env.temperature_celsius,
                    "supply_voltage_volts": env.supply_voltage_volts,
                    "ber_percent": ber,
                }
                for env, ber in self.per_env_ber
            ],
        }


def compute_report(
    sigs: SignatureSet,
    golden: Optional[GoldenSignature] = None,
    bucket_width: float = 1.0,
    per_env_ber: Optional[list] = None,
    trial: int = 0,
) -> MetricReport:
    """Inter-HD over golden signatures (falling back to the given trial's
    rows when no golden is supplied), intra-HD against golden, histogram,
    ones fraction, and colormap, all honoring the set's mask."""
    rows = golden.bits if golden is not None else sigs.bits[:, trial, :]
    percent, raw_hist = inter_hd_details(rows, sigs.mask)
    n_eff = sigs.effective_length
    intra = mean_intra_hd(sigs, golden) if golden is not None else None
    ones, grid = ones_fraction_and_colormap(sigs, trial)
    return MetricReport(
        inter_hd_percent=percent,
        intra_hd_percent=intra,
        hd_histogram=hd_histogram_from_counts(raw_hist, n_eff, bucket_width),
        ones_fraction=ones,
        colormap=grid,
        per_env_ber=per_env_ber or [],
    )
