"""Signature-quality metrics: uniqueness (inter-device Hamming distance),
reliability (intra-device Hamming distance against the enrolled golden),
distance histograms, and environment robustness sweeps. `compute_report`
builds a `metrics.json` session entry for both `pufsim run` and
`pufsim metrics`.

Inter-HD over R device signatures of length n:

    (2 / (R (R - 1))) * sum_{u<v} HD(S_u, S_v) / n * 100

Intra-HD of one device from x re-reads against its reference S_v:

    (1 / x) * sum_u HD(S_u, S_v) / n * 100

Distance totals are exact integers until the final division, so results
are independent of pair ordering or partitioning. `inter_hd` takes its
total in closed form from per-position one-counts; `inter_hd_details`
takes the same integer from the pairwise pass that builds its distance
histogram. That pass and intra-HD XOR and popcount 64-bit words from
`kernels.pack_bits`.
Masked positions are zeroed in the packed words and excluded from n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .entropy import EnvironmentCondition, NoiseCalibration
from .errors import InvalidArgumentError
from .population import DevicePopulation, derived_seed
from .signature import (
    GoldenSignature,
    ReadoutSession,
    SignatureSet,
    apply_mask,
    check_golden,
    enroll_golden,
    read_signatures,
)


def _as_bit_matrix(signatures) -> np.ndarray:
    mat = kernels.check_bits(signatures, "signatures")
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise InvalidArgumentError("signatures must be a (devices, n) bit array")
    return mat


def _check_mask(mask: Optional[np.ndarray], n: int):
    """Validated 0/1 keep-mask (or None) and the effective length."""
    return (None, n) if mask is None else kernels.check_mask(mask, n)


def _masked_pack(bits: np.ndarray, mask: Optional[np.ndarray]):
    mask, n_eff = _check_mask(mask, bits.shape[-1])
    packed = kernels.pack_bits(bits)
    if mask is not None:
        packed &= kernels.pack_bits(mask)  # zeroed positions drop out of every XOR
    return packed, n_eff


def _intra_total(reads: np.ndarray, ref: np.ndarray, mask: Optional[np.ndarray]):
    """Summed XOR-popcount distance of reads to ref (broadcast over the
    leading axes) and the kept length."""
    packed_reads, n_eff = _masked_pack(reads, mask)
    packed_ref, _ = _masked_pack(ref, mask)
    total = int(np.bitwise_count(packed_reads ^ packed_ref).sum(dtype=np.int64))
    return total, n_eff


def _inter_percent(total: int, r: int, n_eff: int) -> float:
    """Inter-HD in percent from the distance total over the pairs of r
    devices, which must be at least two."""
    if r < 2:
        raise InvalidArgumentError("inter-HD needs at least 2 devices")
    return 200.0 * total / (r * (r - 1) * n_eff)


def inter_hd(signatures, mask: Optional[np.ndarray] = None) -> float:
    """Average pairwise Hamming distance between device signatures, in
    percent of the (effective) signature length.

    The pair total is exact and needs no pairwise pass: a kept position
    with c ones among r devices differs in c * (r - c) pairs, so
    sum_{u<v} HD(S_u, S_v) = sum_j c_j (r - c_j).
    """
    mat = _as_bit_matrix(signatures)
    r = mat.shape[0]
    mask, n_eff = _check_mask(mask, mat.shape[1])
    ones = mat.sum(axis=0, dtype=np.int64)
    if mask is not None:
        ones = ones[mask == 1]
    return _inter_percent(int(np.dot(ones, r - ones)), r, n_eff)


def inter_hd_details(signatures, mask: Optional[np.ndarray] = None):
    """inter_hd plus the integer histogram of raw pairwise distances, both
    from one pairwise pass, whose exact total is the closed-form one."""
    mat = _as_bit_matrix(signatures)
    packed, n_eff = _masked_pack(mat, mask)
    total, hist = kernels.pairwise_hd_stats(packed, n_eff)
    return _inter_percent(total, mat.shape[0], n_eff), hist


def intra_hd(reference, rereads, mask: Optional[np.ndarray] = None) -> float:
    """Average distance of one device's re-reads to its reference, in
    percent of the (effective) signature length."""
    ref = kernels.check_bits(reference, "reference")
    reads = _as_bit_matrix(rereads)
    if reads.shape[0] < 1:
        raise InvalidArgumentError("intra-HD needs at least one re-read")
    if ref.shape != (reads.shape[1],):
        raise InvalidArgumentError("reference length must match re-read length")
    total, n_eff = _intra_total(reads, ref, mask)
    return 100.0 * total / (reads.shape[0] * n_eff)


def mean_intra_hd(sigs: SignatureSet, golden: GoldenSignature) -> float:
    """Population mean of per-device intra-HD against the golden bits,
    honoring the signature set's mask. The golden must cover the same
    devices and positions."""
    check_golden(sigs, golden)
    d, t, _ = sigs.bits.shape
    total, n_eff = _intra_total(sigs.bits, golden.bits[:, None, :], sigs.mask)
    return 100.0 * total / (d * t * n_eff)


def check_bucket_width(bucket_width: float) -> None:
    if not (0 < bucket_width < np.inf and 100 / bucket_width < np.inf):
        raise InvalidArgumentError("bucket width and 100 / width must be positive and finite")


def _bucket(edges, counts, bucket_width: float) -> dict:
    """Nonzero count sums per bucket index k, keyed by sorted bucket lower
    edge k * w."""
    edges, inverse = np.unique(edges, return_inverse=True)
    sums = np.zeros(edges.size, dtype=np.int64)
    np.add.at(sums, inverse, counts)
    return {float(k) * bucket_width: int(c) for k, c in zip(edges.tolist(), sums) if c}


def hd_histogram(pairwise_percents: Sequence[float], bucket_width: float = 1.0) -> dict:
    """Counts per percent bucket [k*w, (k+1)*w); keys are bucket lower
    edges, values sum to the number of pairs. A percent p is filed under
    the largest k with k * w <= p, exactly, p and w read as their decimal
    repr: 0.3% lands in bucket 0.3 at w = 0.1.

    The pipeline builds its histogram from integer distance counts
    (`hd_histogram_from_counts`); this per-pair form stays as the
    reference those counts are tested against.
    """
    check_bucket_width(bucket_width)
    w = Fraction(repr(float(bucket_width)))
    return _bucket([Fraction(repr(float(p))) // w for p in pairwise_percents],
                   1, bucket_width)


def hd_histogram_from_counts(
    raw_hist: np.ndarray, n_eff: int, bucket_width: float = 1.0
) -> dict:
    """Same histogram built from the integer-distance counts that
    inter_hd_details returns (avoids materializing every pair). Distance h
    is filed under the largest k with k * w <= 100 h / n_eff, exactly, w
    read as its decimal repr: 3 of 1000 bits lands in bucket 0.3 at w = 0.1."""
    check_bucket_width(bucket_width)
    w = Fraction(repr(float(bucket_width)))
    edges = [100 * h * w.denominator // (n_eff * w.numerator) for h in range(len(raw_hist))]
    return _bucket(edges, raw_hist, bucket_width)


def robustness_sweep(
    population: DevicePopulation,
    calibration: NoiseCalibration,
    envs: Sequence[EnvironmentCondition],
    trials: int = 1,
    base_seed: int = 0,
):
    """Mean intra-HD at each environment against a golden enrolled with
    one trial at the calibration's reference environment.

    Reproducible: the enrollment seed and each sweep point's session seed
    are derived_seed(base_seed, key), key 0 for the enrollment and 1 + the
    point's position in envs.
    """
    def read(env, n_trials, key):
        session = ReadoutSession(env, trials=n_trials,
                                 session_seed=derived_seed(base_seed, key),
                                 calibration=calibration)
        return read_signatures(population, session)

    golden = enroll_golden(read(calibration.reference, 1, 0))
    return [(env, mean_intra_hd(read(env, trials, 1 + idx), golden))
            for idx, env in enumerate(envs)]


def compute_report(
    sigs: SignatureSet,
    golden: GoldenSignature,
    rows: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    bucket_width: float = 1.0,
) -> dict:
    """One session's metrics.json entry, as `pufsim run` and `pufsim
    metrics` write it. perfbench/spans.py rebinds this name.

    Inter-HD and its distance histogram both describe `rows` (default: the
    trial-0 rows; `run` passes the golden bits for the enrollment session)
    and come from one pairwise pass; the masked inter-HD uses the
    closed-form total. Intra-HD is against `golden`; the ones fraction is
    over trial 0. The unmasked figures cover every position, whatever mask
    `sigs` carries; only the "masked" entry applies `mask`.
    """
    trial0 = sigs.bits[:, 0, :]
    rows = trial0 if rows is None else rows
    percent, raw_hist = inter_hd_details(rows)
    histogram = hd_histogram_from_counts(raw_hist, rows.shape[1], bucket_width)
    entry = {
        "inter_hd_percent": percent,
        "intra_hd_percent": mean_intra_hd(SignatureSet(sigs.bits), golden),
        "ones_fraction": float(trial0.mean()),
        "hd_histogram": {f"{k:g}": v for k, v in histogram.items()},
    }
    if mask is not None:
        entry["masked"] = {
            "inter_hd_percent": inter_hd(rows, mask),
            "intra_hd_percent": mean_intra_hd(apply_mask(sigs, mask), golden),
            "effective_length": int(mask.sum()),
        }
    return entry
