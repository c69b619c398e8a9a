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
are independent of pair ordering or partitioning. The inter-HD total comes
in closed form from per-position one-counts; intra-HD and the pairwise
distance histogram XOR and popcount 64-bit words from `kernels.pack_bits`.
Masked positions are zeroed before packing and excluded from n.
"""

from __future__ import annotations

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
    apply_mask,
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
    if mask is None:
        return None, n
    mask = kernels.check_bits(mask, "mask")
    if mask.shape != (n,):
        raise InvalidArgumentError("mask length must equal signature length")
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise InvalidArgumentError("mask keeps zero positions")
    return mask, n_eff


def _masked_pack(bits: np.ndarray, mask: Optional[np.ndarray]):
    mask, n_eff = _check_mask(mask, bits.shape[-1])
    if mask is not None:
        bits = bits * mask  # zeroed positions drop out of every XOR
    return kernels.pack_bits(bits), n_eff


def _intra_total(reads: np.ndarray, ref: np.ndarray, mask: Optional[np.ndarray]):
    """Summed XOR-popcount distance of reads to ref (broadcast over the
    leading axes) and the kept length."""
    packed_reads, n_eff = _masked_pack(reads, mask)
    packed_ref, _ = _masked_pack(ref, mask)
    total = int(np.bitwise_count(packed_reads ^ packed_ref).sum(dtype=np.int64))
    return total, n_eff


def inter_hd(signatures, mask: Optional[np.ndarray] = None) -> float:
    """Average pairwise Hamming distance between device signatures, in
    percent of the (effective) signature length.

    The pair total is exact and needs no pairwise pass: a kept position
    with c ones among r devices differs in c * (r - c) pairs, so
    sum_{u<v} HD(S_u, S_v) = sum_j c_j (r - c_j).
    """
    mat = _as_bit_matrix(signatures)
    r = mat.shape[0]
    if r < 2:
        raise InvalidArgumentError("inter-HD needs at least 2 devices")
    mask, n_eff = _check_mask(mask, mat.shape[1])
    ones = mat.sum(axis=0, dtype=np.int64)
    if mask is not None:
        ones = ones[mask == 1]
    total = int(np.dot(ones, r - ones))
    return 200.0 * total / (r * (r - 1) * n_eff)


def inter_hd_details(signatures, mask: Optional[np.ndarray] = None):
    """inter_hd plus the integer histogram of raw pairwise distances."""
    mat = _as_bit_matrix(signatures)
    percent = inter_hd(mat, mask)
    packed, n_eff = _masked_pack(mat, mask)
    return percent, kernels.pairwise_hd_stats(packed, n_eff)[1]


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
    honoring the signature set's mask."""
    d, t, _ = sigs.bits.shape
    total, n_eff = _intra_total(sigs.bits, golden.bits[:, None, :], sigs.mask)
    return 100.0 * total / (d * t * n_eff)


def check_bucket_width(bucket_width: float) -> None:
    if not (bucket_width > 0):
        raise InvalidArgumentError("bucket width must be positive")


def _bucket(percents, counts, bucket_width: float) -> dict:
    """Nonzero count sums per percent bucket [k*w, (k+1)*w), keyed by
    sorted bucket lower edge."""
    check_bucket_width(bucket_width)
    edges = np.floor(np.asarray(percents, dtype=np.float64) / bucket_width)
    keys, inverse = np.unique(edges * bucket_width, return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, inverse, counts)
    return {float(k): int(c) for k, c in zip(keys, sums) if c}


def hd_histogram(pairwise_percents: Sequence[float], bucket_width: float = 1.0) -> dict:
    """Counts per percent bucket [k*w, (k+1)*w); keys are bucket lower
    edges, values sum to the number of pairs.

    The pipeline builds its histogram from integer distance counts
    (`hd_histogram_from_counts`); this per-pair form stays as the
    reference those counts are tested against.
    """
    return _bucket(pairwise_percents, 1, bucket_width)


def hd_histogram_from_counts(
    raw_hist: np.ndarray, n_eff: int, bucket_width: float = 1.0
) -> dict:
    """Same histogram built from the integer-distance counts that
    inter_hd_details returns (avoids materializing every pair)."""
    return _bucket(100.0 * np.arange(len(raw_hist)) / n_eff, raw_hist, bucket_width)


def robustness_sweep(
    population: DevicePopulation,
    calibration: NoiseCalibration,
    envs: Sequence[EnvironmentCondition],
    trials: int = 1,
    base_seed: int = 0,
    threads: int = 1,
):
    """Mean intra-HD at each environment against a golden enrolled with
    one trial at the calibration's reference environment.

    Reproducible: the enrollment seed and each sweep point's session seed
    are full 64-bit words of SeedSequence(base_seed, spawn_key=(key,)),
    key 0 for the enrollment and 1 + the point's position in envs.
    """
    def read(env, n_trials, key):
        ss = np.random.SeedSequence(base_seed, spawn_key=(key,))
        seed = ss.generate_state(1, dtype=np.uint64)[0]
        session = ReadoutSession(env, trials=n_trials, session_seed=int(seed),
                                 calibration=calibration)
        return read_signatures(population, session, threads=threads)

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
