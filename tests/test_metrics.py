"""Hamming-distance metrics against hand-computed and brute-force oracles.

Percent conventions under test: inter-HD is the mean over all unordered
device pairs of HD/n, in percent; intra-HD is the mean over re-reads of
HD(golden, re-read)/n, in percent. Both shrink n to the kept positions
when a mask is present.
"""

import itertools
import math

import numpy as np
import pytest

from pufsim.entropy import EnvironmentCondition, NoiseCalibration
from pufsim.errors import InvalidArgumentError
from pufsim.metrics import (
    compute_report,
    hd_histogram,
    hd_histogram_from_counts,
    inter_hd,
    inter_hd_details,
    intra_hd,
    mean_intra_hd,
    robustness_sweep,
)
from pufsim.population import PlacementConfig, PopulationSpec, generate_population
from pufsim.signature import SignatureSet, apply_mask, enroll_golden


def test_inter_hd_hand_oracle():
    rows = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=np.uint8)
    # pairwise distances 4, 2, 2 over n=4: mean fraction 8/12
    assert inter_hd(rows) == pytest.approx(100.0 * 8 / 12, abs=1e-12)


def test_intra_hd_hand_oracle():
    golden = np.array([0, 0, 0, 0], dtype=np.uint8)
    rereads = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=np.uint8)
    # distances 1 and 2 over n=4: mean fraction 3/8
    assert intra_hd(golden, rereads) == pytest.approx(37.5, abs=1e-12)


def test_inter_hd_extremes():
    same = np.zeros((4, 16), dtype=np.uint8)
    assert inter_hd(same) == 0.0
    opposite = np.stack([np.zeros(16, dtype=np.uint8), np.ones(16, dtype=np.uint8)])
    assert inter_hd(opposite) == 100.0


def test_inter_hd_brute_force_small_sets():
    rng = np.random.default_rng(2)
    for r, n in itertools.product((2, 3, 5), (1, 4, 8)):
        rows = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        acc = [
            np.sum(rows[i] != rows[j]) / n
            for i in range(r)
            for j in range(i + 1, r)
        ]
        want = 100.0 * float(np.mean(acc))
        assert inter_hd(rows) == pytest.approx(want, abs=1e-9)


def test_inter_hd_invariances():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2, size=(10, 50), dtype=np.uint8)
    base = inter_hd(rows)
    assert inter_hd(1 - rows) == pytest.approx(base, abs=1e-12)
    perm = rng.permutation(50)
    assert inter_hd(rows[:, perm]) == pytest.approx(base, abs=1e-12)
    perm_dev = rng.permutation(10)
    assert inter_hd(rows[perm_dev]) == pytest.approx(base, abs=1e-12)


def test_inter_hd_expectation_iid():
    # iid Bernoulli(p) rows: E[pairwise HD fraction] = 2 p (1 - p)
    rng = np.random.default_rng(4)
    for p in (0.5, 0.3):
        rows = (rng.random((120, 512)) < p).astype(np.uint8)
        want = 200.0 * p * (1 - p)
        assert inter_hd(rows) == pytest.approx(want, abs=0.6)


def test_inter_hd_respects_mask():
    rows = np.array([[0, 1, 0], [1, 1, 1]], dtype=np.uint8)
    # full: HD 2/3; keeping only the agreeing column: HD 0
    assert inter_hd(rows) == pytest.approx(200.0 / 3)
    assert inter_hd(rows, np.array([0, 1, 0])) == 0.0
    assert inter_hd(rows, np.array([1, 0, 1])) == 100.0
    # the closed-form total must equal the pairwise pass exactly, masked
    # or not, on sets large enough to span several packed words
    rng = np.random.default_rng(12)
    for d, n in ((50, 70), (64, 200), (3, 129)):
        rows = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
        mask = rng.integers(0, 2, size=n, dtype=np.uint8)
        mask[0] = 1
        assert inter_hd(rows) == inter_hd_details(rows)[0]
        assert inter_hd(rows, mask) == inter_hd_details(rows, mask)[0]


def test_inter_hd_argument_checks():
    with pytest.raises(InvalidArgumentError):
        inter_hd(np.zeros((1, 8), dtype=np.uint8))  # one device
    with pytest.raises(InvalidArgumentError):
        inter_hd(np.array([[0, 2]], dtype=np.uint8))  # non-binary
    with pytest.raises(InvalidArgumentError):
        inter_hd(np.zeros((3, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(InvalidArgumentError):
        inter_hd(np.zeros((3, 4), dtype=np.uint8), np.array([1, 2, 0, 1]))


def test_inter_hd_details_histogram():
    rows = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    percent, hist = inter_hd_details(rows)
    # distances: 1, 2, 1
    assert hist.tolist() == [0, 2, 1]
    assert percent == pytest.approx(100.0 * 4 / (3 * 2))


def test_mean_intra_hd_uses_mask():
    bits = np.zeros((2, 2, 4), dtype=np.uint8)
    bits[0, 1, 0] = 1  # one flip at position 0 of device 0, trial 1
    sigs = SignatureSet(bits)
    golden = enroll_golden(SignatureSet(bits[:, :1, :]))
    full = mean_intra_hd(sigs, golden)
    assert full == pytest.approx(100.0 * 1 / (2 * 2 * 4))
    masked = apply_mask(sigs, [0, 1, 1, 1])
    assert mean_intra_hd(masked, golden) == 0.0


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("t", [1, 5])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 1016])
def test_mean_intra_hd_matches_brute_force(n, t, masked):
    # word-boundary lengths, with and without a mask, against a boolean count
    rng = np.random.default_rng(n * 10 + t)
    d = 7
    bits = rng.integers(0, 2, size=(d, t, n), dtype=np.uint8)
    golden = enroll_golden(SignatureSet(rng.integers(0, 2, size=(d, 1, n),
                                                     dtype=np.uint8)))
    mask = None
    if masked:
        mask = rng.integers(0, 2, size=n, dtype=np.uint8)
        mask[rng.integers(n)] = 1  # keep at least one position
    keep = np.ones(n, dtype=bool) if mask is None else mask == 1
    diff = (bits != golden.bits[:, None, :])[:, :, keep]
    want = 100.0 * int(diff.sum()) / (d * t * int(keep.sum()))
    assert mean_intra_hd(SignatureSet(bits, mask), golden) == want
    for dev in range(d):
        assert intra_hd(golden.bits[dev], bits[dev], mask) == (
            100.0 * int(diff[dev].sum()) / (t * int(keep.sum()))
        )


def test_hd_histogram_buckets():
    hist = hd_histogram([0.4, 1.2, 1.6, 49.9, 50.0], bucket_width=1.0)
    assert hist == {0.0: 1, 1.0: 2, 49.0: 1, 50.0: 1}
    hist = hd_histogram([0.4, 1.2], bucket_width=0.5)
    assert hist == {0.0: 1, 1.0: 1}
    with pytest.raises(InvalidArgumentError):
        hd_histogram([1.0], bucket_width=0.0)


def test_hd_histogram_from_counts_equivalent():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 2, size=(12, 64), dtype=np.uint8)
    percent, raw = inter_hd_details(rows)
    pairs = [
        100.0 * np.sum(rows[i] != rows[j]) / 64
        for i in range(12)
        for j in range(i + 1, 12)
    ]
    assert hd_histogram_from_counts(raw, 64, 2.0) == hd_histogram(pairs, 2.0)


# -- sweep and report ---------------------------------------------------------------

def _flat_population(devices, cells, seed):
    placement = PlacementConfig("flat", cells, 1, (0,) * cells, ())
    return generate_population(
        PopulationSpec(
            num_devices=devices,
            cells_per_device=cells,
            sigma_mismatch=0.25,
            weights=(0.0, 0.0, 1.0),
            placement=placement,
            master_seed=seed,
        )
    )


def test_robustness_sweep_nominal_is_exact_zero():
    pop = _flat_population(20, 64, 9)
    cal = NoiseCalibration(
        sigma_mismatch=0.25,
        reference=EnvironmentCondition(25.0, 1.0),
        temperature_anchors=((0.0, 0.08), (25.0, 0.0), (85.0, 0.16)),
    )
    results = robustness_sweep(pop, cal, [EnvironmentCondition(25.0, 1.0)],
                               trials=3, base_seed=100)
    assert results[0][1] == 0.0


def test_robustness_sweep_tracks_target_ber():
    pop = _flat_population(150, 64, 10)
    cal = NoiseCalibration(
        sigma_mismatch=0.25,
        reference=EnvironmentCondition(25.0, 1.0),
        temperature_anchors=((0.0, 0.08), (25.0, 0.0), (85.0, 0.16)),
    )
    envs = [
        EnvironmentCondition(25.0, 1.0),
        EnvironmentCondition(0.0, 1.0),
        EnvironmentCondition(85.0, 1.0),
    ]
    results = robustness_sweep(pop, cal, envs, trials=2, base_seed=5)
    intra = [v for _, v in results]
    assert intra[0] == 0.0
    samples = 150 * 64 * 2
    for got, ber in zip(intra[1:], (0.08, 0.16)):
        se = 100.0 * math.sqrt(ber * (1 - ber) / samples)
        assert abs(got - 100.0 * ber) < 3 * se
    assert intra[0] < intra[1] < intra[2]


def test_compute_report_fields():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(6, 2, 32), dtype=np.uint8)
    sigs = SignatureSet(bits)
    golden = enroll_golden(sigs)
    entry = compute_report(sigs, golden, bucket_width=5.0)
    assert set(entry) == {"inter_hd_percent", "intra_hd_percent",
                          "ones_fraction", "hd_histogram"}
    # rows default to trial 0; the histogram counts every device pair
    assert entry["inter_hd_percent"] == inter_hd(bits[:, 0, :])
    assert sum(entry["hd_histogram"].values()) == 6 * 5 // 2
    assert entry["intra_hd_percent"] == mean_intra_hd(sigs, golden)
    on_golden = compute_report(sigs, golden, golden.bits, bucket_width=5.0)
    assert on_golden["inter_hd_percent"] == inter_hd(golden.bits)
    assert sum(on_golden["hd_histogram"].values()) == 6 * 5 // 2

    # "masked" is present exactly when a mask is given
    mask = np.zeros(32, dtype=np.uint8)
    mask[::2] = 1
    masked = compute_report(sigs, golden, mask=mask, bucket_width=5.0)
    assert set(masked) == set(entry) | {"masked"}
    assert masked["masked"] == {
        "inter_hd_percent": inter_hd(bits[:, 0, :], mask),
        "intra_hd_percent": mean_intra_hd(apply_mask(sigs, mask), golden),
        "effective_length": 16,
    }
    # the unmasked figures ignore the set's own mask
    assert {k: v for k, v in masked.items() if k != "masked"} == entry
    assert compute_report(apply_mask(sigs, mask), golden, bucket_width=5.0) == entry


def test_ones_fraction_and_colormap():
    # the ones fraction covers trial 0 only: 5 of 8 here, 9 of 16 overall
    bits = np.array([[[1, 0, 1, 0], [1, 1, 1, 1]],
                     [[1, 1, 1, 0], [0, 0, 0, 0]]], dtype=np.uint8)
    sigs = SignatureSet(bits)
    golden = enroll_golden(sigs)
    entry = compute_report(sigs, golden)
    assert entry["ones_fraction"] == pytest.approx(5 / 8)
    # the default rows are the (devices, n) trial-0 grid, not a later trial
    assert entry == compute_report(sigs, golden, bits[:, 0, :])
    assert entry["inter_hd_percent"] == pytest.approx(100.0 / 4)
    assert entry != compute_report(sigs, golden, bits[:, 1, :])
