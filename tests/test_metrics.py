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
from scipy.special import ndtr

from pufsim import kernels
from pufsim.entropy import EnvironmentCondition, NoiseCalibration, noise_sigma_at
from pufsim.errors import InvalidArgumentError
from pufsim.metrics import (
    _masked_pack,
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
from pufsim.signature import (
    SignatureSet,
    apply_mask,
    eliminate_biased_positions,
    enroll_golden,
)


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
    for fn in (inter_hd, inter_hd_details):
        with pytest.raises(InvalidArgumentError):
            fn(np.zeros((1, 8), dtype=np.uint8))  # one device
        with pytest.raises(InvalidArgumentError):
            fn(np.array([[0, 2]], dtype=np.uint8))  # non-binary
        with pytest.raises(InvalidArgumentError):
            fn(np.zeros((3, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        with pytest.raises(InvalidArgumentError):
            fn(np.zeros((3, 4), dtype=np.uint8), np.array([1, 2, 0, 1]))


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


@pytest.mark.parametrize("lead", [(), (6,), (6, 3)])
@pytest.mark.parametrize("n", [13, 64, 1016, 1024])
def test_masked_pack_equals_packing_the_masked_bits(n, lead):
    rng = np.random.default_rng(n + len(lead))
    bits = rng.integers(0, 2, size=lead + (n,), dtype=np.uint8)
    mask = rng.integers(0, 2, size=n, dtype=np.uint8)
    mask[0] = 1
    packed, n_eff = _masked_pack(bits, mask)
    assert n_eff == int(mask.sum())
    assert packed.dtype == np.uint64 and packed.shape == lead + (-(-n // 64),)
    assert np.array_equal(packed, kernels.pack_bits(bits * mask))
    assert np.array_equal(_masked_pack(bits, None)[0], kernels.pack_bits(bits))


@pytest.mark.parametrize("devices, n", [(1, 64), (10, 60), (7, 64)])
def test_golden_of_another_shape_is_refused(devices, n):
    # a 1-device golden used to be broadcast over all ten devices, a 60-bit
    # one scored without error, and a 7-device one hit numpy's broadcast
    rng = np.random.default_rng(devices * n)
    sigs = SignatureSet(rng.integers(0, 2, size=(10, 3, 64), dtype=np.uint8))
    golden = enroll_golden(SignatureSet(
        rng.integers(0, 2, size=(devices, 3, n), dtype=np.uint8)))
    for call in (lambda: mean_intra_hd(sigs, golden),
                 lambda: compute_report(sigs, golden),
                 lambda: eliminate_biased_positions(sigs, golden=golden)):
        with pytest.raises(InvalidArgumentError) as err:
            call()
        assert f"({devices}, {n})" in str(err.value) and "(10, 64)" in str(err.value)


def test_hd_histogram_buckets():
    hist = hd_histogram([0.4, 1.2, 1.6, 49.9, 50.0], bucket_width=1.0)
    assert hist == {0.0: 1, 1.0: 2, 49.0: 1, 50.0: 1}
    hist = hd_histogram([0.4, 1.2], bucket_width=0.5)
    assert hist == {0.0: 1, 1.0: 1}
    with pytest.raises(InvalidArgumentError):
        hd_histogram([1.0], bucket_width=0.0)


def test_hd_histogram_from_counts_equivalent():
    # at widths 0.1 and 0.2 a float floor(p / w) filed 0.3% under "0.2"
    rng = np.random.default_rng(6)
    for n, width in ((64, 2.0), (1000, 0.1), (1000, 0.2)):
        rows = rng.integers(0, 2, size=(12, n), dtype=np.uint8)
        rows[1] = rows[0]
        rows[2] = rows[0]
        rows[2, :3] ^= 1  # 3 bits from row 0: 0.3% of 1000 bits
        percent, raw = inter_hd_details(rows)
        pairs = [
            100.0 * np.sum(rows[i] != rows[j]) / n
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        assert hd_histogram_from_counts(raw, n, width) == hd_histogram(pairs, width), (
            n, width)


@pytest.mark.parametrize("width, per", [(0.1, 1), (0.2, 2), (0.5, 5), (1.0, 10)])
def test_hd_histogram_from_counts_files_each_distance_exactly(width, per):
    # one pair at each distance of 1000 bits: h is h / 10 percent, so
    # bucket k = h // per holds exactly distances k * per .. k * per + per - 1;
    # floor(0.3 / 0.1) is 2 in floating point, which put 0.3% under "0.2"
    raw = np.ones(1001, dtype=np.int64)
    want = {}
    for h in range(1001):
        key = float(h // per) * width
        want[key] = want.get(key, 0) + 1
    assert hd_histogram_from_counts(raw, 1000, width) == want
    three = np.zeros(1001, dtype=np.int64)
    three[3] = 1
    key, = hd_histogram_from_counts(three, 1000, width)
    assert f"{key:g}" == f"{3 // per * width:g}"


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


def test_robustness_sweep_seeds_are_full_64_bit_words(monkeypatch):
    # the enrollment read takes key 0 and sweep point i key 1 + i, each one
    # uint64 word of SeedSequence(base_seed, spawn_key=(key,))
    import pufsim.metrics as metrics_module

    seeds = []
    read = metrics_module.read_signatures

    def recording_read(population, session):
        seeds.append(session.session_seed)
        return read(population, session)

    monkeypatch.setattr(metrics_module, "read_signatures", recording_read)
    pop = _flat_population(4, 16, 3)
    cal = NoiseCalibration(
        sigma_mismatch=0.25,
        reference=EnvironmentCondition(25.0, 1.0),
        temperature_anchors=((25.0, 0.0), (85.0, 0.16)),
    )
    envs = [EnvironmentCondition(25.0, 1.0), EnvironmentCondition(85.0, 1.0)]
    robustness_sweep(pop, cal, envs, base_seed=11)
    want = [int(np.random.SeedSequence(11, spawn_key=(key,))
                .generate_state(1, dtype=np.uint64)[0]) for key in range(3)]
    assert seeds == want
    assert max(seeds) >= 2**32


def test_robustness_sweep_tracks_target_ber():
    # The golden is the noiseless sign of each margin m, so a re-read bit
    # flips with probability q = Phi(-|m| / sigma_n) at its cell. Two
    # checks, each at three standard errors:
    # (a) the realized flip rate against expected = mean q over the cells:
    #     its count sums t Bernoulli(q) per cell, variance t * sum q(1 - q);
    # (b) expected against the calibration's target, the mean of q over
    #     the mismatch distribution, of which the cells are one sample:
    #     standard error sqrt(Var(q) / cells).
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
    trials = 2
    results = robustness_sweep(pop, cal, envs, trials=trials, base_seed=5)
    intra = [v for _, v in results]
    assert intra[0] == 0.0
    margin = np.abs(pop.mismatch).ravel()
    cells = margin.size
    for env, got, ber in zip(envs[1:], intra[1:], (0.08, 0.16)):
        q = ndtr(-margin / noise_sigma_at(cal, env))
        expected = float(q.mean())
        realized_se = math.sqrt(trials * float((q * (1 - q)).sum())) / (trials * cells)
        assert abs(got / 100.0 - expected) < 3 * realized_se
        assert abs(expected - ber) < 3 * math.sqrt(float(q.var()) / cells)
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
