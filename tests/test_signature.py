"""Readout, enrollment, bias elimination, masking, and signature IO.

Statistical checks compare empirical flip rates against the calibrated
target within 3 standard errors; structural checks (ties, masks, file
round-trips) are exact.
"""

import math
import struct

import numpy as np
import pytest
from scipy.special import ndtr

from pufsim.entropy import EnvironmentCondition, NoiseCalibration
from pufsim.errors import EmptySignatureError, InvalidArgumentError
from pufsim.population import (
    PlacementConfig,
    PopulationSpec,
    generate_population,
    inject_position_bias,
    keyed_philox,
)
from pufsim import signature
from pufsim.signature import (
    ReadoutSession,
    SignatureSet,
    apply_mask,
    eliminate_biased_positions,
    enroll_golden,
    noise_stream,
    read_signatures,
)

REF = EnvironmentCondition(25.0, 1.0)


def _population(devices=200, cells=64, seed=31):
    w, h = 8, cells // 8
    placement = PlacementConfig("flat", w, h, (0,) * cells, ())
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


def _calibration(coupling=0.0):
    return NoiseCalibration(
        sigma_mismatch=0.25,
        reference=REF,
        temperature_anchors=((25.0, 0.0), (85.0, 0.1589)),
        bias_noise_coupling=coupling,
    )


def _session(trials=1, seed=7, target_ber=None, env=REF, coupling=0.0):
    return ReadoutSession(
        env=env,
        trials=trials,
        session_seed=seed,
        calibration=_calibration(coupling),
        target_ber=target_ber,
    )


# -- readout -------------------------------------------------------------------

def test_zero_noise_trials_identical_and_match_mismatch_sign():
    pop = _population(devices=20)
    sigs = read_signatures(pop, _session(trials=3))
    want = (pop.mismatch > 0).astype(np.uint8)
    for t in range(3):
        assert np.array_equal(sigs.bits[:, t, :], want)


def test_readout_deterministic_and_seed_sensitive():
    pop = _population(devices=13)
    a = read_signatures(pop, _session(trials=2, target_ber=0.05, seed=3))
    b = read_signatures(pop, _session(trials=2, target_ber=0.05, seed=3))
    assert np.array_equal(a.bits, b.bits)
    d = read_signatures(pop, _session(trials=2, target_ber=0.05, seed=4))
    assert not np.array_equal(a.bits, d.bits)


def _brute_force_bits(pop, session):
    """u32 < ndtr(x) * 2**32 for every draw, with the draws read straight
    from the session's Philox words: row (device, trial) is the low then
    high halves of the raw words from counter block (device * t + trial) *
    ceil(n / 8), its first n uniforms kept."""
    d, t, n = pop.num_devices, session.trials, pop.cells_per_device
    cal = session.calibration
    sigma = session.noise_sigma() * (
        1.0 + cal.bias_noise_coupling * np.abs(pop.bias_offsets) / cal.sigma_mismatch)
    x = (pop.mismatch + pop.bias_offsets) / sigma
    width = 8 * -(-n // 8)
    words = keyed_philox(session.session_seed, signature._TAG_READOUT)
    u = words.random_raw(d * t * width // 2).view(np.uint32).reshape(d, t, width)
    return (u[:, :, :n] < ndtr(x)[:, None, :] * 2.0**32).astype(np.uint8)


def test_readout_invariant_to_range_size(monkeypatch):
    # odd n leaves half of a row's last raw word as padding; coupling makes
    # sigma_eff vary. BER 1e-4 puts most cells in saturated buckets, 0.45
    # most draws inside their bracket.
    for n in (13, 63, 65):
        pop = generate_population(PopulationSpec(
            num_devices=37, cells_per_device=n, sigma_mismatch=0.25,
            weights=(0.0, 0.0, 1.0),
            placement=PlacementConfig("row", n, 1, (0,) * n, ()),
            master_seed=5, bias_map={(0, 3): 0.1}))
        width = 8 * -(-n // 8)
        for trials, ber in ((3, 0.1), (1, 1e-4), (5, 1e-4), (1, 0.45), (5, 0.45)):
            session = _session(trials=trials, target_ber=ber, seed=61, coupling=2.0)
            want = _brute_force_bits(pop, session).tobytes()
            # one device, five, all devices per range
            for values in (1, trials * width * 5, 10**9):
                monkeypatch.setattr(signature, "_RANGE_VALUES", values)
                got = read_signatures(pop, session).bits.tobytes()
                assert got == want, (n, trials, ber, values)


def _grid_edges():
    return signature._GRID_LO + np.arange(signature._GRID_POINTS) / signature._GRID_STEPS


def test_phi_table_brackets_ndtr_on_every_bucket():
    lo = signature._LO32.astype(np.float64)
    top = signature._HIM1.astype(np.float64) + 1  # exclusive upper bound
    assert signature._LO32.dtype == signature._HIM1.dtype == np.uint32
    assert np.all(np.diff(lo) >= 0) and np.all(np.diff(top) >= 0)
    # a bracket is never empty and is narrower than 2**32, so a draw's
    # offset from its low end fits in 32 bits
    assert np.all(lo < top) and np.all(top - lo < 2.0**32)
    edges = _grid_edges()
    rng = np.random.default_rng(12)
    # bucket b holds [x_(b-1), x_b); both edges and 64 interior points each
    left, right = edges[:-1, None], edges[1:, None]
    x = np.hstack([left, right, left + rng.random((left.size, 64)) / signature._GRID_STEPS])
    scaled = ndtr(x) * 2.0**32
    assert np.all(lo[1:-1, None] <= scaled) and np.all(scaled <= top[1:-1, None])
    below = np.concatenate([[-np.inf, -40.0, edges[0]], rng.uniform(-40, edges[0], 64)])
    above = np.concatenate([[np.inf, 40.0, edges[-1]], rng.uniform(edges[-1], 40, 64)])
    assert lo[0] == 0 and np.all(ndtr(below) * 2.0**32 <= top[0])
    assert top[-1] == 2.0**32 and np.all(ndtr(above) * 2.0**32 >= lo[-1])


def _adversarial_cells(rng):
    """x at every grid edge, one ulp either side of it, beyond +-9 up to
    where ndtr underflows, and at random."""
    edges = _grid_edges()
    return np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-40.0, -38.5, -37.6, -20.0, -9.5, -0.0, 0.0, 9.5, 20.0, 40.0],
        np.nextafter([-9.0, 9.0], [-np.inf, np.inf]),
        rng.uniform(-40, 40, 200), rng.standard_normal(200),
    ])


@pytest.mark.parametrize("trials", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 13, 63, 64, 65])
def test_bracketed_resolve_equals_ndtr_threshold(trials, n):
    rng = np.random.default_rng(1000 * trials + n)
    cells = _adversarial_cells(rng)
    # 32-bit draws: 0, 1, ndtr(x) * 2**32 rounded down, one below that and
    # rounded up, 2**32 - 1, and random; each cell meets every kind across
    # its copies and trials
    scaled = ndtr(cells) * 2.0**32
    kinds = np.clip(np.stack([
        np.zeros_like(cells), np.ones_like(cells), np.floor(scaled) - 1,
        np.floor(scaled), np.ceil(scaled), np.full_like(cells, 2.0**32 - 1),
        rng.integers(0, 2**32, cells.size).astype(np.float64),
    ]), 0, 2.0**32 - 1).astype(np.uint32)
    k = len(kinds)
    x = np.tile(cells, k)
    kind = np.repeat(np.arange(k), cells.size)
    rows = -(-x.size // n)
    pad = rows * n - x.size
    x = np.concatenate([x, rng.standard_normal(pad)]).reshape(rows, n)
    kind = np.concatenate([kind, np.zeros(pad, int)]).reshape(rows, n)
    index = np.concatenate([np.tile(np.arange(cells.size), k),
                            np.zeros(pad, int)]).reshape(rows, n)
    # rows padded to whole counter blocks of 8 uniforms; padding draws
    # must not matter
    w = 8 * -(-n // 8)
    u = rng.integers(0, 2**32, (rows, trials, w), dtype=np.uint32)
    for trial in range(trials):
        u[:, trial, :n] = kinds[(kind + trial) % k, index]
    want = (u[:, :, :n] < ndtr(x)[:, None, :] * 2.0**32).astype(np.uint8)
    out = np.empty((rows, trials, n), dtype=np.uint8)
    signature._resolve(x, u, out)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("inside", [False, True])
def test_resolve_evaluates_only_cells_with_a_bracketed_draw(inside, monkeypatch):
    # one cell in the middle of each bucket, so its bucket is unambiguous;
    # every draw lands inside its cell's bracket, or none does
    edges = _grid_edges()
    cells = np.concatenate([[-40.0], (edges[:-1] + edges[1:]) / 2, [40.0]])
    lo = signature._LO32.astype(np.int64)
    top = signature._HIM1.astype(np.int64) + 1
    rng = np.random.default_rng(77 + inside)
    trials, rows = 3, 2
    if inside:
        low, high = lo, top
    else:
        # below the bracket where it leaves room, else above it
        low, high = np.where(lo > 0, 0, top), np.where(lo > 0, lo, 2**32)
    draws = rng.integers(low, high, (trials, cells.size))
    n = cells.size // rows
    x = cells.reshape(rows, n)
    u = rng.integers(0, 2**32, (rows, trials, 8 * -(-n // 8)), dtype=np.uint32)
    u[:, :, :n] = draws.reshape(trials, rows, n).transpose(1, 0, 2)
    want = (u[:, :, :n] < ndtr(x)[:, None, :] * 2.0**32).astype(np.uint8)
    evaluated = []

    def counted_ndtr(values, *args, **kwargs):
        evaluated.append(values.size)
        return ndtr(values, *args, **kwargs)

    monkeypatch.setattr(signature, "ndtr", counted_ndtr)
    out = np.empty((rows, trials, n), dtype=np.uint8)
    signature._resolve(x, u, out)
    assert np.array_equal(out, want)
    assert sum(evaluated) == (cells.size if inside else 0)


def test_noise_stream_is_the_row_slice():
    pop = _population(devices=9, cells=64)
    session = _session(trials=4, target_ber=0.2, seed=73)
    sigs = read_signatures(pop, session)
    sigma = session.noise_sigma()
    for dev, trial in ((0, 0), (0, 3), (5, 1), (8, 3)):
        u = noise_stream(73, dev, trial, 4, 64).random_raw(32).view(np.uint32)
        p = ndtr((pop.mismatch[dev] + pop.bias_offsets) / sigma)
        assert np.array_equal(sigs.bits[dev, trial], (u < p * 2.0**32).astype(np.uint8))
    # the whole session is one contiguous draw of 8-block rows, two
    # uniforms per raw word, low half first
    words = np.random.Philox(key=[73, signature._TAG_READOUT]).random_raw(9 * 4 * 32)
    u = words.view(np.uint32).reshape(9, 4, 64)
    assert np.array_equal(u[5, 1, ::2], (words.reshape(9, 4, 32)[5, 1] & 0xFFFFFFFF))
    assert np.array_equal(noise_stream(73, 5, 1, 4, 64).random_raw(32).view(np.uint32),
                          u[5, 1])
    # n = 13 pads each row to 16 uniforms
    assert np.array_equal(noise_stream(73, 5, 1, 4, 13).random_raw(8),
                          words.reshape(-1, 8)[5 * 4 + 1])


def test_noiseless_readout_is_the_margin_sign():
    pop = _population(devices=30)
    # device 0's margin at position 0 is exactly zero and must read 0
    pop = inject_position_bias(pop, {(0, 0): -float(pop.mismatch[0, 0]),
                                     (1, 2): 0.05})
    margin = pop.mismatch + pop.bias_offsets
    assert margin[0, 0] == 0.0
    sigs = read_signatures(pop, _session(trials=2, coupling=2.0))
    want = (margin > 0).astype(np.uint8)
    assert np.array_equal(sigs.bits, np.repeat(want[:, None, :], 2, axis=1))
    assert sigs.bits[0, 0, 0] == 0


def test_session_seed_must_fit_the_key():
    with pytest.raises(InvalidArgumentError):
        _session(seed=2**64)
    with pytest.raises(InvalidArgumentError):
        _session(seed=-1)
    # an integer of any kind up to 2**64 - 1; never a truncated float
    assert _session(seed=np.uint64(2**64 - 1)).session_seed == 2**64 - 1
    for seed in (1.5, "7", True):
        with pytest.raises(InvalidArgumentError):
            _session(seed=seed)


def test_readout_key_is_the_exact_session_seed():
    # paper-sim's enroll session; as a float64 it would be ...829952
    seed = 12609499769784830095
    key = noise_stream(seed, 0, 0, 1, 64).state["state"]["key"]
    assert [int(k) for k in key] == [seed, signature._TAG_READOUT]
    pop = _population(devices=4)
    for s in (2**63, seed, 2**64 - 2):
        a = read_signatures(pop, _session(target_ber=0.2, seed=s)).bits
        b = read_signatures(pop, _session(target_ber=0.2, seed=s + 1)).bits
        assert all(not np.array_equal(a[dev], b[dev]) for dev in range(4)), s


def test_ones_fraction_near_half():
    pop = _population(devices=400, cells=256, seed=8)
    sigs = read_signatures(pop, _session())
    frac = float(sigs.bits.mean())
    assert abs(frac - 0.5) < 0.02


@pytest.mark.parametrize("ber", [0.0307, 0.1])
def test_flip_rate_matches_target(ber):
    pop = _population(devices=200)
    golden = (pop.mismatch > 0).astype(np.uint8)
    sigs = read_signatures(pop, _session(trials=3, target_ber=ber, seed=17))
    flips = np.mean(sigs.bits != golden[:, None, :])
    samples = sigs.bits.size
    se = math.sqrt(ber * (1 - ber) / samples)
    assert abs(flips - ber) < 3 * se


def test_flip_rate_from_environment_lookup():
    pop = _population(devices=200)
    golden = (pop.mismatch > 0).astype(np.uint8)
    sigs = read_signatures(
        pop, _session(trials=3, env=EnvironmentCondition(85.0, 1.0), seed=23)
    )
    flips = np.mean(sigs.bits != golden[:, None, :])
    se = math.sqrt(0.1589 * (1 - 0.1589) / sigs.bits.size)
    assert abs(flips - 0.1589) < 3 * se


def test_trial_to_trial_distance():
    # Per-cell flip odds depend on |mismatch|, so two trials disagree with
    # probability arccos(rho)/pi, rho = cos^2(pi b), not the homogeneous
    # 2 b (1 - b).  The two readouts are jointly normal with correlation rho.
    ber = 0.0307
    pop = _population(devices=400, seed=12)
    sigs = read_signatures(pop, _session(trials=2, target_ber=ber, seed=29))
    rate = np.mean(sigs.bits[:, 0, :] != sigs.bits[:, 1, :])
    want = math.acos(math.cos(math.pi * ber) ** 2) / math.pi
    se = math.sqrt(want * (1 - want) / (400 * 64))
    assert abs(rate - want) < 3 * se


def test_biased_positions_are_noisier_when_coupled():
    pop = _population(devices=500, seed=41)
    biased = inject_position_bias(pop, {(0, 0): 0.125})  # +0.5 sigma at cell 0
    golden = ((biased.mismatch + biased.bias_offsets) > 0).astype(np.uint8)
    sigs = read_signatures(
        biased, _session(trials=8, target_ber=0.03, seed=43, coupling=2.0)
    )
    flips = (sigs.bits != golden[:, None, :]).mean(axis=(0, 1))
    assert flips[0] > flips[1:].mean() + 0.01


def test_coupling_zero_leaves_noise_uniform():
    pop = _population(devices=500, seed=41)
    biased = inject_position_bias(pop, {(0, 0): 0.125})
    golden = ((biased.mismatch + biased.bias_offsets) > 0).astype(np.uint8)
    sigs = read_signatures(
        biased, _session(trials=8, target_ber=0.03, seed=43, coupling=0.0)
    )
    flips = (sigs.bits != golden[:, None, :]).mean(axis=(0, 1))
    se = math.sqrt(0.03 * 0.97 / (500 * 8))
    assert abs(flips[0] - 0.03) < 3 * se


def test_session_validation():
    with pytest.raises(InvalidArgumentError):
        _session(trials=0)
    with pytest.raises(InvalidArgumentError):
        _session(target_ber=0.5).noise_sigma()


# -- enrollment ------------------------------------------------------------------

def test_enroll_majority_vote():
    bits = np.zeros((1, 3, 4), dtype=np.uint8)
    bits[0, :, 0] = (1, 1, 0)  # majority 1
    bits[0, :, 1] = (0, 1, 0)  # majority 0
    bits[0, :, 2] = (1, 1, 1)
    golden = enroll_golden(SignatureSet(bits))
    assert golden.bits[0].tolist() == [1, 0, 1, 0]
    assert golden.stability[0].tolist() == [2 / 3, 2 / 3, 1.0, 1.0]


def test_enroll_tie_takes_trial_zero():
    bits = np.zeros((2, 2, 2), dtype=np.uint8)
    bits[0, :, 0] = (1, 0)  # tie, trial 0 says 1
    bits[0, :, 1] = (0, 1)  # tie, trial 0 says 0
    bits[1, :, 0] = (1, 1)
    golden = enroll_golden(SignatureSet(bits))
    assert golden.bits[0].tolist() == [1, 0]
    assert golden.bits[1, 0] == 1
    assert golden.stability[0, 0] == 0.5


def test_enroll_single_trial_is_identity():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(5, 1, 16), dtype=np.uint8)
    golden = enroll_golden(SignatureSet(bits))
    assert np.array_equal(golden.bits, bits[:, 0, :])
    assert np.all(golden.stability == 1.0)


def test_enroll_noiseless_is_idempotent():
    pop = _population(devices=10)
    sigs = read_signatures(pop, _session(trials=5))
    golden = enroll_golden(sigs)
    assert np.array_equal(golden.bits, sigs.bits[:, 0, :])
    assert np.all(golden.stability == 1.0)


def _enroll_reference(bits):
    """Majority vote in int64 with nested wheres, ties to trial 0."""
    t = bits.shape[1]
    counts = bits.sum(axis=1, dtype=np.int64)
    golden = np.where(counts * 2 > t, 1, np.where(counts * 2 == t, bits[:, 0, :], 0))
    return golden, np.where(golden == 1, counts, t - counts)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 255, 256])
def test_enroll_matches_reference_formula(t):
    rng = np.random.default_rng(t)
    d, n = 6, 40
    bits = rng.integers(0, 2, size=(d, t, n), dtype=np.uint8)
    if t % 2 == 0:
        # exact ties at the first n/2 positions, trial 0 shuffled either way
        tie = (np.arange(t) < t // 2).astype(np.uint8)
        for dev in range(d):
            for pos in range(n // 2):
                bits[dev, :, pos] = rng.permutation(tie)
        assert set(bits[:, 0, :n // 2].ravel().tolist()) == {0, 1}
    golden = enroll_golden(SignatureSet(bits))
    want_bits, want_counts = _enroll_reference(bits)
    assert golden.bits.dtype == np.uint8
    assert golden.counts.dtype == signature.count_dtype(t)
    assert np.array_equal(golden.bits, want_bits)
    assert np.array_equal(golden.counts, want_counts)
    assert np.array_equal(golden.stability, want_counts / t)


# -- bias elimination ---------------------------------------------------------------

def _column_set(cols):
    """Devices x 1 trial x n bits built column-wise from per-device tuples."""
    n = len(cols)
    d = len(cols[0])
    bits = np.zeros((d, 1, n), dtype=np.uint8)
    for j, col in enumerate(cols):
        bits[:, 0, j] = col
    return SignatureSet(bits)


def test_eliminate_biased_columns():
    sigs = _column_set([
        (1, 1, 1, 1),  # stuck at 1 -> eliminated
        (0, 0, 0, 0),  # stuck at 0 -> eliminated
        (1, 0, 1, 0),  # balanced -> kept
        (1, 1, 1, 0),  # 0.75 ones: inside the default 0.3 band -> kept
    ])
    mask = eliminate_biased_positions(sigs)
    assert mask.tolist() == [0, 0, 1, 1]
    # tighter threshold also removes the 0.75 column
    mask = eliminate_biased_positions(sigs, bias_threshold=0.2)
    assert mask.tolist() == [0, 0, 1, 0]


def test_eliminate_unstable_columns():
    # column 0 flips on every trial (stability 0.5); column 1 is solid
    bits = np.zeros((2, 4, 2), dtype=np.uint8)
    bits[:, :, 0] = [[0, 1, 0, 1], [1, 0, 1, 0]]
    bits[:, :, 1] = 1
    mask = eliminate_biased_positions(SignatureSet(bits), bias_threshold=0.5)
    assert mask.tolist() == [0, 1]


def test_eliminate_or_combines_both_rules():
    bits = np.zeros((2, 2, 3), dtype=np.uint8)
    bits[:, :, 0] = 1              # biased, stable
    bits[:, :, 1] = [[0, 1], [1, 0]]  # balanced, unstable
    bits[0, :, 2] = 1              # balanced, stable
    mask = eliminate_biased_positions(SignatureSet(bits))
    assert mask.tolist() == [0, 0, 1]


def test_eliminate_empty_result_raises():
    sigs = _column_set([(1, 1, 1, 1), (0, 0, 0, 0)])
    with pytest.raises(EmptySignatureError):
        eliminate_biased_positions(sigs)


def _stability_mask(counts, t, threshold):
    """Reference keep-mask of the stability rule in Python integers: a
    column of agreement total S over d devices is dropped when S / (t * d)
    < threshold."""
    d = len(counts)
    return [int(not sum(col) / (t * d) < threshold) for col in zip(*counts)]


def _stability_rule_mask(counts, t, threshold):
    """eliminate_biased_positions on a golden with these counts, whose
    bits alternate down each column so that the bias rule keeps all."""
    d, n = counts.shape
    bits = np.zeros((d, n), dtype=np.uint8)
    bits[::2] = 1
    golden = signature.GoldenSignature(bits, counts.astype(signature.count_dtype(t)), t)
    sigs = SignatureSet(np.zeros((d, 1, n), dtype=np.uint8))
    return eliminate_biased_positions(sigs, stability_threshold=threshold,
                                      golden=golden).tolist()


@pytest.mark.parametrize("d, n, t", [(97, 1, 3), (97, 2, 5), (200, 64, 4),
                                     (61, 1024, 255), (10, 37, 256)])
def test_stability_rule_uses_the_exact_column_mean(d, n, t):
    # the threshold is one column's exact mean, so that column ties
    rng = np.random.default_rng(d * n + t)
    for _ in range(20):
        counts = rng.integers(-(-t // 2), t + 1, size=(d, n))
        rows = counts.tolist()
        column = rng.integers(n)
        threshold = sum(row[column] for row in rows) / (t * d)
        assert _stability_rule_mask(counts, t, threshold) == \
            _stability_mask(rows, t, threshold)


def test_stability_at_the_threshold_is_kept():
    # column 0 agrees in 27 of 30 reads, exactly the default 0.9, which is
    # not below it; a float sum of the per-device fractions 1 and 2/3 gives
    # 0.8999999999999998, which would drop it. Column 1 (2/3) is dropped.
    counts = np.array([[3, 3, 2, 3, 3, 3, 3, 2, 3, 2], [2] * 10]).T
    assert _stability_mask(counts.tolist(), 3, 0.9) == [1, 0]
    assert _stability_rule_mask(counts, 3, 0.9) == [1, 0]


def test_bias_at_the_threshold_is_kept():
    # 2 and 8 ones of 10 both deviate from 0.5 by exactly 0.3, which is not
    # more than the default 0.3; the float mean 0.8 - 0.5 reads
    # 0.30000000000000004, which would drop the 8. 1 and 9 ones are dropped.
    ones = [2, 8, 1, 9, 5]
    sigs = _column_set([tuple(int(i < c) for i in range(10)) for c in ones])
    assert eliminate_biased_positions(sigs).tolist() == [1, 1, 0, 0, 1]


@pytest.mark.parametrize("d", [10, 97, 1000])
def test_bias_rule_uses_the_exact_column_deviation(d):
    # the threshold is one column's deviation |2c - d| / 2d, so that column
    # ties; the reference divides Python integers
    rng = np.random.default_rng(d)
    ones = rng.integers(0, d + 1, size=40)
    bits = (np.arange(d)[:, None] < ones).astype(np.uint8)
    sigs = SignatureSet(bits[:, None, :])
    for c in ones.tolist():
        threshold = abs(2 * c - d) / (2 * d)
        if 0 < threshold:
            want = [int(not abs(2 * k - d) / (2 * d) > threshold) for k in ones.tolist()]
            assert eliminate_biased_positions(sigs, threshold).tolist() == want


def test_eliminate_argument_domains():
    sigs = _column_set([(1, 0, 1, 0)])
    with pytest.raises(InvalidArgumentError):
        eliminate_biased_positions(sigs, bias_threshold=0.0)
    with pytest.raises(InvalidArgumentError):
        eliminate_biased_positions(sigs, bias_threshold=0.6)
    with pytest.raises(InvalidArgumentError):
        eliminate_biased_positions(sigs, stability_threshold=0.5)
    one_device = SignatureSet(np.zeros((1, 1, 4), dtype=np.uint8))
    with pytest.raises(InvalidArgumentError):
        eliminate_biased_positions(one_device)


def test_signature_set_rejects_non_binary():
    bits = np.zeros((2, 1, 8), dtype=np.uint8)
    bad = bits.copy()
    bad[1, 0, 3] = 2
    with pytest.raises(InvalidArgumentError):
        SignatureSet(bad)
    # a 2 in the mask would count twice in effective_length
    with pytest.raises(InvalidArgumentError):
        SignatureSet(bits, [2, 1, 1, 1, 0, 0, 0, 0])
    with pytest.raises(InvalidArgumentError):
        apply_mask(SignatureSet(bits), [1, 1, 1, 1, 0, 0, 0, 3])
    assert SignatureSet(bits, [1, 1, 1, 0, 0, 0, 0, 0]).effective_length == 3


def test_signature_set_leaves_caller_arrays_writable():
    bits = np.zeros((1, 1, 2), dtype=np.uint8)
    mask = np.ones(2, dtype=np.uint8)
    sigs = SignatureSet(bits, mask)
    bits[0, 0, 0] = 1
    mask[1] = 0
    assert not sigs.bits.flags.writeable and not sigs.mask.flags.writeable
    with pytest.raises(ValueError):
        sigs.bits[0, 0, 1] = 1


def test_apply_mask():
    bits = np.arange(24, dtype=np.uint8).reshape(2, 2, 6) % 2
    sigs = SignatureSet(bits)
    masked = apply_mask(sigs, [1, 0, 1, 1, 0, 1])
    assert masked.effective_length == 4
    assert masked.kept_positions().tolist() == [0, 2, 3, 5]
    assert np.array_equal(masked.bits, sigs.bits)  # bits never destroyed
    assert sigs.mask is None  # original untouched
    with pytest.raises(InvalidArgumentError):
        apply_mask(sigs, [1, 0])
    with pytest.raises(EmptySignatureError):
        apply_mask(sigs, [0] * 6)


# -- serialization ---------------------------------------------------------------

@pytest.mark.parametrize("n", [13, 64, 100])
def test_binary_round_trip(tmp_path, n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(4, 3, n), dtype=np.uint8)
    sigs = SignatureSet(bits)
    path = tmp_path / "sigs.bin"
    sigs.to_binary(path)
    back = SignatureSet.from_binary(path)
    assert np.array_equal(back.bits, bits)
    assert back.mask is None


def test_binary_round_trip_with_mask(tmp_path):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(3, 2, 21), dtype=np.uint8)
    mask = rng.integers(0, 2, size=21, dtype=np.uint8)
    mask[0] = 1
    sigs = SignatureSet(bits, mask)
    path = tmp_path / "sigs.bin"
    sigs.to_binary(path)
    back = SignatureSet.from_binary(path)
    assert np.array_equal(back.bits, bits)
    assert np.array_equal(back.mask, mask)


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InvalidArgumentError):
        SignatureSet.from_binary(path)


def test_binary_rejects_bad_length(tmp_path):
    bits = np.random.default_rng(8).integers(0, 2, size=(4, 2, 30), dtype=np.uint8)
    path = tmp_path / "sigs.bin"
    SignatureSet(bits).to_binary(path)
    data = path.read_bytes()  # 20-byte header + 8 rows x 4 bytes
    for bad, why in ((data[:-1], "declares 52 bytes"),
                     (data + b"\x00", "declares 52 bytes"),
                     (data[:10], "truncated header")):
        path.write_bytes(bad)
        with pytest.raises(InvalidArgumentError) as err:
            SignatureSet.from_binary(path)
        assert str(path) in str(err.value)
        assert why in str(err.value) and f"found {len(bad)}" in str(err.value)


@pytest.mark.parametrize("flags, d, t, n", [
    (0, 3, 1, 0), (0, 0, 1, 16), (0, 3, 0, 16), (2, 2, 1, 16), (3, 2, 1, 16),
    (1, 2, 1, 16),
])
def test_binary_rejects_empty_and_unknown_flag_headers(tmp_path, flags, d, t, n):
    # each header declares its payload size exactly, so only the check of
    # the dimensions, of the flags or of the all-zero mask can refuse it
    path = tmp_path / "sigs.bin"
    payload = b"\x00" * (((flags & 1) + d * t) * ((n + 7) // 8))
    path.write_bytes(b"PUFS" + struct.pack("<HHIII", 1, flags, d, t, n) + payload)
    with pytest.raises(InvalidArgumentError) as err:
        SignatureSet.from_binary(path)
    assert str(path) in str(err.value)


def test_csv_layout(tmp_path):
    bits = np.array([[[1, 0, 1], [0, 0, 1]]], dtype=np.uint8)
    path = tmp_path / "sigs.csv"
    SignatureSet(bits).to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "device,trial,bits"
    assert lines[1] == "0,0,101"
    assert lines[2] == "0,1,001"
    bits = np.random.default_rng(4).integers(0, 2, size=(11, 3, 70), dtype=np.uint8)
    SignatureSet(bits).to_csv(path)
    want = "device,trial,bits\n" + "".join(
        f"{dev},{trial},{''.join('1' if b else '0' for b in bits[dev, trial])}\n"
        for dev in range(11) for trial in range(3)
    )
    assert path.read_bytes() == want.encode()


def _per_row_csv(bits):
    """The CSV text written one formatted row at a time."""
    d, t, _ = bits.shape
    return b"device,trial,bits\n" + b"".join(
        b"%d,%d,%s\n" % (dev, trial, (bits[dev, trial] + ord("0")).tobytes())
        for dev in range(d) for trial in range(t))


@pytest.mark.parametrize("t", [1, 10, 11, 12])
@pytest.mark.parametrize("d", [1, 9, 10, 11, 101])
def test_csv_matches_per_row_writer_at_digit_boundaries(tmp_path, d, t):
    rng = np.random.default_rng(100 * d + t)
    path = tmp_path / "sigs.csv"
    for n in (1, 64, 1024):
        bits = rng.integers(0, 2, size=(d, t, n), dtype=np.uint8)
        SignatureSet(bits).to_csv(path)
        assert path.read_bytes() == _per_row_csv(bits), n

