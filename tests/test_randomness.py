"""Randomness battery oracles.

The short published worked examples are run in fixture mode (length checks
off) and must reproduce the published p-values to the precision printed,
capped at 6 significant figures. Full-precision regression values frozen
from this implementation guard the tails beyond that window. Degenerate
inputs must fail hard, near-ideal inputs must score high, and simulator
output at realistic scale must pass.
"""

import itertools
import math
import os
import pathlib
import platform
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaincc

from pufsim import randomness
from pufsim.errors import InsufficientLengthError, InvalidArgumentError
from pufsim.harness import unbiased_sequences
from pufsim.randomness import (
    TEST_NAMES,
    TestResult,
    aggregate_suite,
    as_bits,
    block_frequency_test,
    cumulative_sums_test,
    default_block_size,
    dft_test,
    frequency_test,
    longest_run_test,
    rank_test,
    read_ascii_sequences,
    read_packed_sequences,
    run_suite,
    run_suite_block,
    runs_test,
    uniformity_p,
    _longest_run_class_probs,
    _longest_run_tier,
    _rank_class_probs,
)

# 128-bit worked-example input for the longest-run test
LONGEST_RUN_INPUT = "".join(
    [
        "11001100", "00010101", "01101100", "01001100",
        "11100000", "00000010", "01001101", "01010001",
        "00010011", "11010110", "10000000", "11010111",
        "11001100", "11100110", "11011000", "10110010",
    ]
)


def assert_fixture(p: float, printed: str, frozen: float):
    """p must match the published value to its printed precision (at most
    6 significant figures) and the frozen full-precision oracle tightly."""
    digits = min(len(printed.split(".")[1].lstrip("0")), 6)
    assert float(f"{p:.{digits}g}") == float(f"{float(printed):.{digits}g}"), (
        f"{p!r} does not reproduce {printed} at {digits} significant figures"
    )
    assert p == pytest.approx(frozen, rel=1e-9)


# -- published worked examples -----------------------------------------------------

def test_frequency_fixture():
    r = frequency_test("1011010101", fixture_mode=True)
    assert_fixture(r.p_value, "0.527089", 0.5270892568655381)


def test_block_frequency_fixture():
    r = block_frequency_test("0110011010", block_size=3, fixture_mode=True)
    assert_fixture(r.p_value, "0.801252", 0.8012519569012009)


def test_cumulative_sums_fixture():
    r = cumulative_sums_test("1011010111", "forward", fixture_mode=True)
    assert_fixture(r.p_value, "0.4116588", 0.4116586191538023)


def test_runs_fixture():
    r = runs_test("1001101011", fixture_mode=True)
    assert_fixture(r.p_value, "0.147232", 0.14723225536366571)


def test_longest_run_fixture():
    assert len(LONGEST_RUN_INPUT) == 128
    r = longest_run_test(LONGEST_RUN_INPUT)
    assert_fixture(r.p_value, "0.180609", 0.1806093182397121)


def test_dft_fixture():
    r = dft_test("1001010011", fixture_mode=True)
    assert_fixture(r.p_value, "0.029523", 0.02952321594993795)


# -- degenerate and ideal inputs -----------------------------------------------------

def test_frequency_degenerate_and_ideal():
    zeros = np.zeros(1_000_000, dtype=np.uint8)
    r = frequency_test(zeros)
    assert r.p_value < 1e-6 and not r.passed
    ones = np.ones(1_000_000, dtype=np.uint8)
    assert frequency_test(ones).p_value < 1e-6
    alt = np.tile([0, 1], 500).astype(np.uint8)
    r = frequency_test(alt)
    assert r.p_value == 1.0 and r.statistic == 0


def test_block_frequency_degenerate_and_ideal():
    alt = np.tile([0, 1], 500).astype(np.uint8)  # every block exactly half ones
    r = block_frequency_test(alt, block_size=20)
    assert r.p_value == 1.0
    assert block_frequency_test(np.ones(1000, dtype=np.uint8)).p_value < 1e-6
    with pytest.raises(InvalidArgumentError):
        block_frequency_test(alt, block_size=10)
    with pytest.raises(InvalidArgumentError):
        block_frequency_test(alt, block_size=2000)


def test_cumulative_sums_degenerate_and_ideal():
    alt = np.tile([1, 0], 500).astype(np.uint8)
    r = cumulative_sums_test(alt)
    assert r.statistic == 1 and r.p_value > 0.99
    assert cumulative_sums_test(np.ones(1000, dtype=np.uint8)).p_value < 1e-6
    assert cumulative_sums_test(np.zeros(1000, dtype=np.uint8)).p_value < 1e-6
    with pytest.raises(InvalidArgumentError):
        cumulative_sums_test(alt, mode="sideways")


def test_cumulative_sums_directions_differ():
    seq = as_bits("1011010111")
    f = cumulative_sums_test(seq, "forward", fixture_mode=True)
    b = cumulative_sums_test(seq, "backward", fixture_mode=True)
    assert f.test_name != b.test_name
    # reversal symmetry: backward of the reversed sequence equals forward
    rev = cumulative_sums_test(seq[::-1], "backward", fixture_mode=True)
    assert rev.p_value == f.p_value


@pytest.mark.parametrize("n", [1, 2, 3, 100])
def test_cumulative_sums_statistics_match_reversed_walk(n):
    if n <= 3:
        block = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint8)
    else:
        rng = np.random.default_rng(n)
        block = np.concatenate([rng.integers(0, 2, size=(30, n), dtype=np.uint8),
                                np.zeros((1, n), np.uint8), np.ones((1, n), np.uint8)])
    names = ("cumulative-sums-forward", "cumulative-sums-backward")
    table = run_suite_block(block, tests=names, fixture_mode=True)
    assert table.tests == names and table.statistics.shape == (len(block), 2)
    for i, bits in enumerate(block):
        x = 2 * bits.astype(np.int64) - 1
        want_f = int(np.max(np.abs(np.cumsum(x))))
        want_b = int(np.max(np.abs(np.cumsum(x[::-1]))))
        assert table.statistics[i].tolist() == [want_f, want_b]
        res = table.row(i)
        assert res[names[0]].statistic == want_f
        assert res[names[1]].statistic == want_b
        assert cumulative_sums_test(bits, "backward", fixture_mode=True) == res[names[1]]


def test_runs_degenerate():
    ones = np.ones(1000, dtype=np.uint8)
    r = runs_test(ones)
    assert r.p_value == 0.0 and not r.passed  # prerequisite fails
    alt = np.tile([0, 1], 500).astype(np.uint8)
    assert runs_test(alt).p_value < 1e-6  # maximal run count
    # below 16 bits the prerequisite bound exceeds 1/2: a constant row
    # must still fail it rather than divide by pi * (1 - pi) = 0
    for short in ("1", "0000", "111111111111111"):
        r = runs_test(short, fixture_mode=True)
        assert r.p_value == 0.0 and math.isnan(r.statistic)


@pytest.mark.parametrize("n,ones", [(100, 70), (640_000, 321_600)])
def test_runs_prerequisite_tie_is_not_run(n, ones):
    # |S_n| = 4 sqrt(n): |pi - 1/2| equals the bound 2 / sqrt(n), and
    # SP 800-22 2.3.4 runs the test only strictly inside it
    row = np.zeros(n, dtype=np.uint8)
    row[:ones] = 1
    np.random.default_rng(0).shuffle(row)
    r = runs_test(row)
    assert r.p_value == 0.0 and math.isnan(r.statistic)
    row[np.flatnonzero(row)[0]] = 0  # one fewer one is inside the bound
    assert runs_test(row).p_value > 0.0


def test_longest_run_degenerate_and_near_expected():
    r = longest_run_test(np.zeros(128, dtype=np.uint8))
    assert r.p_value < 1e-6 and not r.passed
    # blocks whose class counts sit at the expected proportions
    per_class = {1: "10101010", 2: "11001010", 3: "11101000", 4: "11110000"}
    blocks = [per_class[1]] * 3 + [per_class[2]] * 6 + [per_class[3]] * 4 + [per_class[4]] * 3
    seq = "".join(blocks)
    r = longest_run_test(seq)
    assert r.p_value >= 0.9


def _exact_class_probs(m: int, lo: int, hi: int) -> list:
    """Longest-run class probabilities from exact counts: a[k], the number
    of k-bit strings with no run of ones longer than v, is 2**k up to
    k = v and a[k - 1] + ... + a[k - v - 1] after."""
    def at_most(v):
        a = []
        for k in range(m + 1):
            a.append(2**k if k <= v else sum(a[k - v - 1:k]))
        return Fraction(a[m], 2**m)

    cdf = {v: at_most(v) for v in range(lo, hi)}
    return [float(p) for p in [cdf[lo], *(cdf[v] - cdf[v - 1] for v in range(lo + 1, hi)),
                               1 - cdf[hi - 1]]]


@pytest.mark.parametrize("tier", [(8, 1, 4), (128, 4, 9), (10000, 10, 16)],
                         ids=["M8", "M128", "M10000"])
def test_longest_run_class_probabilities_are_exact(tier):
    assert _longest_run_class_probs(*tier) == pytest.approx(_exact_class_probs(*tier),
                                                            abs=1e-12)


def test_longest_run_third_tier_against_the_published_table():
    # SP 800-22's table for M = 10000, classes <=10, 11, ..., >=16, is not
    # exact: it is off by up to 0.0016 (0.0882 against 0.08663 for <=10),
    # so it agrees with the exact probabilities to 2e-3, not to its 4 digits
    table = (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)
    probs = _longest_run_class_probs(10000, 10, 16)
    assert probs == pytest.approx(table, abs=2e-3)
    assert probs != pytest.approx(table, abs=1e-3)


def test_longest_run_tier_boundary():
    assert _longest_run_tier(749_999) == (128, 4, 9)
    assert _longest_run_tier(750_000) == (10000, 10, 16)


def _longest_run_reference(text: str, m: int, lo: int, hi: int):
    """(p-value, chi2) of the longest-run test over the m-bit blocks of a
    0/1 string, each block's longest run read off its split on '0'."""
    nblocks = len(text) // m
    counts = [0] * (hi - lo + 1)
    for b in range(nblocks):
        run = max(map(len, text[b * m:(b + 1) * m].split("0")))
        counts[min(max(run, lo), hi) - lo] += 1
    probs = _longest_run_class_probs(m, lo, hi)
    chi2 = math.fsum((c - nblocks * p) ** 2 / (nblocks * p) for c, p in zip(counts, probs))
    return gammaincc((hi - lo) / 2, chi2 / 2), chi2


@pytest.mark.parametrize("n, tier", [(749_999, (128, 4, 9)), (750_000, (10000, 10, 16))])
def test_longest_run_matches_per_block_reference_at_the_tier_boundary(n, tier):
    (bits,) = unbiased_sequences(1, 750_000, master_seed=750)
    bits = bits[:n]
    r = longest_run_test(bits)
    p, chi2 = _longest_run_reference("".join(map(str, bits.tolist())), *tier)
    assert r.statistic == pytest.approx(chi2, rel=1e-9)
    assert r.p_value == pytest.approx(p, rel=1e-9)


def test_rank_degenerate():
    eye = np.eye(32, dtype=np.uint8).reshape(-1)
    seq = np.tile(eye, 38)  # 38 rank-32 matrices
    r = rank_test(seq)
    assert r.p_value < 1e-6 and not r.passed
    assert rank_test(np.zeros(38912, dtype=np.uint8)).p_value < 1e-6


def test_rank_class_probabilities():
    full, minus1, rest = _rank_class_probs()
    assert full == pytest.approx(0.2888, abs=5e-5)
    assert minus1 == pytest.approx(0.5776, abs=5e-5)
    assert rest == pytest.approx(0.1336, abs=5e-5)
    assert full + minus1 + rest == pytest.approx(1.0, abs=1e-12)


def test_rank_simulator_pass_rate():
    # 100k-bit unbiased simulator sequences pass in at least 99 of 100 seeds
    passed = 0
    for bits in unbiased_sequences(100, 100_000, master_seed=20260814):
        if rank_test(bits).passed:
            passed += 1
    assert passed >= 99


def test_dft_degenerate_and_simulator():
    square = np.tile([1, 1, 0, 0], 250).astype(np.uint8)
    r = dft_test(square)
    assert not r.passed
    (bits,) = list(unbiased_sequences(1, 1_000_000, master_seed=515))
    assert dft_test(bits).p_value >= 0.001


# -- generic properties ----------------------------------------------------------------

def _sample_inputs():
    rng = np.random.default_rng(123)
    yield rng.integers(0, 2, size=39000, dtype=np.uint8)
    yield np.zeros(39000, dtype=np.uint8)
    yield np.ones(39000, dtype=np.uint8)
    yield np.tile([0, 1], 19500).astype(np.uint8)
    biased = (rng.random(39000) < 0.7).astype(np.uint8)
    yield biased


def test_p_values_in_unit_interval():
    for bits in _sample_inputs():
        for r in run_suite(bits).values():
            for p in r.p_values:
                assert 0.0 <= p <= 1.0


def test_determinism():
    bits = np.random.default_rng(9).integers(0, 2, size=39000, dtype=np.uint8)
    a = run_suite(bits)
    b = run_suite(bits.copy())
    assert set(a) == set(b)
    for name in a:
        assert a[name].p_values == b[name].p_values


def _same_result(a: TestResult, b: TestResult) -> bool:
    # repr keeps a nan statistic (failed runs prerequisite) comparable
    return repr(a) == repr(b)


@pytest.mark.parametrize("n", [128, 1016, 39000])
def test_run_suite_block_rows_equal_run_suite(n):
    rng = np.random.default_rng(n)
    block = np.concatenate([
        rng.integers(0, 2, size=(9, n), dtype=np.uint8),
        (rng.random((2, n)) < 0.6).astype(np.uint8),
        np.zeros((1, n), np.uint8),
        np.ones((1, n), np.uint8),
    ])
    table = run_suite_block(block)
    assert len(table) == len(block)
    assert table.p_values.shape == table.statistics.shape == (len(block), len(table.tests))
    assert table.tests == tuple(t for t in TEST_NAMES if t in table.tests)
    rows = [table.row(i) for i in range(len(block))]
    for bits, res in zip(block, rows):
        single = run_suite(bits)
        assert tuple(res) == tuple(single) == table.tests
        assert all(_same_result(res[t], single[t]) for t in res)
    # cells() walks the same results row by row, in column order
    assert list(table.cells()) == [(i, t, r.p_value, r.passed)
                                   for i, res in enumerate(rows)
                                   for t, r in res.items()]
    # the table and perfbench's list of run_suite dicts aggregate alike,
    # failing rows included
    agg = aggregate_suite(table)
    assert min(row["passing"] for row in agg.rows.values()) < len(block)
    assert agg == aggregate_suite(rows)
    # columns follow TEST_NAMES whatever order the tests are named in
    named = run_suite_block(block[:2], tests=("runs", "frequency"))
    assert named.tests == ("frequency", "runs") and named.p_values.shape == (2, 2)
    assert [tuple(named.row(i)) for i in range(2)] == [("frequency", "runs")] * 2
    empty = run_suite_block(block[:0])
    assert len(empty) == 0 and empty.p_values.shape == (0, len(empty.tests))
    none = run_suite_block(block[:3], tests=())
    assert none.tests == () and none.p_values.shape == none.statistics.shape == (3, 0)
    assert [none.row(i) for i in range(3)] == [{}, {}, {}]
    with pytest.raises(InvalidArgumentError):
        run_suite_block(block[0])
    with pytest.raises(InvalidArgumentError):
        run_suite_block(block * 2)


def _working_array_blocks():
    """Blocks whose working arrays differ in size and shape: one 1e5-bit
    row, 258 x 1016 rows (one block of nearly 2**18 bits), one 640 000-bit
    row and 3 x 131072 rows (two blocks of unequal height)."""
    rng = np.random.default_rng(17)
    return [rng.integers(0, 2, size=shape, dtype=np.uint8)
            for shape in ((1, 100_000), (258, 1016), (1, 640_000), (3, 131072))]


def _suite_bytes(table):
    # the exact arrays: a repr would elide more than 1000 cells with "..."
    return table.tests, table.p_values.tobytes(), table.statistics.tobytes()


def _suite_results(blocks, order):
    return {i: _suite_bytes(run_suite_block(blocks[i])) for i in order}


def test_working_arrays_do_not_depend_on_call_order():
    blocks = _working_array_blocks()
    reference = _suite_results(blocks, range(4))
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2)):
        assert _suite_results(blocks, order) == reference


def test_working_arrays_are_per_thread():
    blocks = _working_array_blocks()
    serial = _suite_results(blocks, range(4))
    orders = [(0, 1, 2, 3, 0, 3), (3, 0, 2, 1, 3, 0), (0, 3, 0, 3, 1, 2)]
    found = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def work(k):
        start.wait(timeout=60)
        found[k] = [(i, _suite_bytes(run_suite_block(blocks[i]))) for i in orders[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, order in enumerate(orders):
        assert found[k] == [(i, serial[i]) for i in order]


# Row lengths above 2**11 and 2**12 of different factorizations, with the
# rows of each: at those blocks the sub-row count R and length M = n / R
# take even and odd values (5012 and 4097 have odd M at 2**11, 6561 is odd
# throughout), and M reaches the block itself at 12288.
_LONG_ROWS = {640_000: 2, 1_000_000: 2, 531_441: 2, 12_288: 12, 6_561: 12,
              5_012: 12, 4_097: 12}


def _long_rows(n: int, count: int) -> np.ndarray:
    return np.stack(list(unbiased_sequences(count, n, n)))


def _recording(monkeypatch, name):
    """Record what randomness.<name> returns, and the rows it was given."""
    calls = []
    core = getattr(randomness, name)

    def recorded(bits, threshold):
        calls.append((bits.shape, core(bits, threshold)))
        return calls[-1][1]

    monkeypatch.setattr(randomness, name, recorded)
    return calls


@pytest.mark.parametrize("block_bits", [2**11, 2**12])
def test_long_rows_split_as_whole_rows(monkeypatch, block_bits):
    # every test, cumulative sums and longest run included, gives a long
    # row's p-value and statistic bit for bit as on the whole row
    split = _recording(monkeypatch, "_decimated_count")
    for n, count in _LONG_ROWS.items():
        rows = _long_rows(n, count)
        rows[0, : n // 8] = 1  # a walk that stays above 0 and ends at its top
        monkeypatch.setattr(randomness, "_BLOCK_BITS", n)
        whole = run_suite_block(rows)
        monkeypatch.setattr(randomness, "_BLOCK_BITS", block_bits)
        split.clear()
        table = run_suite_block(rows)
        assert _suite_bytes(table) == _suite_bytes(whole), n
        assert {"cumulative-sums-forward", "cumulative-sums-backward",
                "longest-run", "dft"} <= set(table.tests)
        # the spectrum of every row came from its sub-rows
        assert [got is not None for _, got in split] == [True] * count, n


def test_long_row_near_the_threshold_falls_back_to_the_whole_row(monkeypatch):
    rows = _long_rows(640_000, 1)
    monkeypatch.setattr(randomness, "_BLOCK_BITS", rows.shape[1])
    whole = run_suite_block(rows)
    monkeypatch.undo()
    # a margin of the whole threshold takes in every magnitude up to 2 T
    monkeypatch.setattr(randomness, "_DFT_MARGIN", 1.0)
    split = _recording(monkeypatch, "_decimated_count")
    full = _recording(monkeypatch, "_whole_row_count")
    assert _suite_bytes(run_suite_block(rows)) == _suite_bytes(whole)
    assert [got for _, got in split] == [None]
    assert [shape for shape, _ in full] == [(1, 640_000)]


@pytest.mark.parametrize("block_bits", [2**11, randomness._BLOCK_BITS])
def test_prime_long_row_keeps_the_whole_row(monkeypatch, block_bits):
    n = next(p for p in itertools.count(block_bits + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1)))
    rows = _long_rows(n, 2)
    monkeypatch.setattr(randomness, "_BLOCK_BITS", n)
    whole = run_suite_block(rows)
    monkeypatch.setattr(randomness, "_BLOCK_BITS", block_bits)
    split = _recording(monkeypatch, "_decimated_count")
    full = _recording(monkeypatch, "_whole_row_count")
    assert _suite_bytes(run_suite_block(rows)) == _suite_bytes(whole)
    assert [got for _, got in split] == [None, None]
    assert [shape for shape, _ in full] == [(1, n), (1, n)]


def test_long_row_battery_memory_is_block_bounded():
    # one row of paper-sim's concatenated stream, 10000 x 64 bits; one
    # whole-row rfft holds its float64 input and complex spectrum, 10.1 MiB
    rows = _long_rows(640_000, 1)
    tracemalloc.start()
    try:
        run_suite_block(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_long_row_packed_cores_stay_small():
    # every core but the spectral test reads the row's packing, 80 000
    # bytes here, through temporaries of a few bytes per packed byte, so
    # none of them works in parts
    rows = _long_rows(640_000, 1)
    for name, core in randomness._CORES.items():
        if name == "dft":
            continue
        core(randomness._Block(rows), None, False)  # tables built on first use
        tracemalloc.start()
        try:
            core(randomness._Block(rows), None, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"


_FAULTS_PER_CALL = """
import resource, statistics
def faults(call):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
"""

_HEAP_LIFT_SCRIPT = _FAULTS_PER_CALL + """
from pufsim.harness import unbiased_sequences
from pufsim.randomness import run_suite
counts = [faults(lambda: run_suite(seq))
          for seq in unbiased_sequences(13, 100_000, 20240801)]
print(statistics.median(counts[3:]))
"""

# the sweep's readout shape: 4000 devices x 64 cells, one trial
_READOUT_FAULTS_SCRIPT = _FAULTS_PER_CALL + """
from pufsim.entropy import EnvironmentCondition, NoiseCalibration
from pufsim.population import PlacementConfig, PopulationSpec, generate_population
from pufsim.signature import ReadoutSession, read_signatures
pop = generate_population(PopulationSpec(
    num_devices=4000, cells_per_device=64, sigma_mismatch=0.25,
    weights=(0.0, 0.0, 1.0), placement=PlacementConfig("flat", 8, 8, (0,) * 64, ()),
    master_seed=3))
ref = EnvironmentCondition(25.0, 1.0)
session = ReadoutSession(ref, trials=1, session_seed=11,
                         calibration=NoiseCalibration(0.25, ref), target_ber=0.1)
counts = [faults(lambda: read_signatures(pop, session)) for _ in range(9)]
print(statistics.median(counts[3:]))
"""


def _median_faults_in_fresh_process(script: str) -> float:
    # A fresh process: frees in earlier tests raise glibc's thresholds too
    # and would hide a missing lift.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap lift targets glibc's malloc")
def test_heap_lift_keeps_sequence_calls_off_fresh_pages():
    # Without the lift each 1e5-bit run_suite call faults in its working
    # arrays and rfft scratch again, 700-800 pages.
    faults = _median_faults_in_fresh_process(_HEAP_LIFT_SCRIPT)
    assert faults < 100, f"median minor faults per call: {faults}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap lift targets glibc's malloc")
def test_heap_lift_keeps_readout_calls_off_fresh_pages():
    # The readout allocates its per-range temporaries and the bits of the
    # whole session afresh in every call; without the lift a call at this
    # shape faults about 1070 pages in again.
    faults = _median_faults_in_fresh_process(_READOUT_FAULTS_SCRIPT)
    assert faults < 100, f"median minor faults per call: {faults}"


def test_run_suite_selection_by_length():
    bits = np.random.default_rng(9).integers(0, 2, size=100, dtype=np.uint8)
    out = run_suite(bits)
    assert set(out) == {"frequency", "block-frequency", "cumulative-sums-forward",
                        "cumulative-sums-backward", "runs"}
    with pytest.raises(InsufficientLengthError):
        run_suite(bits, tests=("rank",))
    with pytest.raises(InvalidArgumentError):
        run_suite(bits, tests=("frequencyy",))


def test_min_length_errors():
    short = np.zeros(64, dtype=np.uint8)
    for fn in (frequency_test, runs_test, dft_test, rank_test,
               block_frequency_test, cumulative_sums_test, longest_run_test):
        with pytest.raises(InsufficientLengthError):
            fn(short)
        with pytest.raises(InsufficientLengthError):
            fn("", fixture_mode=True)


def test_passed_threshold_is_inclusive():
    r = TestResult("x", (0.001,), 0.001, 0.0)
    assert r.passed
    r = TestResult("x", (0.0009999,), 0.001, 0.0)
    assert not r.passed
    r = TestResult("x", (0.5, 0.0001), 0.001, 0.0)
    assert not r.passed  # every reported p-value must clear alpha


def test_default_block_size():
    assert default_block_size(100) == 20
    assert default_block_size(2000) == 20
    assert default_block_size(10000) == 100
    assert default_block_size(1_000_000) == 10000


def test_canonical_test_names():
    assert TEST_NAMES == (
        "frequency",
        "block-frequency",
        "cumulative-sums-forward",
        "cumulative-sums-backward",
        "runs",
        "longest-run",
        "rank",
        "dft",
    )


# -- aggregation ---------------------------------------------------------------------

def _fake_results(p_values):
    return [{"frequency": TestResult("frequency", (p,), 0.001, 0.0)}
            for p in p_values]


def test_aggregate_uniform_bins_give_p_one():
    pv = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    agg = aggregate_suite(_fake_results(pv))
    row = agg.rows["frequency"]
    assert row["uniformity_p"] == 1.0
    assert row["passing"] == 10
    assert agg.passing_string("frequency") == "10/10"


def test_aggregate_degenerate_concentration():
    agg = aggregate_suite(_fake_results([1.0] * 10))
    assert agg.rows["frequency"]["uniformity_p"] < 1e-6


def test_aggregate_counts_failures():
    pv = [0.5, 0.0005, 0.2, 0.0]
    agg = aggregate_suite(_fake_results(pv))
    assert agg.rows["frequency"]["passing"] == 2


def test_aggregate_needs_two_sequences():
    with pytest.raises(InvalidArgumentError):
        aggregate_suite(_fake_results([0.5]))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, math.nan])
def test_battery_refuses_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(InvalidArgumentError, match="alpha"):
        run_suite_block(np.zeros((2, 128), dtype=np.uint8), alpha=alpha)
    with pytest.raises(InvalidArgumentError, match="alpha"):
        aggregate_suite(_fake_results([0.5, 0.2]), alpha=alpha)


def test_uniformity_handles_p_equal_one():
    # exactly 1.0 lands in the top bin rather than an eleventh bin
    assert uniformity_p([0.95, 1.0] * 5) < 1.0


# -- sequence coercion and IO -----------------------------------------------------------------

def test_as_bits_validation():
    with pytest.raises(InvalidArgumentError):
        as_bits(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    with pytest.raises(InvalidArgumentError):
        as_bits(np.array([0, 2], dtype=np.uint8))
    # a string may hold only '0' and '1'
    assert as_bits("0110").tolist() == [0, 1, 1, 0]
    for bad in ("0123abc", "0a1", "10 1", "1/0", "2" * 200, "01\u00e9"):
        with pytest.raises(InvalidArgumentError):
            as_bits(bad)
    with pytest.raises(InvalidArgumentError):
        frequency_test("2" * 200)


def test_ascii_io(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("1010\n\n0110 11\n")
    seqs = read_ascii_sequences(path)
    assert [s.tolist() for s in seqs] == [[1, 0, 1, 0], [0, 1, 1, 0, 1, 1]]
    path.write_text("10a0\n")
    with pytest.raises(InvalidArgumentError):
        read_ascii_sequences(path)


def test_packed_io(tmp_path):
    rng = np.random.default_rng(14)
    rows = rng.integers(0, 2, size=(3, 20), dtype=np.uint8)
    path = tmp_path / "seqs.bin"
    with open(path, "wb") as fh:
        for row in rows:
            fh.write(np.packbits(row, bitorder="little").tobytes())
    seqs = read_packed_sequences(path, 20)
    assert seqs.shape == (3, 20)
    assert np.array_equal(seqs, rows)
    assert [s.tolist() for s in seqs] == rows.tolist()
    with pytest.raises(InvalidArgumentError):
        read_packed_sequences(path, 25)  # 4 bytes/seq does not divide 9
    path.write_bytes(b"")
    assert read_packed_sequences(path, 20).shape == (0, 20)
