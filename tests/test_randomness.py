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
import sys
import threading

import numpy as np
import pytest

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


def test_longest_run_degenerate_and_near_expected():
    r = longest_run_test(np.zeros(128, dtype=np.uint8))
    assert r.p_value < 1e-6 and not r.passed
    # blocks whose class counts sit at the expected proportions
    per_class = {1: "10101010", 2: "11001010", 3: "11101000", 4: "11110000"}
    blocks = [per_class[1]] * 3 + [per_class[2]] * 6 + [per_class[3]] * 4 + [per_class[4]] * 3
    seq = "".join(blocks)
    r = longest_run_test(seq)
    assert r.p_value >= 0.9


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
    """Blocks on both sides of the retained-array bound: one 1e5-bit row and
    the last row of 3 x 131072 (at most 2**17 bits, retained arrays), and
    258 x 1016 rows, one 640 000-bit row and the first two 131072-bit rows
    (more, allocated per call)."""
    rng = np.random.default_rng(17)
    return [rng.integers(0, 2, size=shape, dtype=np.uint8)
            for shape in ((1, 100_000), (258, 1016), (1, 640_000), (3, 131072))]


def _suite_bytes(table):
    # the exact arrays: a repr would elide more than 1000 cells with "..."
    return table.tests, table.p_values.tobytes(), table.statistics.tobytes()


def _suite_results(blocks, order):
    return {i: _suite_bytes(run_suite_block(blocks[i])) for i in order}


def test_working_arrays_do_not_depend_on_call_order(monkeypatch):
    blocks = _working_array_blocks()
    with monkeypatch.context() as m:
        m.setattr(randomness, "_RETAIN_BITS", 0)  # every array per call
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


def test_working_arrays_stay_within_the_bound():
    sizes = {}

    def work():
        blocks = _working_array_blocks()
        run_suite_block(blocks[0])
        kept = dict(randomness._WORK.arrays)
        run_suite_block(blocks[2])  # 640 000 bits: allocated per call
        sizes.update({name: (arr.size, arr is kept.get(name))
                      for name, arr in randomness._WORK.arrays.items()})

    t = threading.Thread(target=work)  # a thread of its own: fresh arrays
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert set(sizes) == {"walk", "dft", "spectrum"}
    assert all(size <= randomness._RETAIN_BITS and same
               for size, same in sizes.values())


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
