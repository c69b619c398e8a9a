"""Property tests of the battery's packed cores against per-bit references.

The walk, the runs count, block-frequency and longest run read each
block's one packing through byte tables, 64-bit words or, for the
longest-run kernel, 16-bit units. Each is checked here against a plain per-bit
form written in this file, on rows whose length need not be a multiple of
8, block sizes that need not be either, and all-ones, all-zeros and
near-all-ones rows whose runs cross byte and 16-bit unit boundaries.
Every row of a block must also score exactly as it does alone.

As in test_input_fuzz.py, the examples are derandomized, fixed in number
and kept in no database, so every run tries the same cases.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pufsim import kernels, randomness  # noqa: E402


def _fuzz(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None)


def _walk(row):
    """(min(0, S_1..S_n), max(0, S_1..S_n), S_n), stepping bit by bit."""
    s = lo = hi = 0
    for bit in row.tolist():
        s += 1 if bit else -1
        lo, hi = min(lo, s), max(hi, s)
    return lo, hi, s


def _transitions(row):
    bits = row.tolist()
    return sum(a != b for a, b in zip(bits, bits[1:]))


def _block_ones(row, m):
    return [sum(row[k : k + m].tolist()) for k in range(0, len(row) - m + 1, m)]


def _longest(row):
    return max((len(list(g)) for bit, g in itertools.groupby(row.tolist()) if bit),
               default=0)


@st.composite
def _row(draw, n):
    kind = draw(st.sampled_from(("random", "ones", "zeros", "near-ones", "run")))
    if kind == "ones":
        return np.ones(n, np.uint8)
    if kind == "zeros":
        return np.zeros(n, np.uint8)
    if kind == "near-ones":
        row = np.ones(n, np.uint8)
        row[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))] = 0
        return row
    row = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        0, 2, n, dtype=np.uint8)
    if kind == "run":  # a run of ones starting anywhere, across unit edges
        start = draw(st.integers(0, n - 1))
        row[start : start + draw(st.integers(1, 80))] = 1
    return row


@st.composite
def _blocks(draw, max_n=1500):
    # mostly n % 8 != 0; the 10-bit worked examples fit too
    n = 8 * draw(st.integers(0, max_n // 8)) + draw(st.integers(0, 7)) or 10
    rows = draw(st.lists(_row(n), min_size=1, max_size=4))
    return np.stack(rows)


@_fuzz(300)
@given(_blocks(), st.data())
def test_packed_intermediates_match_per_bit_forms(block, data):
    n = block.shape[1]
    m = data.draw(st.integers(1, min(n, 300)), label="block size")
    blk = randomness._Block(block)
    lo, hi, sn = blk.walk_range
    assert list(zip(lo.tolist(), hi.tolist(), sn.tolist())) == [_walk(r) for r in block]
    assert blk.transitions.tolist() == [_transitions(r) for r in block]
    assert blk.block_ones(m).tolist() == [_block_ones(r, m) for r in block]


@_fuzz(300)
@given(_blocks(max_n=400), st.integers(1, 70))
def test_longest_one_run_matches_per_bit_form(block, m):
    # blocks of 1 to 70 bits: one unit, or several joined across units
    n = block.shape[1] // m * m
    blocks = block[:, :n].reshape(-1, m)
    packed = np.packbits(blocks, axis=1, bitorder="little")  # zero bits past m
    assert kernels.longest_one_run(packed).tolist() == [_longest(b) for b in blocks]


def _suite_bytes(table):
    return table.tests, table.p_values.tobytes(), table.statistics.tobytes()


@_fuzz(150)
@given(_blocks(), st.data())
def test_rows_score_as_they_do_alone(block, data):
    m = data.draw(st.integers(1, block.shape[1]), label="block size")
    table = randomness.run_suite_block(block, block_size=m, fixture_mode=True)
    for i in range(len(block)):
        alone = randomness.run_suite_block(block[i : i + 1], block_size=m,
                                           fixture_mode=True)
        assert _suite_bytes(alone) == (table.tests, table.p_values[i].tobytes(),
                                       table.statistics[i].tobytes())


@contextmanager
def _block_bits(value):
    saved = randomness._BLOCK_BITS
    randomness._BLOCK_BITS = value
    try:
        yield
    finally:
        randomness._BLOCK_BITS = saved


@pytest.mark.parametrize("block_bits", [4097, 5012, 6561, 2**11 + 3])
def test_long_rows_read_in_parts_of_odd_bytes(block_bits):
    # a row longer than the block is a block of its own, whose spectrum
    # comes from sub-rows of at most block_bits points; nothing else it
    # computes may depend on block_bits
    n = 40_003  # long enough for rank, and not a multiple of 8
    rng = np.random.default_rng(block_bits)
    rows = rng.integers(0, 2, size=(3, n), dtype=np.uint8)
    rows[1, 1000:1500] = 1  # a long run across many bytes and parts
    rows[2, : n // 2] = 1  # a walk that climbs, then wanders
    with _block_bits(n):
        whole = _suite_bytes(randomness.run_suite_block(rows))
    with _block_bits(block_bits):
        assert _suite_bytes(randomness.run_suite_block(rows)) == whole
        blk = randomness._Block(rows)
        lo, hi, sn = blk.walk_range
        assert list(zip(lo.tolist(), hi.tolist(), sn.tolist())) == [_walk(r) for r in rows]
        assert blk.transitions.tolist() == [_transitions(r) for r in rows]
        assert blk.block_ones(501).tolist() == [_block_ones(r, 501) for r in rows]
    assert "rank" in whole[0] and "longest-run" in whole[0]
