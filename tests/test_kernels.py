"""Kernel correctness against brute-force oracles, and the one 0/1 check
behind every public entry that takes bits."""

import tracemalloc

import numpy as np
import pytest

from pufsim import kernels
from pufsim.errors import EmptySignatureError, InvalidArgumentError, InvalidSpecError
from pufsim.metrics import inter_hd, intra_hd
from pufsim.randomness import as_bits, run_suite_block
from pufsim.signature import SignatureSet


def _brute_pairwise(bits):
    """Every pair i < j from a distance matrix, a block of rows at a time:
    |x ^ y| = |x| + |y| - 2 x.y, exact in float32 at these lengths."""
    d, n = bits.shape
    b = bits.astype(np.float32)
    ones = b.sum(axis=1)
    hist = np.zeros(n + 1, dtype=np.int64)
    for i0 in range(0, d, 512):
        hd = ones[i0:i0 + 512, None] + ones - 2 * (b[i0:i0 + 512] @ b.T)
        upper = np.arange(i0, i0 + len(hd))[:, None] < np.arange(d)
        hist += np.bincount(hd[upper].astype(np.int64), minlength=n + 1)
    return int(hist @ np.arange(n + 1)), hist


def _brute_rank(mat):
    # plain elimination over GF(2) on a 32x32 0/1 array
    m = mat.copy().astype(np.int64) % 2
    rank = 0
    for col in range(32):
        piv = None
        for row in range(rank, 32):
            if m[row, col]:
                piv = row
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        for row in range(32):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
    return rank


def _brute_longest(row):
    best = run = 0
    for b in row:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


def _packed_blocks(blocks):
    """0/1 blocks as longest_one_run takes them: little-endian bytes, zero
    bits past each block's end."""
    return np.packbits(blocks, axis=1, bitorder="little")


def _pack_rows(mat):
    packed8 = np.packbits(mat, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed8).view(np.uint32)[:, 0].astype(np.uint64)


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 100, 128, 1000])
def test_pack_unpack_round_trip(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(5, n), dtype=np.uint8)
    packed = kernels.pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed.shape == (5, (n + 63) // 64)
    assert np.array_equal(kernels.unpack_bits(packed, n), bits)


def test_pack_pads_with_zeros():
    bits = np.ones((2, 70), dtype=np.uint8)
    packed = kernels.pack_bits(bits)
    # bits 70..127 of the second word must be zero
    assert int(packed[0, 1]) == (1 << 6) - 1


_ROWS, _COLS = kernels._TILE_ROWS, kernels._TILE_COLS
# row counts on either side of every tile edge; lengths on either side of
# a word and of the uint8/uint16 accumulator switch (254 is the last
# length whose sentinel distance, n + 1, fits uint8)
_SMALL_D = [0, 1, 2, _ROWS - 1, _ROWS, _ROWS + 1]
_LARGE_D = [_COLS - 1, _COLS, _COLS + 1]
_BITS = [1, 63, 64, 65, 254, 255, 256, 1016, 5120]


@pytest.mark.parametrize(
    "d,n",
    [(d, n) for d in _SMALL_D for n in _BITS]
    + [(d, n) for d in _LARGE_D for n in _BITS[:7]]
    + [(7, 10), (12, 100), (9, 130), (3, 1), (256, 5), (257, 9), (600, 3)],
)
def test_pairwise_hd_matches_brute_force(d, n):
    rng = np.random.default_rng(d * 10000 + n)
    bits = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
    if d >= 3:
        bits[d // 2] = bits[0]  # distance 0
        bits[-1] = 1 - bits[0]  # distance n
    want_total, want_hist = _brute_pairwise(bits)
    total, hist = kernels.pairwise_hd_stats(kernels.pack_bits(bits), n)
    assert total == want_total
    assert np.array_equal(hist, want_hist)
    if d >= 3:
        assert hist[0] >= 1 and hist[n] >= 1


def test_pairwise_hd_memory_is_tile_bounded():
    # the paper-sim shape; whole-row blocks against every later row
    # allocate tens of MiB here
    rng = np.random.default_rng(3)
    packed = kernels.pack_bits(rng.integers(0, 2, size=(10000, 64), dtype=np.uint8))
    tracemalloc.start()
    try:
        kernels.pairwise_hd_stats(packed, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pairwise_hd_identical_and_complement():
    n = 96
    row = np.random.default_rng(1).integers(0, 2, size=n, dtype=np.uint8)
    same = np.stack([row, row])
    total, hist = kernels.pairwise_hd_stats(kernels.pack_bits(same), n)
    assert total == 0 and hist[0] == 1
    comp = np.stack([row, 1 - row])
    total, hist = kernels.pairwise_hd_stats(kernels.pack_bits(comp), n)
    assert total == n and hist[n] == 1


def test_gf2_rank_known_matrices():
    eye = np.eye(32, dtype=np.uint8)
    zero = np.zeros((32, 32), dtype=np.uint8)
    dup = eye.copy()
    dup[31] = dup[30]  # two equal rows: rank 31
    ones = np.ones((32, 32), dtype=np.uint8)  # all rows equal: rank 1
    batch = np.stack([eye, zero, dup, ones])
    rows = np.stack([_pack_rows(m) for m in batch])
    assert kernels.gf2_rank32(rows).tolist() == [32, 0, 31, 1]


def test_gf2_rank_matches_brute_force():
    rng = np.random.default_rng(42)
    full = rng.integers(0, 2, size=(50, 32, 32))
    # a 32 x r times r x 32 product has rank at most r
    low = [rng.integers(0, 2, size=(32, r)) @ rng.integers(0, 2, size=(r, 32)) % 2
           for r in range(33) for _ in range(2)]
    mats = np.concatenate([full, np.stack(low)]).astype(np.uint8)
    want = [_brute_rank(m) for m in mats]
    for dtype in (np.uint32, np.uint64):
        rows = np.stack([_pack_rows(m) for m in mats]).astype(dtype)
        before = rows.copy()
        assert kernels.gf2_rank32(rows).tolist() == want
        assert kernels.gf2_rank32(rows[:1]).tolist() == want[:1]
        assert np.array_equal(rows, before)  # input left untouched


@pytest.mark.parametrize("m", [1, 8, 128, 129, 10000])
def test_longest_one_run_matches_brute_force(m):
    rng = np.random.default_rng(m)
    blocks = rng.integers(0, 2, size=(40, m), dtype=np.uint8)
    # runs touching block edges, next to blocks whose runs touch theirs
    k = max(1, m // 3)
    blocks[0] = 1
    blocks[1] = 0
    blocks[2, -k:] = 1
    blocks[3, :k] = 1
    blocks[4, :k] = 1
    blocks[4, -k:] = 1
    blocks[5] = 1
    got = kernels.longest_one_run(_packed_blocks(blocks))
    assert got.tolist() == [_brute_longest(row) for row in blocks]


def test_longest_one_run_edges():
    blocks = np.array(
        [[0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8
    )
    assert kernels.longest_one_run(_packed_blocks(blocks)).tolist() == [0, 4, 2, 2]


def test_dispatch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kernels.pairwise_hd_stats(np.zeros(4, dtype=np.uint64), 64)
    with pytest.raises(ValueError):
        kernels.gf2_rank32(np.zeros((4, 31), dtype=np.uint64))
    with pytest.raises(ValueError):
        kernels.longest_one_run(np.zeros(8, dtype=np.uint8))


# every public entry that takes 0/1 values, fed a 1-D pair of values
_BIT_ENTRIES = {
    "as_bits": lambda v: as_bits(v),
    "run_suite_block": lambda v: run_suite_block(np.tile(v, (1, 100))),
    "SignatureSet bits": lambda v: SignatureSet(np.reshape(v, (1, 1, 2))),
    "SignatureSet mask": lambda v: SignatureSet(np.zeros((1, 1, 2)), mask=v),
    "inter_hd signatures": lambda v: inter_hd(np.stack([v, [0, 1]])),
    "inter_hd mask": lambda v: inter_hd(np.zeros((2, 2)), mask=v),
    "intra_hd reference": lambda v: intra_hd(v, [[0, 1]]),
    "intra_hd rereads": lambda v: intra_hd([0, 1], [v]),
}


@pytest.mark.parametrize("entry", sorted(_BIT_ENTRIES))
@pytest.mark.parametrize("values", [
    [0.5, 1],  # truncated to 0 by a uint8 cast
    np.array([0.7, 1.2]),
    np.array([256, 1]),  # wrapped to 0 by a uint8 cast
    [0, -1],  # OverflowError from a uint8 cast
    [0, 2],
    [float("nan"), 1],
    np.array([0, 2], dtype=np.uint8),
])
def test_non_binary_values_rejected(entry, values):
    with pytest.raises(InvalidArgumentError):
        _BIT_ENTRIES[entry](values)


@pytest.mark.parametrize(
    "values", [[0.0, 1.0], [False, True], np.array([0, 1], dtype=np.int64)]
)
def test_exact_binary_values_accepted(values):
    got = kernels.check_bits(values)
    assert got.dtype == np.uint8 and got.tolist() == [0, 1]
    for entry in _BIT_ENTRIES.values():
        entry(values)


# every public entry that takes a keep-mask, over 4 positions
_MASK_ENTRIES = {
    "check_mask": lambda m: kernels.check_mask(m, 4),
    "SignatureSet": lambda m: SignatureSet(np.zeros((2, 1, 4)), mask=m),
    "inter_hd": lambda m: inter_hd(np.zeros((2, 4)), mask=m),
    "intra_hd": lambda m: intra_hd([0, 1, 0, 1], [[0, 1, 1, 1]], mask=m),
}


@pytest.mark.parametrize("entry", sorted(_MASK_ENTRIES))
@pytest.mark.parametrize("mask, error", [
    ([1, 0, 2, 1], InvalidArgumentError),
    ([1, 0, 1], InvalidArgumentError),
    ([[1, 0, 1, 1]], InvalidArgumentError),
    ([0, 0, 0, 0], EmptySignatureError),
], ids=["non-binary", "short", "2-d", "keeps-none"])
def test_every_mask_entry_refuses_alike(entry, mask, error):
    with pytest.raises(error):
        _MASK_ENTRIES[entry](mask)


def test_check_mask_counts_kept_positions():
    mask, kept = kernels.check_mask([True, False, True, True], 4)
    assert mask.dtype == np.uint8 and mask.tolist() == [1, 0, 1, 1] and kept == 3
    assert issubclass(EmptySignatureError, InvalidArgumentError)


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, np.float64(1.0),
                                   1.5, "1", None],
                         ids=["bool", "numpy-bool", "float", "numpy-float", "half",
                              "str", "none"])
def test_check_int_refuses_non_integers(value):
    with pytest.raises(InvalidArgumentError, match="x must be an integer"):
        kernels.check_int(value, "x", 0)


def test_check_int_bounds():
    top = 2**64 - 1
    for value in (top, np.uint64(top), np.int64(5), 0):
        got = kernels.check_int(value, "seed", 0, top)
        assert type(got) is int and got == int(value)
    for value in (-1, 2**64, np.int64(-1)):
        with pytest.raises(InvalidArgumentError, match="seed must be in 0 .. "):
            kernels.check_int(value, "seed", 0, top)
    assert kernels.check_int(10**30, "n", 1) == 10**30  # no upper bound
    with pytest.raises(InvalidSpecError):
        kernels.check_int(0, "n", 1, error=InvalidSpecError)
