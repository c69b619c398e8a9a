"""Hot numeric kernels: packed-bit Hamming distances, GF(2) matrix rank,
and longest-run extraction, in integer-only numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# bit packing helpers

def check_bits(values, what: str = "bits") -> np.ndarray:
    """values as a uint8 array, refusing anything but exact 0/1 values:
    uint8 and bool input costs one max(), other input is compared before
    the cast, so 256 or 0.5 cannot wrap or truncate into a bit."""
    arr = np.asarray(values)
    if arr.dtype in (np.uint8, np.bool_):
        ok = not arr.size or arr.max() <= 1
    else:
        ok = np.all((arr == 0) | (arr == 1))
    if not ok:
        raise InvalidArgumentError(f"{what} must contain only 0/1 values")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-endian uint64 words.

    Trailing bits of the last word are zero-padded, so XOR + popcount over
    words never sees garbage in the pad region.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    words = (n + 63) // 64
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    pad = words * 8 - packed8.shape[-1]
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits; returns 0/1 uint8 values of length n."""
    as8 = np.ascontiguousarray(packed).view(np.uint8)
    bits = np.unpackbits(as8, axis=-1, bitorder="little")
    return bits[..., :n]


# ---------------------------------------------------------------------------
# kernels

def pairwise_hd_stats(packed: np.ndarray, nbits: int) -> tuple[int, np.ndarray]:
    """Sum and integer histogram of Hamming distances over all unordered
    row pairs of a packed (devices, words) uint64 array.

    Returns (total, hist) with hist[h] = number of pairs at distance h
    and total = sum_h h * hist[h]. Each diagonal block of rows is counted
    as a full square (its self-pairs at 0 removed, every other pair
    halved, as it appears twice) plus the rectangle to its right.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError("packed array must be 2-D (devices, words)")
    chunk = 256  # rows per block; bounds the (chunk, d, words) XOR buffer
    hist = np.zeros(nbits + 1, dtype=np.int64)
    for i0 in range(0, packed.shape[0], chunk):
        block = packed[i0:i0 + chunk]
        square = _distance_counts(block, block, nbits)
        square[0] -= block.shape[0]
        hist += square // 2 + _distance_counts(block, packed[i0 + chunk:], nbits)
    return int(hist @ np.arange(nbits + 1)), hist


def _distance_counts(a: np.ndarray, b: np.ndarray, nbits: int) -> np.ndarray:
    """Histogram of distances between every row of a and every row of b."""
    hd = np.bitwise_count(a[:, None, :] ^ b[None, :, :]).sum(axis=-1, dtype=np.intp)
    return np.bincount(hd.ravel(), minlength=nbits + 1)


def gf2_rank32(rows: np.ndarray) -> np.ndarray:
    """Rank over GF(2) of a batch of 32x32 binary matrices.

    rows has shape (batch, 32); each uint32 or uint64 holds one 32-bit
    matrix row (bit k = column k). Rows are taken in turn as pivots, with
    no swaps: a row's lowest set bit is eliminated from every other row
    holding it, and the rank is the number of rows left nonzero.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != 32:
        raise ValueError("rows must have shape (batch, 32)")
    dtype = np.uint32 if rows.dtype == np.uint32 else np.uint64
    # matrix index on the last axis: every row slice is contiguous
    m = np.array(rows.T, dtype=dtype, order="C")
    for i in range(32):
        pivot = m[i].copy()
        low = pivot & -pivot  # lowest set bit; 0 for a zero row
        m ^= pivot * ((m & low) != 0)
        m[i] = pivot  # the pivot row cleared itself
    return np.count_nonzero(m, axis=0)


def longest_one_run(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a (blocks, block_len) 0/1 array."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2:
        raise ValueError("blocks must be 2-D")
    n, m = blocks.shape
    w = m + 1
    # a zero column before each block, and one after the last, keeps every
    # run inside its block; runs then alternate start and end edges
    flat = np.zeros(n * w + 1, dtype=np.int8)
    flat[:-1].reshape(n, w)[:, 1:] = blocks
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    best = np.zeros(n, dtype=np.int64)
    np.maximum.at(best, starts // w, ends - starts)
    return best
