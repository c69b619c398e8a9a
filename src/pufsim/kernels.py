"""Hot numeric kernels: packed-bit Hamming distances, GF(2) matrix rank,
and longest-run extraction, in integer-only numpy.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# bit packing helpers

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

    rows has shape (batch, 32); each uint64 holds one 32-bit matrix row
    (bit k = column k).
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.ndim != 2 or rows.shape[1] != 32:
        raise ValueError("rows must have shape (batch, 32)")
    rows = rows.copy()
    b = rows.shape[0]
    r = np.zeros(b, dtype=np.int64)
    colidx = np.arange(32)[None, :]
    for col in range(32):
        bit = np.uint64(1) << np.uint64(col)
        cand = (rows & bit) != 0
        elig = cand & (colidx >= r[:, None])
        has = elig.any(axis=1)
        bidx = np.flatnonzero(has)
        if bidx.size == 0:
            continue
        rr = r[bidx]
        piv = elig[bidx].argmax(axis=1)
        tmp = rows[bidx, rr].copy()
        rows[bidx, rr] = rows[bidx, piv]
        rows[bidx, piv] = tmp
        sub = rows[bidx]
        cand2 = (sub & bit) != 0
        cand2[np.arange(bidx.size), rr] = False
        sub ^= np.where(cand2, sub[np.arange(bidx.size), rr][:, None], np.uint64(0))
        rows[bidx] = sub
        r[bidx] = rr + 1
    return r


def longest_one_run(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a (blocks, block_len) 0/1 array."""
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2:
        raise ValueError("blocks must be 2-D")
    n, m = blocks.shape
    run = np.zeros(n, dtype=np.int64)
    best = np.zeros(n, dtype=np.int64)
    for j in range(m):
        run = (run + 1) * blocks[:, j]
        np.maximum(best, run, out=best)
    return best
