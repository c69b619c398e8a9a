"""Hot numeric kernels in integer-only numpy (packed-bit Hamming distances,
GF(2) matrix rank, longest-run extraction), and the bit, mask and integer checks.

The rank kernel eliminates each pivot's lowest set bit from the rows below
it. The longest-run kernel reads packed blocks as 16-bit units and takes
each unit's leading, trailing and inner run of ones from 65536-entry
tables, derived on first use from the 256-entry tables of a byte; one
running maximum joins the runs that cross units (see longest_one_run).

The pairwise distance histogram is cache-tiled. The packed rows are
transposed once to a word-major (words, devices) array, and distances are
computed for one tile of _TILE_ROWS rows x _TILE_COLS columns at a time,
only for columns at or right of the tile's first row. Per word, the tile
takes an XOR into one reused uint64 buffer, a popcount, and an add into
distances of the smallest unsigned dtype that holds the sentinel nbits + 1,
which marks the self-pairs and the pairs below the diagonal. Each tile is
counted with np.add.at into one int64 accumulator per call, uint8
distances two at a time through a uint16 view, which halves the count,
the costliest step; the 65536 bins are folded once at the end. The kernels
stay serial: a second thread did not speed them up on a 2-vCPU host.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EmptySignatureError, InvalidArgumentError

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


def check_mask(mask, n: int, what: str = "mask") -> tuple[np.ndarray, int]:
    """A 0/1 keep-mask over n positions as uint8, and how many positions
    it keeps; a mask of another length, or one keeping none, is refused."""
    mask = check_bits(mask, what)
    if mask.shape != (n,):
        raise InvalidArgumentError(f"{what} of shape {mask.shape} does not match n={n}")
    kept = int(mask.sum())
    if not kept:
        raise EmptySignatureError(f"{what} keeps zero positions")
    return mask, kept


def check_int(value, what: str, lo: int, hi: float = float("inf"),
              error: type = InvalidArgumentError) -> int:
    """value as a Python int, refusing anything but a Python or numpy
    integer in lo .. hi: bool, float and str are refused, not truncated,
    and a uint64 is compared as a Python int, so it keeps every bit."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, not {value!r}")
    if not lo <= int(value) <= hi:
        raise error(f"{what} must be in {lo} .. {hi}, got {value}")
    return int(value)


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself when already read-only, else a read-only view of it: an
    object can hold the array unchanged while its caller's stays writable."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


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

# pairwise tiles: rows x columns of distances computed together. The
# 32 x 4096 XOR buffer is 1 MiB of uint64, allocated once per call.
_TILE_ROWS = 32
_TILE_COLS = 4096


def pairwise_hd_stats(packed: np.ndarray, nbits: int) -> tuple[int, np.ndarray]:
    """Sum and integer histogram of Hamming distances over all unordered
    row pairs of a packed (devices, words) uint64 array.

    Returns (total, hist) with hist[h] = number of pairs at distance h
    and total = sum_h h * hist[h]. Rows are taken in tiles of _TILE_ROWS
    against the columns from the tile's first row on, _TILE_COLS at a
    time. In the leading square of each row tile, each row against itself
    and every pair below the diagonal get the sentinel distance nbits + 1,
    so every pair is counted once; the sentinel's bin is dropped at the end.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError("packed array must be 2-D (devices, words)")
    d, words = packed.shape
    cols = np.ascontiguousarray(packed.T)  # word-major: one row per word
    size = _TILE_ROWS * _TILE_COLS
    sentinel = nbits + 1
    pairs = sentinel < 256  # uint8 distances, counted two at a time as uint16
    xor = np.empty(size, dtype=np.uint64)
    ones = np.empty(size, dtype=np.uint8)  # popcounts of one word
    acc = np.empty(size + 1, dtype=np.min_scalar_type(sentinel))  # distances
    counts = np.zeros(1 << 16 if pairs else sentinel + 1, dtype=np.int64)
    for i0 in range(0, d, _TILE_ROWS):
        r = min(_TILE_ROWS, d - i0)
        for j0 in range(i0, d, _TILE_COLS):
            c = min(_TILE_COLS, d - j0)
            x, pop, tile = (buf[:r * c].reshape(r, c) for buf in (xor, ones, acc))
            for w, row in enumerate(cols):
                np.bitwise_xor(row[i0:i0 + r, None], row[None, j0:j0 + c], out=x)
                if w:
                    np.add(tile, np.bitwise_count(x, out=pop), out=tile)
                else:
                    np.bitwise_count(x, out=tile)
            if j0 == i0:
                tile[:, :r][np.tri(r, dtype=bool)] = sentinel  # the diagonal and below
            m = r * c
            acc[m] = sentinel  # an odd tail's partner in the uint16 view
            np.add.at(counts, acc[:m + (m & 1)].view(np.uint16) if pairs else acc[:m], 1)
    if pairs:  # pair (a, b) sits in bin a + 256 b, or b + 256 a by byte order
        grid = counts.reshape(256, 256)
        counts = grid.sum(axis=0) + grid.sum(axis=1)
    hist = counts[:nbits + 1]
    return int(hist @ np.arange(nbits + 1)), hist


def gf2_rank32(rows: np.ndarray) -> np.ndarray:
    """Rank over GF(2) of a batch of 32x32 binary matrices.

    rows has shape (batch, 32); each uint32 or uint64 holds one 32-bit
    matrix row (bit k = column k). Rows are taken in turn as pivots, with
    no swaps: a row's lowest set bit is eliminated from every row below it
    holding it. A row never changes after its turn as pivot, so the nonzero
    rows left have distinct lowest set bits, and their count is the rank.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != 32:
        raise ValueError("rows must have shape (batch, 32)")
    dtype = np.uint32 if rows.dtype == np.uint32 else np.uint64
    # matrix index on the last axis: every row slice is contiguous
    m = np.array(rows.T, dtype=dtype, order="C")
    for i in range(31):
        pivot, below = m[i], m[i + 1:]
        below ^= pivot * ((below & (pivot & -pivot)) != 0)  # 0 for a zero pivot
    return np.count_nonzero(m, axis=0)


@lru_cache(maxsize=1)
def _unit_tables() -> tuple:
    """(lead, trail, inner) uint8 of each 16-bit unit value, bit 0 first:
    its run of ones at the start, at the end, and its longest. They are
    joined from a byte's on a (high byte, low byte) grid, on first use, so
    a process that runs no battery does not hold them."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little")
    full = bits.all(axis=1)
    lead8 = np.where(full, 8, bits.argmin(axis=1)).astype(np.uint8)
    trail8 = np.where(full, 8, bits[:, ::-1].argmin(axis=1)).astype(np.uint8)
    inner8 = run = np.zeros(256, np.uint8)
    for column in bits.T:
        run = (run + 1) * column
        inner8 = np.maximum(inner8, run)
    lead = np.where(full[None, :], 8 + lead8[:, None], lead8[None, :])
    trail = np.where(full[:, None], 8 + trail8[None, :], trail8[:, None])
    inner = np.maximum(np.maximum(inner8[None, :], inner8[:, None]),
                       trail8[None, :] + lead8[:, None])
    return tuple(read_only(t.ravel()) for t in (lead, trail, inner))


_UNIT = 16  # bits per unit


def longest_one_run(packed: np.ndarray) -> np.ndarray:
    """Longest run of ones in each block of a (blocks, bytes) uint8 array,
    bit k of a block at bit k % 8 of its byte k // 8 (pack_bits' order),
    with zero bits past each block's end.

    Each block is read as 16-bit units closed by one zero unit, so no run
    reaches the next block. A unit's lead, trail and inner runs come
    from 65536-entry tables. The run that reaches the end of unit p started
    after the last unit q <= p that is not all ones, so its length is
    (p + 1) W - ((q + 1) W - trail_q), W = 16; (q + 1) W - trail_q rises
    with q, as trail_q < W, so one running maximum carries it forward over
    the all-ones units. A block's longest run is the largest of each unit's
    inner run and the run reaching the unit before it joined to its lead.
    """
    packed = np.asarray(packed)
    if packed.ndim != 2 or packed.dtype != np.uint8:
        raise ValueError("packed blocks must be a 2-D uint8 array")
    n, nbytes = packed.shape
    # the units of a block, and the zero unit closing a block of more than one
    width = 1 if nbytes <= 2 else (nbytes + 1) // 2 + 1
    units = np.zeros((n, width), "<u2")
    units.view(np.uint8)[:, :nbytes] = packed
    lead, trail, inner = _unit_tables()
    if width == 1 or not n:  # one unit's inner run is its block's answer
        return np.take(inner, units[:, 0]).astype(np.int64)
    units = units.reshape(-1)
    dtype = np.int32 if (units.size + 1) * _UNIT < 2**31 else np.int64
    ends = np.arange(_UNIT, (units.size + 1) * _UNIT, _UNIT, dtype=dtype)
    start = np.where(units == 0xFFFF, 0, ends - np.take(trail, units))
    np.maximum.accumulate(start, out=start)
    best = np.empty_like(start)
    best[0] = 0
    np.subtract(ends[:-1], start[:-1], out=best[1:])  # the run reaching unit p - 1
    best += np.take(lead, units)
    np.maximum(best, np.take(inner, units), out=best)
    # a reduceat over the blocks' units beats a max along a short axis
    return np.maximum.reduceat(best, np.arange(0, best.size, width)).astype(np.int64)
