"""Statistical randomness battery: eight SP 800-22 tests plus the
two-level aggregation (proportion of passing sequences and p-value
uniformity) used to summarize many sequences.

Implemented tests: frequency, block frequency, cumulative sums (forward
and backward), runs, longest run of ones, binary matrix rank, and the
spectral (DFT) test. Significance conventions:

* p-values come from scipy's erfc / regularized upper incomplete gamma,
  good to far below the 1e-10 tail error this battery needs;
* the cumulative-sums summation bounds use integer division with
  truncation toward zero, matching the reference implementation of the
  published worked example;
* longest-run class probabilities are computed exactly from the finite
  block-length run distribution (a 2^-M transition-matrix power) rather
  than the four-digit rounded tables, which is what the published
  worked-example p-value was produced with;
* the spectral test counts magnitudes over bins 1..n/2-1, exclusive of
  the DC bin (bin 0 is the plain bit-count imbalance, already covered by
  the frequency test), with the expected count kept at 0.95*n/2.

Minimum-length preconditions reject short input unless fixture_mode is
passed, which exists so the short published worked examples can serve as
oracles.

Every test has one batched core over a (sequences, n) block, returning
per-row p-value and statistic arrays; `run_suite_block` is the cores' one
caller. It runs the selected cores over bounded blocks of rows into one
SuiteTable: a (rows, tests) array of p-values and one of statistics.
`run_suite(seq)` is that table's row 0 as {test name: TestResult}, and
each public `*_test(seq)` is run_suite on its one test. The aggregate,
`nist.csv` and `pufsim nist` read the table's columns. Intermediates the
tests share are built once per block:

* one packing of the rows: bit k of a row is bit k % 8 of its byte
  k // 8, zero-padded to whole 64-bit words. Every core but the spectrum
  reads it: through 256-entry tables of a byte's walk and neighbour pairs,
  as words, or, for longest run, as one row of bytes per block;
* the +-1 walk's S_n and the extremes of S_1..S_n, from a byte's net step
  and its highest and lowest point, and one cumsum of the net steps over
  bytes. Frequency and runs read S_n = 2 * ones - n, the runs
  prerequisite in integers; the forward cumulative-sums statistic is
  max |S_k|;
* the backward cumulative-sums statistic comes from the same walk: the
  reversed sequence's partial sums are S_n - S_j for j = 0..n-1, with
  S_0 = 0, so z = max(S_n - min(0, S_1..S_{n-1}),
  max(0, S_1..S_{n-1}) - S_n). Taking S_n into the extremes changes
  neither z: it is a term of the forward maximum already, and on the
  backward side it adds only the candidate S_n - S_n = 0, while z is at
  least |S_n|. A cumulative-sums p-value depends only on (n, z) and
  is cached by that pair;
* the runs test's count of differing neighbours, from a table of the
  seven pairs inside each byte and one compare per byte boundary; the
  block-frequency test's ones per block, from the words' popcounts summed
  between block edges and the bits of an edge's word below it.

Working arrays are allocated per block. The packed cores' temporaries
take a few bytes per packed byte, about 1 MiB at 640 000 bits, so only
the spectral test works in parts. A block of rows of at most _BLOCK_BITS
bits takes one rfft of each whole row, its magnitudes written over the
spent +-1 input. A longer row (only concatenated mode and `pufsim nist
--concatenate` make one) is a block of its own, whose spectrum comes from
R interleaved sub-rows of M = n / R <= _BLOCK_BITS points joined by a
decimation in time (_decimated_count): 6.2 MiB of tracemalloc peak at
640 000 bits, against 10.1 MiB for the whole-row rfft. The two differ by
float64 rounding, about 1e-12 there, so where a magnitude lies within
_DFT_MARGIN * T of the threshold T, or n has no such R (a prime, say),
the row falls back to the whole-row rfft, whose count n1 always is.
Importing this module lifts glibc's heap-trim bound once (see the
statement before _Block), so a sequence-at-a-time battery reuses the
same heap pages for those arrays and for the scratch numpy's rfft
allocates for itself, instead of faulting them in again per sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfc, gammaincc

from . import kernels
from .errors import InsufficientLengthError, InvalidArgumentError

ALPHA_DEFAULT = 0.001

TEST_NAMES = (
    "frequency",
    "block-frequency",
    "cumulative-sums-forward",
    "cumulative-sums-backward",
    "runs",
    "longest-run",
    "rank",
    "dft",
)

_MIN_LENGTH = {
    "frequency": 100,
    "block-frequency": 100,
    "cumulative-sums-forward": 100,
    "cumulative-sums-backward": 100,
    "runs": 100,
    "longest-run": 128,
    "rank": 38912,
    "dft": 1000,
}


def as_bits(seq) -> np.ndarray:
    """Coerce a 0/1 string, list or array to a uint8 array."""
    if isinstance(seq, str):
        # characters other than '0' and '1' land above 1 after subtracting '0'
        seq = np.frombuffer(seq.encode(), dtype=np.uint8) - ord("0")
    arr = kernels.check_bits(seq, "bit sequence")
    if arr.ndim != 1:
        raise InvalidArgumentError("bit sequence must be one-dimensional")
    return arr


@dataclass(frozen=True)
class TestResult:
    """One test's p-value(s) and verdict at significance alpha.

    passed is true exactly when every reported p-value is >= alpha.
    """

    __test__ = False  # not a pytest case despite the name

    test_name: str
    p_values: tuple
    alpha: float
    statistic: float

    @property
    def passed(self) -> bool:
        return all(p >= self.alpha for p in self.p_values)

    @property
    def p_value(self) -> float:
        return self.p_values[0]


def _require_length(name: str, n: int, fixture_mode: bool):
    if n == 0:
        raise InsufficientLengthError(f"{name} needs a non-empty sequence")
    if fixture_mode:
        return
    need = _MIN_LENGTH[name]
    if n < need:
        raise InsufficientLengthError(
            f"{name} needs at least {need} bits, got {n}"
        )


# numpy's rfft allocates its own scratch inside every call, about 16 bytes
# per bit, and the block's working arrays come and go with every block.
# glibc serves a request above its mmap threshold (128 KiB at start) with
# mmap, and hands freed memory at the top of its heap back to the system
# once that exceeds its trim threshold, so both would be faulted in again
# on every call. Freeing one untouched mmap-ed block raises the mmap
# threshold to its size and the trim threshold to twice that; 16 bytes per
# bit of a 2**17-bit block (one 1e5-bit sequence, say) puts both above
# what such a block allocates. The readout's per-range temporaries
# (signature._resolve), up to 512 KiB each, rely on the lift too. This is
# the one place the heap policy lives.
np.empty(16 << 17, dtype=np.uint8)


class _Block:
    """A (sequences, n) 0/1 block and the intermediates its tests share,
    each built on first use. The counting cores read the rows' one packing,
    `packed`; only the spectrum reads the 0/1 bits."""

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.rows, self.n = bits.shape

    @cached_property
    def packed(self) -> np.ndarray:
        """(rows, 8 ceil(n / 64)) uint8: bit k of a row is bit k % 8 of its
        byte k // 8, zero-padded to whole 64-bit words for block_ones."""
        return kernels.pack_bits(self.bits).view(np.uint8)

    @cached_property
    def walk_range(self) -> tuple:
        """(min(0, S_1..S_n), max(0, S_1..S_n), S_n) per row of the +-1
        walk S_1..S_n, as int64. The extremes take in S_n, which changes
        neither cumulative-sums z (see the module docstring). Byte j's
        extremes are the walk at its end, E_j, plus the table's rise or
        dip for its value, and E comes from one cumsum of the whole bytes'
        net steps, in int32 where n < 2**31; the n % 8 bits of a padded
        last byte are stepped one by one. No array of the walk is kept."""
        net, rise, dip, _ = _byte_tables()
        whole, r = divmod(self.n, 8)
        v = self.packed[:, :whole]
        end = np.zeros((self.rows, whole + 1), np.int32 if self.n < 2**31 else np.int64)
        np.cumsum(np.take(net, v), axis=1, dtype=end.dtype, out=end[:, 1:])
        hi = np.add(end[:, 1:], np.take(rise, v)).max(axis=1, initial=0).astype(np.int64)
        lo = np.add(end[:, 1:], np.take(dip, v)).min(axis=1, initial=0).astype(np.int64)
        s = end[:, -1].astype(np.int64)
        if r:
            bits = self.packed[:, whole, None] >> np.arange(r, dtype=np.uint8) & 1
            tail = np.cumsum(bits * np.int64(2) - 1, axis=1) + s[:, None]
            np.maximum(hi, tail.max(axis=1), out=hi)
            np.minimum(lo, tail.min(axis=1), out=lo)
            s = tail[:, -1]
        return lo, hi, s

    @cached_property
    def transitions(self) -> np.ndarray:
        """Per row, the number of k in 1..n-1 where bit k differs from bit
        k + 1: the seven pairs inside each byte from a table, the pair
        across each byte boundary from one compare."""
        v = self.packed[:, : -(-self.n // 8)]
        count = np.take(_byte_tables()[3], v).sum(axis=1, dtype=np.int64)
        count += np.count_nonzero((v[:, :-1] >> 7) != (v[:, 1:] & 1), axis=1)
        r = self.n % 8
        if r:  # the last bit against the zero padding above it
            count -= (v[:, -1] >> (r - 1)) & 1
        return count

    def block_ones(self, m: int) -> np.ndarray:
        """(rows, n // m) int64: the ones in each whole m-bit block. Block k
        covers bits e_k .. e_{k+1} - 1, e_k = k m: the popcounts of 64-bit
        words e_k // 64 .. e_{k+1} // 64 - 1, less the bits of word
        e_k // 64 below e_k, plus those of word e_{k+1} // 64 below e_{k+1}."""
        words = self.packed.view("<u8")
        edges = np.arange(self.n // m + 1) * m
        whole, r = edges >> 6, edges & 63
        counts = np.zeros((self.rows, words.shape[1] + 1), np.uint8)
        np.bitwise_count(words, out=counts[:, :-1])
        ones = np.add.reduceat(counts, whole, axis=1, dtype=np.int64)[:, :-1]
        ones[:, whole[1:] == whole[:-1]] = 0  # reduceat's value for an empty range
        # an edge at bit n of a whole last word reads no word: its mask is 0
        inside = np.take(words, np.minimum(whole, words.shape[1] - 1), axis=1)
        below = np.bitwise_count(inside & _LOW[r])
        ones += below[:, 1:]
        ones -= below[:, :-1]
        return ones


@lru_cache(maxsize=1)
def _byte_tables() -> tuple:
    """(net, rise, dip, flips) per byte value, bit k of a byte being step
    k + 1 of its walk: the net step, the walk's highest and lowest point
    within the byte less its net (so byte j's extremes are E_j plus these,
    E_j the walk at its end), and the differing neighbour pairs among its
    eight bits. Built on first use, like the longest-run kernel's tables."""
    every = np.arange(256, dtype=np.uint8)
    bits = np.unpackbits(every[:, None], axis=1, bitorder="little").astype(np.int8)
    steps = np.cumsum(bits * 2 - 1, axis=1, dtype=np.int8)
    net = steps[:, -1]
    flips = np.bitwise_count((every ^ (every >> 1)) & 0x7F)
    return tuple(kernels.read_only(t) for t in
                 (net, steps.max(axis=1) - net, steps.min(axis=1) - net, flips))


# the masks of a 64-bit word's low r bits, r = 0..63
_LOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


# ---------------------------------------------------------------------------
# the eight tests: a batched core over a _Block each, returning per-row
# (p-value, statistic) arrays, and the public single-sequence form

def _frequency(blk: _Block) -> tuple:
    s = blk.walk_range[2]
    return erfc(np.abs(s) / math.sqrt(2 * blk.n)), s


def frequency_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("frequency",), None, fixture_mode)["frequency"]


def default_block_size(n: int) -> int:
    """Block size for the block-frequency test: at least 20 and at least
    1% of the sequence, keeping the block count at or below 100."""
    return max(20, -(-n // 100))


def _block_frequency(blk: _Block, block_size: Optional[int],
                     fixture_mode: bool) -> tuple:
    m = block_size if block_size is not None else default_block_size(blk.n)
    kernels.check_int(m, "block size", 1 if fixture_mode else 20)
    nblocks = blk.n // m
    if nblocks < 1:
        raise InvalidArgumentError("block size exceeds sequence length")
    pi = blk.block_ones(m) / m
    chi2 = 4.0 * m * np.sum((pi - 0.5) ** 2, axis=1)
    return gammaincc(nblocks / 2.0, chi2 / 2.0), chi2


def block_frequency_test(
    seq,
    block_size: Optional[int] = None,
    alpha: float = ALPHA_DEFAULT,
    fixture_mode: bool = False,
):
    return run_suite(seq, alpha, ("block-frequency",), block_size,
                     fixture_mode)["block-frequency"]


@lru_cache(maxsize=4096)
def _cusum_p(n: int, z: int) -> float:
    """Cumulative-sums p-value of an n-bit sequence whose walk reaches z."""
    sn = math.sqrt(n)
    # summation bounds via integer division truncating toward zero, the
    # convention the published worked-example value was computed with
    nz = int(n / z)
    k1 = np.arange(int((-nz + 1) / 4), int((nz - 1) / 4) + 1)
    k2 = np.arange(int((-nz - 3) / 4), int((nz - 1) / 4) + 1)

    def phi(v):
        return 0.5 * erfc(-v / math.sqrt(2.0))

    t1 = np.sum(phi((4 * k1 + 1) * z / sn) - phi((4 * k1 - 1) * z / sn))
    t2 = np.sum(phi((4 * k2 + 3) * z / sn) - phi((4 * k2 + 1) * z / sn))
    return 1.0 - t1 + t2


def _cumulative_sums(blk: _Block, mode: str) -> tuple:
    lo, hi, sn = blk.walk_range
    if mode == "forward":
        z = np.maximum(hi, -lo)
    else:
        # the backward walk's partial sums are S_n - S_j for j = 0..n-1
        z = np.maximum(sn - lo, hi - sn)
    return [_cusum_p(blk.n, zi) for zi in z.tolist()], z


def cumulative_sums_test(
    seq,
    mode: str = "forward",
    alpha: float = ALPHA_DEFAULT,
    fixture_mode: bool = False,
):
    if mode not in ("forward", "backward"):
        raise InvalidArgumentError(f"unknown scan mode {mode!r}")
    name = f"cumulative-sums-{mode}"
    return run_suite(seq, alpha, (name,), None, fixture_mode)[name]


def _runs(blk: _Block) -> tuple:
    n, s = blk.n, blk.walk_range[2]
    pi = (s + n) // 2 / n
    # rows failing the prerequisite |pi - 1/2| < min(2 / sqrt(n), 1/2) score
    # p = 0, decided in integers: with pi - 1/2 = S_n / 2n it is S_n**2 < 16 n,
    # and below 16 bits, where the bound is 1/2, |S_n| < n (a constant row
    # fails it); each clause implies the other where it does not bind
    ok = (s * s < 16 * n) & (np.abs(s) < n)
    p = np.zeros(blk.rows)
    v = np.full(blk.rows, np.nan)
    if ok.any():
        vk = blk.transitions[ok] + 1
        pk = pi[ok]
        p[ok] = erfc(np.abs(vk - 2.0 * n * pk * (1 - pk))
                     / (2.0 * math.sqrt(2.0 * n) * pk * (1 - pk)))
        v[ok] = vk
    return p, v


def runs_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("runs",), None, fixture_mode)["runs"]


@lru_cache(maxsize=None)
def _longest_run_class_probs(m: int, lo: int, hi: int) -> tuple:
    """Exact class probabilities for the longest 1-run in an m-bit fair
    block, classes (<=lo, lo+1, ..., hi-1, >=hi)."""

    def p_le(v: int) -> float:
        if v >= m:
            return 1.0
        size = v + 1  # state = current trailing run length, runs > v die
        t = np.zeros((size, size))
        t[:, 0] = 0.5
        for k in range(v):
            t[k, k + 1] = 0.5
        state = np.zeros(size)
        state[0] = 1.0
        return float((state @ np.linalg.matrix_power(t, m)).sum())

    cdf = {v: p_le(v) for v in range(lo - 1, hi)}
    probs = [cdf[lo]]
    probs.extend(cdf[v] - cdf[v - 1] for v in range(lo + 1, hi))
    probs.append(1.0 - cdf[hi - 1])
    return tuple(probs)


def _longest_run_tier(n: int):
    if n < 6272:
        return 8, 1, 4
    if n < 750000:
        return 128, 4, 9
    return 10000, 10, 16


def _class_counts(classes: np.ndarray, k: int) -> np.ndarray:
    """Per-row counts of the values 0..k-1 in a (rows, items) array."""
    rows = classes.shape[0]
    offset = np.arange(rows)[:, None] * k
    return np.bincount((classes + offset).ravel(), minlength=rows * k).reshape(rows, k)


def _longest_run(blk: _Block) -> tuple:
    if blk.n < 128:
        raise InsufficientLengthError("longest-run needs at least 128 bits")
    m, lo, hi = _longest_run_tier(blk.n)
    nblocks = blk.n // m
    # every tier's m is whole bytes: one row of packed bytes per block
    blocks = blk.packed[:, : nblocks * m // 8].reshape(blk.rows * nblocks, m // 8)
    runs = kernels.longest_one_run(blocks).reshape(blk.rows, nblocks)
    counts = _class_counts(np.clip(runs, lo, hi) - lo, hi - lo + 1)
    probs = np.array(_longest_run_class_probs(m, lo, hi))
    expected = nblocks * probs
    chi2 = np.sum((counts - expected) ** 2 / expected, axis=1)
    k = hi - lo  # degrees of freedom: class count - 1
    return gammaincc(k / 2.0, chi2 / 2.0), chi2


def longest_run_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("longest-run",), None, fixture_mode)["longest-run"]


@lru_cache(maxsize=1)
def _rank_class_probs() -> tuple:
    """Full-precision probabilities of rank {32, 31, <=30} for a random
    32x32 matrix over GF(2)."""

    def pr(r: int, m: int = 32, q: int = 32) -> float:
        p = 2.0 ** (r * (q + m - r) - m * q)
        for i in range(r):
            p *= (1 - 2.0 ** (i - q)) * (1 - 2.0 ** (i - m)) / (1 - 2.0 ** (i - r))
        return p

    full, minus1 = pr(32), pr(31)
    return full, minus1, 1.0 - full - minus1


def _rank(blk: _Block) -> tuple:
    nmat = blk.n // 1024
    if nmat < 1:
        raise InsufficientLengthError("rank needs at least one 32x32 matrix")
    # each 32-bit matrix row is four packed bytes, read as one little-endian word
    rows = np.ascontiguousarray(blk.packed[:, : nmat * 128]).view("<u4")
    ranks = kernels.gf2_rank32(rows.reshape(-1, 32)).reshape(blk.rows, nmat)
    # classes: 0 = rank 32, 1 = rank 31, 2 = rank <= 30
    counts = _class_counts(np.minimum(32 - ranks, 2), 3)
    expected = nmat * np.array(_rank_class_probs())
    chi2 = np.sum((counts - expected) ** 2 / expected, axis=1)
    return gammaincc(1.0, chi2 / 2.0), chi2


def rank_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("rank",), None, fixture_mode)["rank"]


def _whole_row_count(bits: np.ndarray, threshold: float) -> np.ndarray:
    """Per row of a (rows, n) 0/1 array, the number of DFT magnitudes of
    its +-1 form below threshold over bins 1..n/2-1, from one rfft of each
    whole row. Bin 0 is the bit-count imbalance, the frequency test's
    statistic."""
    n = bits.shape[1]
    x = np.multiply(bits, 2.0)
    x -= 1.0
    spectrum = np.fft.rfft(x, axis=-1)
    # the input is spent, so the magnitudes take its array
    magnitudes = x.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
    np.abs(spectrum, out=magnitudes)
    return np.count_nonzero(magnitudes[:, 1 : n // 2] < threshold, axis=1)


def _sub_rows(n: int) -> Optional[int]:
    """The least divisor R of n with n / R <= _BLOCK_BITS and R <= n / R,
    or None (n prime, say)."""
    for r in range(-(-n // _BLOCK_BITS), math.isqrt(n) + 1):
        if n % r == 0:
            return r
    return None


def _decimated_count(row: np.ndarray, threshold: float) -> Optional[int]:
    """_whole_row_count of one 0/1 row longer than _BLOCK_BITS, from one
    decimation in time (Cooley and Tukey, 1965) that holds no whole-length
    array but the (R, M/2 + 1) spectra of its sub-rows; None where the
    row has no such split or a magnitude lies within _DFT_MARGIN *
    threshold of threshold, so the count could differ from the whole-row
    rfft's.

    With n = R M, w = exp(-2 pi i / n) and Y_r the spectrum of the
    sub-row x[r::R], X[k + M q] = sum_r w^(r k) Y_r[k] exp(-2 pi i r q / R):
    a twiddle, then an R-point DFT over r. Taking k over rfft's columns
    0..M/2 only reaches the bins j with j mod M <= M/2; every other bin
    has the magnitude of bin n - j, which is reached.
    """
    n = row.size
    r_count = _sub_rows(n)
    if r_count is None:
        return None
    m = n // r_count
    y = np.empty((r_count, m // 2 + 1), dtype=np.complex128)
    sub = np.empty(m)
    for i in range(r_count):
        np.multiply(row[i::r_count], 2.0, out=sub)
        sub -= 1.0
        np.fft.rfft(sub, out=y[i])
    del sub
    half, margin = n // 2, _DFT_MARGIN * threshold
    r = np.arange(r_count)[:, None]
    cols = max(1, (_BLOCK_BITS >> 4) // r_count)  # columns per chunk

    def twiddle(t):  # w^t from the exact integer t mod n
        return np.exp(t % n * (-2j * math.pi / n))

    # w^(r k) = w^(r k0) w^(r (k - k0)): one table over a chunk's columns,
    # times one factor per sub-row
    table = twiddle(r * np.arange(cols))
    below = 0
    for k0 in range(0, y.shape[1], cols):
        k = np.arange(k0, min(k0 + cols, y.shape[1]))
        z = y[:, k0 : k0 + k.size] * table[:, : k.size]
        z *= twiddle(r * k0)
        magnitudes = np.abs(np.fft.fft(z, axis=0))
        if np.any(np.abs(magnitudes - threshold) <= margin):
            return None
        j = k + m * r
        # each bin b in 1..n/2-1 once: at j = b, or, where b mod M > M/2
        # has no rfft column, at j = n - b (0 < k < M/2), as |X[n - b]| = |X[b]|
        counted = ((j >= 1) & (j < half)) | ((j > n - half) & (k > 0) & (2 * k < m))
        below += np.count_nonzero((magnitudes < threshold) & counted)
    return below


def _long_row_count(row: np.ndarray, threshold: float) -> int:
    count = _decimated_count(row, threshold)
    # the whole-row fallback runs once the sub-row spectra are freed
    return _whole_row_count(row[None], threshold)[0] if count is None else count


def _dft(blk: _Block) -> tuple:
    n = blk.n
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    if n <= _BLOCK_BITS:
        n1 = _whole_row_count(blk.bits, threshold)
    else:
        n1 = np.array([_long_row_count(row, threshold) for row in blk.bits])
    # bins 1..n/2-1, DC excluded; the expected count stays 0.95 * n/2
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return erfc(np.abs(d) / math.sqrt(2.0)), d


def dft_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("dft",), None, fixture_mode)["dft"]


# ---------------------------------------------------------------------------
# suite plumbing

# each test's core, called as core(block, block_size, fixture_mode)
_CORES = {
    "frequency": lambda blk, m, fx: _frequency(blk),
    "block-frequency": _block_frequency,
    "cumulative-sums-forward": lambda blk, m, fx: _cumulative_sums(blk, "forward"),
    "cumulative-sums-backward": lambda blk, m, fx: _cumulative_sums(blk, "backward"),
    "runs": lambda blk, m, fx: _runs(blk),
    "longest-run": lambda blk, m, fx: _longest_run(blk),
    "rank": lambda blk, m, fx: _rank(blk),
    "dft": lambda blk, m, fx: _dft(blk),
}

# bits per block of rows, and the most points of one rfft: a longer row's
# spectrum comes from sub-rows of at most this many (see the module docstring)
_BLOCK_BITS = 1 << 18

# a long row whose spectrum has a magnitude within _DFT_MARGIN * T of the
# threshold T takes the whole-row rfft, so its count cannot differ
_DFT_MARGIN = 2.0**-30


def check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")


def check_test_names(tests: Sequence[str]) -> None:
    unknown = set(tests) - set(TEST_NAMES)
    if unknown:
        raise InvalidArgumentError(f"unknown tests: {sorted(unknown)}")


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class SuiteTable:
    """Battery results of a block of sequences: (rows, tests) float64
    arrays of p-values, clipped to [0, 1], and statistics, the columns
    following `tests` in TEST_NAMES order. A NaN p-value marks a test that
    did not run on that row (only where tables of different sequence
    lengths were joined)."""

    tests: tuple
    p_values: np.ndarray
    statistics: np.ndarray
    alpha: float

    def __len__(self) -> int:
        return len(self.p_values)

    def row(self, i: int) -> dict:
        """{test name: TestResult} of row i, over the tests it ran."""
        return {name: TestResult(name, (p,), self.alpha, st)
                for name, p, st in zip(self.tests, self.p_values[i].tolist(),
                                       self.statistics[i].tolist())
                if not math.isnan(p)}

    def cells(self):
        """(row, test, p-value, passed) of every test run, row by row."""
        passed = (self.p_values >= self.alpha).tolist()
        for i, (ps, oks) in enumerate(zip(self.p_values.tolist(), passed)):
            for name, p, ok in zip(self.tests, ps, oks):
                if not math.isnan(p):
                    yield i, name, p, ok


def run_suite_block(
    block,
    alpha: float = ALPHA_DEFAULT,
    tests: Optional[Sequence[str]] = None,
    block_size: Optional[int] = None,
    fixture_mode: bool = False,
) -> SuiteTable:
    """Run the battery on every row of a (sequences, n) 0/1 block; returns
    one SuiteTable with a row per sequence and a column per test run.

    With tests=None, every test whose minimum length fits n is run. Naming
    a test explicitly makes its length requirement a hard error instead.
    Rows are processed in blocks of max(1, _BLOCK_BITS // n) rows, so the
    shared intermediates stay bounded whatever the row count. A row longer
    than _BLOCK_BITS is a block of its own whose spectrum comes from
    sub-rows of at most _BLOCK_BITS points, or from one whole-row rfft
    where a magnitude lies within _DFT_MARGIN * T of the threshold T or n
    has no fitting divisor, so its count equals the whole-row one.
    """
    check_alpha(alpha)
    bits = np.ascontiguousarray(kernels.check_bits(block, "sequence block"))
    if bits.ndim != 2:
        raise InvalidArgumentError("sequence block must be two-dimensional")
    n = bits.shape[1]
    if tests is None:
        selected = [t for t in TEST_NAMES if n >= _MIN_LENGTH[t]]
    else:
        check_test_names(tests)
        selected = [t for t in TEST_NAMES if t in tests]
        for name in selected:
            _require_length(name, n, fixture_mode)
    shape = (bits.shape[0], len(selected))
    p, statistics = np.empty(shape), np.empty(shape)
    step = max(1, _BLOCK_BITS // max(n, 1))
    for r0 in range(0, bits.shape[0], step):
        blk = _Block(bits[r0 : r0 + step])
        for j, name in enumerate(selected):
            p[r0 : r0 + blk.rows, j], statistics[r0 : r0 + blk.rows, j] = (
                _CORES[name](blk, block_size, fixture_mode))
    np.clip(p, 0.0, 1.0, out=p)
    return SuiteTable(tuple(selected), p, statistics, alpha)


def run_suite(
    seq,
    alpha: float = ALPHA_DEFAULT,
    tests: Optional[Sequence[str]] = None,
    block_size: Optional[int] = None,
    fixture_mode: bool = False,
) -> dict:
    """Run the battery on one sequence; returns {test name: TestResult}.

    The single-row form of run_suite_block, with the same test selection.
    """
    return run_suite_block(as_bits(seq)[None], alpha, tests, block_size,
                           fixture_mode).row(0)


@dataclass(frozen=True)
class SuiteAggregate:
    """Per-test passing counts and p-value uniformity over N sequences."""

    num_sequences: int
    alpha: float
    rows: dict  # test name -> {"passing": k, "uniformity_p": float}

    def passing_string(self, test_name: str) -> str:
        return f"{self.rows[test_name]['passing']}/{self.num_sequences}"


def uniformity_p(p_values: Sequence[float]) -> float:
    """Chi-square goodness of fit of p-values against uniformity over ten
    equal bins; p-values of exactly 1.0 land in the top bin."""
    pv = np.asarray(p_values, dtype=np.float64)
    bins = np.minimum((pv * 10).astype(np.int64), 9)
    counts = np.bincount(bins, minlength=10)
    expected = pv.size / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc(4.5, chi2 / 2.0))


def aggregate_suite(results, alpha: float = ALPHA_DEFAULT) -> SuiteAggregate:
    """Aggregate the battery results of N sequences: a SuiteTable, or a
    list of run_suite dicts.

    For every test run on all sequences: k = number of sequences whose
    p-value is >= alpha, plus the uniformity of the p-values.
    """
    check_alpha(alpha)
    if isinstance(results, SuiteTable):
        tests, p = results.tests, results.p_values
    else:
        tests = [t for t in TEST_NAMES if all(t in r for r in results)]
        p = np.array([[r[t].p_value for t in tests] for r in results],
                     dtype=np.float64).reshape(len(results), len(tests))
    if len(p) < 2:
        raise InvalidArgumentError("aggregation needs at least 2 sequences")
    rows = {name: {"passing": int(np.count_nonzero(col >= alpha)),
                   "uniformity_p": uniformity_p(col)}
            for name, col in zip(tests, p.T) if not np.isnan(col).any()}
    return SuiteAggregate(num_sequences=len(p), alpha=alpha, rows=rows)


# ---------------------------------------------------------------------------
# sequence IO

def read_ascii_sequences(path) -> list:
    """One sequence per line of 0/1 characters; blank lines are skipped."""
    with open(path) as fh:
        lines = ["".join(line.split()) for line in fh]
    try:
        return [as_bits(line) for line in lines if line]
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None


def read_packed_sequences(path, nbits: int) -> np.ndarray:
    """Raw little-bit-order packed bytes, fixed nbits per sequence; returns
    a (sequences, nbits) array whose rows are the sequences."""
    kernels.check_int(nbits, "nbits", 1)
    per_seq = (nbits + 7) // 8
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % per_seq:
        raise InvalidArgumentError(
            f"file size {len(raw)} is not a multiple of {per_seq} bytes"
        )
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, per_seq)
    return kernels.unpack_bits(packed, nbits)

