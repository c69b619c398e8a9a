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

* the +-1 walk S_1..S_n, built as int32 (int64 when n >= 2**31, where
  int32 could overflow) and reduced at once to S_n and the extremes of
  S_1..S_{n-1}. Frequency and runs read S_n = 2 * ones - n; the forward
  cumulative-sums statistic is max |S_k|;
* the backward cumulative-sums statistic comes from the same walk: the
  reversed sequence's partial sums are S_n - S_j for j = 0..n-1, with
  S_0 = 0, so z = max(S_n - min(0, S_1..S_{n-1}),
  max(0, S_1..S_{n-1}) - S_n). A cumulative-sums p-value depends only on
  (n, z) and is cached by that pair.

The walk, the spectral test's +-1 input, its rfft spectrum and the
magnitudes (written over the spent input) go into working arrays. For a
block of at most 2**17 bits (one 1e5-bit sequence, say) those are arrays
each thread keeps and reuses from call to call, grown to fit and never
beyond 2**17 bits' worth, about 2.5 MiB per thread in all; so a
sequence-at-a-time battery does not allocate and free about 2 MB of
temporaries per sequence, and the first use in a thread lifts glibc's
heap-trim bound above the scratch numpy's rfft allocates for itself (see
_Block.work), so neither is faulted in again per sequence. Larger blocks
allocate theirs per call, so their size bounds no retained memory.
Results do not depend on which path a block takes.
"""

from __future__ import annotations

import math
import threading
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


# Blocks of at most this many bits run on working arrays that each thread
# keeps and reuses (about 2.5 MiB per thread at most); larger blocks
# allocate theirs per call.
_RETAIN_BITS = 1 << 17


class _WorkArrays(threading.local):
    """This thread's retained working arrays, flat, by name."""

    def __init__(self):
        self.arrays = {}


_WORK = _WorkArrays()


class _Block:
    """A (sequences, n) 0/1 block and the intermediates its tests share,
    each built on first use."""

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.rows, self.n = bits.shape

    def work(self, name: str, dtype, shape: tuple) -> np.ndarray:
        """An uninitialised working array of `shape`: a view of this
        thread's retained array `name` (grown to fit) when the block holds
        at most _RETAIN_BITS bits, a new array otherwise. The caller must
        be done with it before it asks for `name` again."""
        if self.bits.size > _RETAIN_BITS:
            return np.empty(shape, dtype)
        size = math.prod(shape)
        arrays = _WORK.arrays
        buf = arrays.get(name)
        if buf is None or buf.size < size:
            if not arrays:
                # numpy's rfft allocates its own scratch inside every call,
                # about 16 bytes per bit. glibc hands freed memory at the top
                # of its heap back to the system once it exceeds twice the
                # largest mmap-ed block freed so far, so unless a block near
                # that size was freed before, the scratch is returned and
                # faulted in again on every call. Freeing one untouched
                # block of 16 bytes per retained bit lifts that bound above
                # the scratch of any block that runs on retained arrays.
                np.empty(16 * _RETAIN_BITS, dtype=np.uint8)
            buf = arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @cached_property
    def walk_range(self) -> tuple:
        """(min(0, S_1..S_{n-1}), max(0, S_1..S_{n-1}), S_n) per row of
        the +-1 walk S_1..S_n. The walk itself is not kept: a large
        block's is freed before the spectrum's arrays are allocated, and a
        small block's retained array is free for the next block."""
        walk = self.work("walk", np.int32 if self.n < 2**31 else np.int64,
                         self.bits.shape)
        np.multiply(self.bits, 2, out=walk)
        walk -= 1
        np.cumsum(walk, axis=1, out=walk)
        head = walk[:, :-1]
        return (head.min(axis=1, initial=0), head.max(axis=1, initial=0),
                walk[:, -1].astype(np.int64))


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
    if m < 1 or (m < 20 and not fixture_mode):
        raise InvalidArgumentError(f"block size {m} invalid; need at least 20")
    nblocks = blk.n // m
    if nblocks < 1:
        raise InvalidArgumentError("block size exceeds sequence length")
    pi = blk.bits[:, : nblocks * m].reshape(blk.rows, nblocks, m).mean(axis=2)
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
        z = np.maximum(np.maximum(hi, sn), -np.minimum(lo, sn))
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
    n = blk.n
    pi = (blk.walk_range[2] + n) // 2 / n
    # rows failing the prerequisite frequency condition score p = 0; below
    # 16 bits the bound exceeds 1/2, and a constant row fails it too
    ok = np.abs(pi - 0.5) < min(2.0 / math.sqrt(n), 0.5)
    p = np.zeros(blk.rows)
    v = np.full(blk.rows, np.nan)
    if ok.any():
        bits = blk.bits[ok]
        vk = np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1) + 1
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
    blocks = blk.bits[:, : nblocks * m].reshape(blk.rows * nblocks, m)
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
    mats = blk.bits[:, : nmat * 1024].reshape(blk.rows * nmat, 32, 32)
    packed8 = np.packbits(mats, axis=-1, bitorder="little")  # (.., 32, 4)
    rows = np.ascontiguousarray(packed8).view(np.uint32)[..., 0]
    ranks = kernels.gf2_rank32(rows).reshape(blk.rows, nmat)
    # classes: 0 = rank 32, 1 = rank 31, 2 = rank <= 30
    counts = _class_counts(np.minimum(32 - ranks, 2), 3)
    expected = nmat * np.array(_rank_class_probs())
    chi2 = np.sum((counts - expected) ** 2 / expected, axis=1)
    return gammaincc(1.0, chi2 / 2.0), chi2


def rank_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    return run_suite(seq, alpha, ("rank",), None, fixture_mode)["rank"]


def _dft(blk: _Block) -> tuple:
    n = blk.n
    x = blk.work("dft", np.float64, blk.bits.shape)
    np.multiply(blk.bits, 2.0, out=x)
    x -= 1.0
    spectrum = blk.work("spectrum", np.complex128, (blk.rows, n // 2 + 1))
    np.fft.rfft(x, axis=-1, out=spectrum)
    # the input is spent, so the magnitudes take its array
    magnitudes = blk.work("dft", np.float64, spectrum.shape)
    np.abs(spectrum, out=magnitudes)
    # bins 1..n/2-1: DC excluded (bin 0 is the bit-count imbalance, the
    # frequency test's statistic); expected count stays 0.95 * n/2
    magnitudes = magnitudes[:, 1 : n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = np.count_nonzero(magnitudes < threshold, axis=1)
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

# bits per block of rows; bounds the per-block walk and spectrum buffers
_BLOCK_BITS = 1 << 18


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
    Rows are processed in blocks of at most max(1, 2**18 // n) rows, so
    the shared intermediates stay bounded whatever the row count.
    """
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
    if nbits <= 0:
        raise InvalidArgumentError("nbits must be positive")
    per_seq = (nbits + 7) // 8
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % per_seq:
        raise InvalidArgumentError(
            f"file size {len(raw)} is not a multiple of {per_seq} bytes"
        )
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, per_seq)
    return kernels.unpack_bits(packed, nbits)

