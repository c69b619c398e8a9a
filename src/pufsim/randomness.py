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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    """Coerce a 0/1 string, list, array, or BitSequence to a uint8 array."""
    if isinstance(seq, BitSequence):
        return seq.bits
    if isinstance(seq, str):
        return np.frombuffer(seq.encode(), dtype=np.uint8) - ord("0")
    arr = np.asarray(seq, dtype=np.uint8)
    if arr.ndim != 1:
        raise InvalidArgumentError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise InvalidArgumentError("bit sequence must contain only 0/1")
    return arr


@dataclass(frozen=True)
class BitSequence:
    """A bit string held unpacked; n is its length."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", as_bits(self.bits))
        self.bits.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.bits.size)

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_packed(cls, raw: bytes, n: int) -> "BitSequence":
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return cls(bits[:n])

    def to_packed(self) -> bytes:
        return np.packbits(self.bits, bitorder="little").tobytes()


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
    if fixture_mode:
        return
    need = _MIN_LENGTH[name]
    if n < need:
        raise InsufficientLengthError(
            f"{name} needs at least {need} bits, got {n}"
        )


def _result(name, p, alpha, statistic) -> TestResult:
    p = float(min(max(p, 0.0), 1.0))
    return TestResult(name, (p,), alpha, float(statistic))


# ---------------------------------------------------------------------------
# the eight tests

def frequency_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    bits = as_bits(seq)
    _require_length("frequency", bits.size, fixture_mode)
    s = 2 * int(bits.sum()) - bits.size
    p = erfc(abs(s) / math.sqrt(2 * bits.size))
    return _result("frequency", p, alpha, s)


def default_block_size(n: int) -> int:
    """Block size for the block-frequency test: at least 20 and at least
    1% of the sequence, keeping the block count at or below 100."""
    return max(20, -(-n // 100))


def block_frequency_test(
    seq,
    block_size: Optional[int] = None,
    alpha: float = ALPHA_DEFAULT,
    fixture_mode: bool = False,
):
    bits = as_bits(seq)
    _require_length("block-frequency", bits.size, fixture_mode)
    m = block_size if block_size is not None else default_block_size(bits.size)
    if m < 1 or (m < 20 and not fixture_mode):
        raise InvalidArgumentError(f"block size {m} invalid; need at least 20")
    nblocks = bits.size // m
    if nblocks < 1:
        raise InvalidArgumentError("block size exceeds sequence length")
    pi = bits[: nblocks * m].reshape(nblocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    p = gammaincc(nblocks / 2.0, chi2 / 2.0)
    return _result("block-frequency", p, alpha, chi2)


def cumulative_sums_test(
    seq,
    mode: str = "forward",
    alpha: float = ALPHA_DEFAULT,
    fixture_mode: bool = False,
):
    if mode not in ("forward", "backward"):
        raise InvalidArgumentError(f"unknown scan mode {mode!r}")
    name = f"cumulative-sums-{mode}"
    bits = as_bits(seq)
    _require_length(name, bits.size, fixture_mode)
    x = 2 * bits.astype(np.int64) - 1
    if mode == "backward":
        x = x[::-1]
    z = int(np.max(np.abs(np.cumsum(x))))
    n = bits.size
    if z == 0:
        return _result(name, 1.0, alpha, 0)
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
    return _result(name, 1.0 - t1 + t2, alpha, z)


def runs_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    bits = as_bits(seq)
    _require_length("runs", bits.size, fixture_mode)
    n = bits.size
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # prerequisite frequency condition failed
        return _result("runs", 0.0, alpha, float("nan"))
    v = int(np.count_nonzero(np.diff(bits))) + 1
    p = erfc(abs(v - 2.0 * n * pi * (1 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    return _result("runs", p, alpha, v)


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


def longest_run_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    bits = as_bits(seq)
    _require_length("longest-run", bits.size, fixture_mode)
    if bits.size < 128:
        raise InsufficientLengthError("longest-run needs at least 128 bits")
    m, lo, hi = _longest_run_tier(bits.size)
    nblocks = bits.size // m
    runs = kernels.longest_one_run(bits[: nblocks * m].reshape(nblocks, m))
    clipped = np.clip(runs, lo, hi)
    counts = np.bincount(clipped - lo, minlength=hi - lo + 1)
    probs = np.array(_longest_run_class_probs(m, lo, hi))
    expected = nblocks * probs
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    k = hi - lo  # degrees of freedom: class count - 1
    p = gammaincc(k / 2.0, chi2 / 2.0)
    return _result("longest-run", p, alpha, chi2)


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


def rank_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    bits = as_bits(seq)
    _require_length("rank", bits.size, fixture_mode)
    nmat = bits.size // 1024
    if nmat < 1:
        raise InsufficientLengthError("rank needs at least one 32x32 matrix")
    mats = bits[: nmat * 1024].reshape(nmat, 32, 32)
    packed8 = np.packbits(mats, axis=-1, bitorder="little")  # (nmat, 32, 4)
    rows = np.ascontiguousarray(packed8).view(np.uint32)[..., 0].astype(np.uint64)
    ranks = kernels.gf2_rank32(rows)
    counts = np.array(
        [int((ranks == 32).sum()), int((ranks == 31).sum()), int((ranks <= 30).sum())]
    )
    probs = np.array(_rank_class_probs())
    expected = nmat * probs
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = gammaincc(1.0, chi2 / 2.0)
    return _result("rank", p, alpha, chi2)


def dft_test(seq, alpha: float = ALPHA_DEFAULT, fixture_mode: bool = False):
    bits = as_bits(seq)
    _require_length("dft", bits.size, fixture_mode)
    n = bits.size
    x = 2.0 * bits - 1.0
    # bins 1..n/2-1: DC excluded (bin 0 is the bit-count imbalance, the
    # frequency test's statistic); expected count stays 0.95 * n/2
    magnitudes = np.abs(np.fft.rfft(x))[1 : n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(magnitudes < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return _result("dft", p, alpha, d)


# ---------------------------------------------------------------------------
# suite plumbing

def check_test_names(tests: Sequence[str]) -> None:
    unknown = set(tests) - set(TEST_NAMES)
    if unknown:
        raise InvalidArgumentError(f"unknown tests: {sorted(unknown)}")


def run_suite(
    seq,
    alpha: float = ALPHA_DEFAULT,
    tests: Optional[Sequence[str]] = None,
    block_size: Optional[int] = None,
    fixture_mode: bool = False,
) -> dict:
    """Run the battery on one sequence; returns {test name: TestResult}.

    With tests=None, every test whose minimum length fits the sequence is
    run. Naming a test explicitly makes its length requirement a hard
    error instead.
    """
    bits = as_bits(seq)
    if tests is None:
        selected = [t for t in TEST_NAMES if bits.size >= _MIN_LENGTH[t]]
    else:
        check_test_names(tests)
        selected = list(tests)
    out = {}
    for name in selected:
        if name == "frequency":
            out[name] = frequency_test(bits, alpha, fixture_mode)
        elif name == "block-frequency":
            out[name] = block_frequency_test(bits, block_size, alpha, fixture_mode)
        elif name == "cumulative-sums-forward":
            out[name] = cumulative_sums_test(bits, "forward", alpha, fixture_mode)
        elif name == "cumulative-sums-backward":
            out[name] = cumulative_sums_test(bits, "backward", alpha, fixture_mode)
        elif name == "runs":
            out[name] = runs_test(bits, alpha, fixture_mode)
        elif name == "longest-run":
            out[name] = longest_run_test(bits, alpha, fixture_mode)
        elif name == "rank":
            out[name] = rank_test(bits, alpha, fixture_mode)
        elif name == "dft":
            out[name] = dft_test(bits, alpha, fixture_mode)
    return out


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


def aggregate_suite(per_sequence: Sequence[dict], alpha: float = ALPHA_DEFAULT):
    """Aggregate run_suite outputs for N sequences.

    For every test present in all sequences: k = number of sequences with
    all p-values >= alpha, plus the uniformity of the (first) p-values.
    """
    if len(per_sequence) < 2:
        raise InvalidArgumentError("aggregation needs at least 2 sequences")
    names = [t for t in TEST_NAMES if all(t in r for r in per_sequence)]
    rows = {}
    for name in names:
        results = [r[name] for r in per_sequence]
        passing = sum(1 for r in results if all(p >= alpha for p in r.p_values))
        rows[name] = {
            "passing": passing,
            "uniformity_p": uniformity_p([r.p_values[0] for r in results]),
        }
    return SuiteAggregate(num_sequences=len(per_sequence), alpha=alpha, rows=rows)


# ---------------------------------------------------------------------------
# sequence IO

def read_ascii_sequences(path) -> list:
    """One sequence per line of 0/1 characters; blank lines are skipped."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = "".join(line.split())
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise InvalidArgumentError(f"non-binary characters in {path}")
            out.append(as_bits(line))
    return out


def read_packed_sequences(path, nbits: int) -> list:
    """Raw little-bit-order packed bytes, fixed nbits per sequence."""
    if nbits <= 0:
        raise InvalidArgumentError("nbits must be positive")
    per_seq = (nbits + 7) // 8
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % per_seq:
        raise InvalidArgumentError(
            f"file size {len(raw)} is not a multiple of {per_seq} bytes"
        )
    out = []
    for off in range(0, len(raw), per_seq):
        chunk = np.frombuffer(raw[off : off + per_seq], dtype=np.uint8)
        out.append(np.unpackbits(chunk, bitorder="little")[:nbits])
    return out


def results_csv_rows(per_sequence: Sequence[dict]):
    """Flatten per-sequence results to (sequence id, test, p, passed)."""
    for idx, results in enumerate(per_sequence):
        for name in TEST_NAMES:
            if name not in results:
                continue
            r = results[name]
            for p in r.p_values:
                yield idx, name, p, r.passed
