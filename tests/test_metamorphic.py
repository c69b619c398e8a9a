"""Metamorphic relations over the public pipeline and battery functions.

A relation compares two calls on inputs that differ by a transformation
whose effect on the output is known, so it needs no oracle and holds at
any shape. hypothesis searches the shapes.

Pipeline: a session of d devices x t trials x n bits, columns biased at
0.2, 0.5, 0.8 or 0.95 and 5% of trial bits flipped, is enrolled
(`enroll_golden`), masked (`eliminate_biased_positions`, or no mask where
it keeps no position) and scored (`compute_report`), and the entry is
compared as sorted JSON:

* devices permuted: the same mask and entry;
* columns permuted: the mask permuted the same way, and the same entry;
* every bit complemented: the same mask, and the same entry but the ones
  fraction, which becomes one less it;
* trials 1.. permuted, trial 0 kept: the same entry, an even t included,
  since an exact tie takes trial 0's bit.

Battery (`run_suite_block`):

* reversing a row swaps the two cumulative-sums results and leaves
  frequency, runs and, where no magnitude lies within _DFT_MARGIN * T of
  the threshold T, dft bit-exact;
* complementing a row leaves frequency (whose statistic S_n changes
  sign), both cumulative sums and dft bit-exact; block-frequency and runs
  move by float rounding only, as k/m and (n - k)/m round differently;
* reversing a row leaves longest run bit-exact where n is a multiple of
  the tier's block length m (the blocks come back reversed and in reverse
  order), and rank where n is a multiple of 1024 (a reversed matrix has
  its rows and columns reversed). Off those multiples the blocks and
  matrices cover other bits, so n is drawn on them.

As in test_input_fuzz.py, the examples are derandomized, fixed in number
and kept in no database, so every run tries the same cases.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pufsim import randomness  # noqa: E402
from pufsim.errors import EmptySignatureError  # noqa: E402
from pufsim.metrics import compute_report  # noqa: E402
from pufsim.randomness import run_suite_block  # noqa: E402
from pufsim.signature import (  # noqa: E402
    SignatureSet, eliminate_biased_positions, enroll_golden,
)


def _fuzz(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None)


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))


# ---------------------------------------------------------------------------
# pipeline

@st.composite
def _session(draw):
    d = draw(st.sampled_from((5, 10, 20, 37)), label="devices")
    t = draw(st.integers(1, 5), label="trials")
    n = draw(st.integers(1, 199), label="bits")
    rng = _rng(draw)
    bias = rng.choice((0.2, 0.5, 0.8, 0.95), size=n)
    golden = rng.random((d, n)) < bias
    flips = rng.random((d, t, n)) < 0.05
    return (golden[:, None, :] ^ flips).view(np.uint8), rng


def _report(bits):
    """(mask or None, metrics entry) of one session."""
    sigs = SignatureSet(bits)
    golden = enroll_golden(sigs)
    try:
        mask = eliminate_biased_positions(sigs, golden=golden)
    except EmptySignatureError:
        mask = None
    return mask, compute_report(sigs, golden, mask=mask)


def _same_mask(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b))


def _json(entry):
    return json.dumps(entry, sort_keys=True)


@_fuzz(100)
@given(_session())
def test_pipeline_relations(session):
    bits, rng = session
    d, t, n = bits.shape
    mask, entry = _report(bits)

    got_mask, got = _report(bits[rng.permutation(d)])
    assert _same_mask(got_mask, mask) and _json(got) == _json(entry), "devices"

    cols = rng.permutation(n)
    got_mask, got = _report(bits[:, :, cols])
    want_mask = None if mask is None else mask[cols]
    assert _same_mask(got_mask, want_mask) and _json(got) == _json(entry), "columns"

    got_mask, got = _report(1 - bits)
    ones = got.pop("ones_fraction")
    assert abs(ones - (1 - entry["ones_fraction"])) < 1e-12, "complement"
    assert _same_mask(got_mask, mask), "complement"
    assert _json(got) == _json({k: v for k, v in entry.items() if k != "ones_fraction"})

    trials = np.concatenate([[0], 1 + rng.permutation(t - 1)])
    got_mask, got = _report(bits[:, trials])
    assert _same_mask(got_mask, mask) and _json(got) == _json(entry), "trials"


# ---------------------------------------------------------------------------
# battery

@st.composite
def _battery_block(draw, lengths):
    n = draw(lengths, label="bits")
    rows = draw(st.integers(1, 3), label="rows")
    p = draw(st.sampled_from((0.5, 0.5, 0.48, 0.53)), label="ones probability")
    return (_rng(draw).random((rows, n)) < p).view(np.uint8)


# on and off multiples of 8 and 64, long enough for the dft test
_ANY_LENGTH = st.one_of(st.integers(1000, 12_000),
                        st.integers(125, 1500).map(lambda k: 8 * k),
                        st.integers(16, 190).map(lambda k: 64 * k))


def _columns(table, *names):
    return [table.tests.index(name) for name in names]


def _cells(table, rows, names):
    """Bytes of the p-values and statistics of the named tests on rows."""
    j = _columns(table, *names)
    return (table.p_values[np.ix_(rows, j)].tobytes(),
            table.statistics[np.ix_(rows, j)].tobytes())


def _dft_clear(row):
    """True where no magnitude of bins 1..n/2-1 lies within _DFT_MARGIN * T
    of the dft threshold T, so float rounding cannot move the count."""
    n = row.size
    threshold = np.sqrt(n * np.log(1 / 0.05))
    magnitudes = np.abs(np.fft.rfft(row * 2.0 - 1.0))[1 : n // 2]
    return not np.any(np.abs(magnitudes - threshold)
                      <= randomness._DFT_MARGIN * threshold)


@_fuzz(40)
@given(_battery_block(_ANY_LENGTH))
def test_reversed_rows(block):
    table = run_suite_block(block)
    rev = run_suite_block(block[:, ::-1])
    every = range(len(block))
    assert _cells(rev, every, ("frequency", "runs")) == _cells(
        table, every, ("frequency", "runs"))
    assert _cells(rev, every, ("cumulative-sums-forward", "cumulative-sums-backward")) == (
        _cells(table, every, ("cumulative-sums-backward", "cumulative-sums-forward")))
    clear = [i for i in every if _dft_clear(block[i])]
    assert _cells(rev, clear, ("dft",)) == _cells(table, clear, ("dft",))


@_fuzz(40)
@given(_battery_block(_ANY_LENGTH))
def test_complemented_rows(block):
    table = run_suite_block(block)
    comp = run_suite_block(1 - block)
    every = range(len(block))
    exact = ("cumulative-sums-forward", "cumulative-sums-backward", "dft")
    assert _cells(comp, every, exact) == _cells(table, every, exact)
    # frequency's statistic is S_n, which changes sign
    j = _columns(table, "frequency")
    assert comp.p_values[:, j].tobytes() == table.p_values[:, j].tobytes()
    assert np.array_equal(-comp.statistics[:, j], table.statistics[:, j])
    j = _columns(table, "block-frequency", "runs")
    for got, want in ((comp.p_values, table.p_values),
                      (comp.statistics, table.statistics)):
        np.testing.assert_allclose(got[:, j], want[:, j], rtol=1e-12, atol=0)


# multiples of 1024 reach longest run's tiers of m = 8 and 128 (from 6272
# bits); multiples of 10 000 from 750 000 bits its tier of m = 10 000
_BLOCK_MULTIPLES = st.one_of(st.integers(1, 60).map(lambda k: 1024 * k),
                             st.integers(75, 80).map(lambda k: 10_000 * k))


@_fuzz(30)
@given(_battery_block(_BLOCK_MULTIPLES))
def test_reversed_rows_keep_longest_run_and_rank(block):
    n = block.shape[1]
    tests = ("longest-run", "rank") if n % 1024 == 0 else ("longest-run",)
    # fixture mode lets rank run from one matrix on
    table = run_suite_block(block, tests=tests, fixture_mode=True)
    rev = run_suite_block(block[:, ::-1], tests=tests, fixture_mode=True)
    every = range(len(block))
    assert _cells(rev, every, tests) == _cells(table, every, tests)
