"""The four special functions pufsim evaluates, and the accuracy it needs
from each.

This is the only module of the package that imports scipy; the others
import these names from here. Each is `scipy.special`'s own ufunc object,
re-exported unchanged. `tests/test_special.py` checks that, keeps scipy
imports out of every other module, and compares each function with mpmath
at 50 digits over the arguments pufsim passes, against the bounds below.

* ``ndtri(u)``, the standard normal quantile, turns a population's raw
  words into normals (`population._normals`). u is always on the open
  52-bit grid ((word >> 12) + 1/2) * 2**-52, from 2**-53 to 1 - 2**-53.
  A population is regenerated from its spec on load and checked against a
  stored digest, so the function must give the same bits on every call;
  and `unbiased_sequences` reads the top bit of each word as the sign of
  its normal, which holds because ndtri(u) > 0 exactly when u > 1/2.
  Tested: within 8 ulps of the exact quantile at both ends of the grid,
  around 1/2 and at random grid points.
* ``ndtr(x)``, the standard normal CDF Phi, builds the readout's bracket
  table at x = -9 + k / 64, k = 0 .. 1152, and resolves the draws that
  land inside a bracket (`signature._resolve`). The brackets are widened
  by 2**-40 in probability, which must cover ndtr's error plus the
  rounding of the bucket index; the exact fallback shifts a bit's P(1) by
  at most ndtr's absolute error. Tested: for every bucket, ndtr and the
  exact Phi at its edges, moved outward by 2**-48 for the index rounding,
  times 2**32 lie inside [_LO32, _HIM1 + 1]; and ndtr's absolute error at
  those edges and the grid points is at most 3e-16.
* ``erfc(x)`` gives the frequency, runs and spectral p-values at
  x >= 0, and the cumulative-sums terms Phi(v) = erfc(-v / sqrt(2)) / 2
  at x of either sign. A p-value is compared with alpha (0.001 by
  default) and pinned by the tests to 1e-9 relative. Tested: relative
  error at most 1.2e-13 on [-27, 27] wherever the result is a normal
  float (erfc(x) is subnormal past x = 26.55); beyond -27 it is 2.
* ``gammaincc(a, x)``, the regularized upper incomplete gamma Q(a, x),
  gives the chi-square p-values: a = N / 2 for block frequency's N
  blocks (N <= 100 at the default block size), 1.5, 2.5 and 3 for the
  three longest-run tiers, 1 for rank and 4.5 for the aggregate's
  uniformity test, with x = chi2 / 2 >= 0. Tested: relative error at most
  1.6e-13 at a = N / 2 for N = 1 .. 100 over x in [0, 4a + 60]; past
  4a + 60, Q is below 1e-27, far under any alpha.
"""

from scipy.special import erfc, gammaincc, ndtr, ndtri

__all__ = ["erfc", "gammaincc", "ndtr", "ndtri"]
