"""pufsim.special: the package's one scipy import, and its four special
functions against mpmath at 50 digits over the arguments pufsim passes.

Each bound is at least twice the largest error measured with scipy
1.17.1, so a scipy release, or a replacement of it, that loses accuracy
fails here before it moves a p-value or a readout bit unnoticed.
"""

import ast
import math
import pathlib

import mpmath
import numpy as np
import scipy.special

import pufsim
from pufsim import signature, special

# largest errors at these points: 2.8 ulps, 1.4e-16, 5.7e-14 and 6.1e-14;
# denser random samples reached 3.1 ulps, 1.4e-16, 5.7e-14 and 6.8e-14
NDTRI_ULPS = 8
NDTR_ABS = 3e-16
ERFC_REL = 1.2e-13
GAMMAINCC_REL = 1.6e-13

_TINY = np.finfo(np.float64).tiny


def _scipy_imports(tree):
    """(line, module) of every import of scipy or a scipy submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module == "scipy" or module.startswith("scipy."):
                yield node.lineno, module


def test_only_special_imports_scipy():
    # replacing scipy is then a change to pufsim/special.py alone
    package = pathlib.Path(pufsim.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        found = list(_scipy_imports(ast.parse(path.read_text())))
        if path.name == "special.py":
            assert found, "special.py should import scipy.special"
            continue
        stray += [f"{path.name}:{line} {module}" for line, module in found]
    assert stray == []


def test_special_reexports_the_scipy_ufuncs():
    for name in ("ndtri", "ndtr", "erfc", "gammaincc"):
        assert getattr(special, name) is getattr(scipy.special, name), name


def _rel_errors(got, exact):
    return [float(abs(mpmath.mpf(g) - e) / abs(e)) for g, e in zip(got, exact)]


def test_ndtri_on_the_open_52_bit_grid():
    # u = (j + 1/2) * 2**-52 for j = word >> 12: both ends of the grid,
    # the points around 1/2 and random points
    rng = np.random.default_rng(20261022)
    j = np.concatenate([np.arange(32), 2**52 - 32 + np.arange(32),
                        2**51 - 32 + np.arange(64)]).astype(np.uint64)
    j = np.concatenate([j, rng.integers(0, 2**52, 400, dtype=np.uint64)])
    u = (j.astype(np.float64) + 0.5) * 2.0**-52
    got = special.ndtri(u)
    with mpmath.workdps(50):
        exact = [mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1)
                 for v in u.tolist()]
        ulps = [float(abs(mpmath.mpf(g) - e)) / math.ulp(float(e))
                for g, e in zip(got.tolist(), exact)]
    assert max(ulps) <= NDTRI_ULPS


def test_ndtr_brackets_every_readout_bucket():
    # bucket b holds x in [x_(b-1), x_b); its index floor(x * 64 + 577) is
    # rounded by at most 2**-43, so it takes in x up to 2**-49 past either
    # edge. The edges are tested 2**-48 outside, exact in float64.
    k = np.arange(signature._GRID_POINTS)
    grid = signature._GRID_LO + k / signature._GRID_STEPS
    starts = grid - 2.0**-48  # buckets 1 .. _GRID_POINTS
    ends = grid + 2.0**-48  # buckets 0 .. _GRID_POINTS - 1
    offset = 1 - signature._GRID_LO * signature._GRID_STEPS
    assert np.array_equal(np.floor(starts * signature._GRID_STEPS + offset), k)
    assert np.array_equal(np.floor(ends * signature._GRID_STEPS + offset), k + 1)
    lo = signature._LO32[1:].astype(np.int64)
    top = signature._HIM1[:-1].astype(np.int64) + 1
    # the bits are those of the computed ndtr ...
    assert np.all(special.ndtr(starts) * 2.0**32 >= lo)
    assert np.all(special.ndtr(ends) * 2.0**32 <= top)
    points = np.concatenate([grid, starts, ends])
    with mpmath.workdps(50):
        phi = [mpmath.ncdf(v) for v in points.tolist()]
        errors = [float(abs(mpmath.mpf(g) - e))
                  for g, e in zip(special.ndtr(points).tolist(), phi)]
        scale = mpmath.mpf(2) ** 32
        n = len(grid)
        # ... and their law is the exact Phi
        margin = min([phi[n + i] * scale - int(lo[i]) for i in range(n)]
                     + [int(top[i]) - phi[2 * n + i] * scale for i in range(n)])
    assert margin > 0
    assert max(errors) <= NDTR_ABS


def test_erfc_where_it_is_a_normal_float():
    # p-values take x >= 0; the cumulative-sums terms take either sign
    rng = np.random.default_rng(20261023)
    x = np.concatenate([np.linspace(0, 27, 1081), rng.uniform(0, 27, 200),
                        np.linspace(-27, 0, 109)])
    got = special.erfc(x)
    with mpmath.workdps(50):
        exact = [mpmath.erfc(v) for v in x.tolist()]
        normal = got >= _TINY
        assert all(e < _TINY for e, ok in zip(exact, normal) if not ok)
        errors = _rel_errors(got[normal].tolist(),
                             [e for e, ok in zip(exact, normal) if ok])
    assert max(errors) <= ERFC_REL


def test_gammaincc_at_the_battery_shapes():
    # a = N / 2 for block frequency's N <= 100 blocks, which includes the
    # longest-run tiers' 1.5, 2.5 and 3, rank's 1 and uniformity's 4.5;
    # past x = 4a + 60, Q(a, x) is far below any alpha
    rng = np.random.default_rng(20261024)
    errors = []
    with mpmath.workdps(50):
        for a in np.arange(1, 101) / 2:
            x = np.concatenate([np.linspace(0, 4 * a + 60, 9),
                                rng.uniform(0, 4 * a + 60, 7)])
            exact = [mpmath.gammainc(a, v, mpmath.inf, regularized=True)
                     for v in x.tolist()]
            errors += _rel_errors(special.gammaincc(a, x).tolist(), exact)
    assert max(errors) <= GAMMAINCC_REL
