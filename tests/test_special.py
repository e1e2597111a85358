"""The numpy erfc on |x| >= 1 and ndtr, whose erf branch covers |z| < 1,
against scipy.special, which evaluates the same Cephes approximations in C;
scipy is a test dependency only."""

import math

import numpy as np
import pytest
from scipy import special as sc

from rootsep import special
from rootsep.marginals import _NORMAL_RADIUS, TAIL_MASS

TINY = np.finfo(float).tiny


def erfc(x):
    """erfc(x) for |x| >= 1 or nan, elementwise, from the package's
    `erfc_big`, as erfc(-a) = 2 - erfc(a)."""
    x = np.asarray(x, dtype=float)
    y = special.erfc_big(np.abs(x).ravel()).reshape(x.shape)
    return np.where(x < 0.0, 2.0 - y, y)


FUNCTIONS = {"erfc": erfc, "ndtr": special.ndtr}


def _grid(edges):
    """Dense points over |x| in each [lo, hi) of edges, both signs, with the
    edges themselves and their float neighbours."""
    rng = np.random.default_rng(5)
    parts = []
    for lo, hi in edges:
        parts += [np.linspace(lo, hi, 20_001), rng.uniform(lo, hi, 20_000)]
        parts.append(np.array([np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                               np.nextafter(hi, -np.inf)]))
    x = np.concatenate(parts)
    return np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan]])


# erfc's branches 1 <= |x| < 8 and |x| >= 8, through the underflow cut at
# x^2 = MAXLOG (x near 26.64) and past it
ERFC_X = _grid([(1.0, 8.0), (8.0, 26.0), (26.0, 27.0), (27.0, 40.0)])
ERFC_X = ERFC_X[~(np.abs(ERFC_X) < 1.0)]
# ndtr's: erf on |z| < 1 and erfc's two, of z = x / sqrt(2)
NDTR_X = _grid([(0.0, math.sqrt(2.0)), (math.sqrt(2.0), 8.0 * math.sqrt(2.0)),
                (8.0 * math.sqrt(2.0), 37.0), (37.0, 38.5), (38.5, 60.0)])


@pytest.mark.parametrize("name, x", [("erfc", ERFC_X), ("ndtr", NDTR_X)])
def test_matches_scipy(name, x):
    got, want = FUNCTIONS[name](x), getattr(sc, name)(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isnan(got), np.isnan(x))
    # exactly 0 where scipy underflows to 0, and nowhere else
    assert np.array_equal(got == 0.0, want == 0.0)
    normal = np.abs(want) >= TINY
    assert normal.sum() > 0.6 * x.size
    rel = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
    assert rel.max() <= 1e-13


def test_limits_and_shapes():
    assert erfc(np.inf) == 0.0 and erfc(-np.inf) == 2.0
    assert special.ndtr(np.inf) == 1.0 and special.ndtr(-np.inf) == 0.0
    assert erfc(1.0) == pytest.approx(sc.erfc(1.0), rel=1e-13) and special.ndtr(0.0) == 0.5
    assert np.isnan(erfc(np.nan)) and np.isnan(special.ndtr(np.nan))
    for fn in FUNCTIONS.values():
        assert np.ndim(fn(1.5)) == 0
        assert fn(np.full((3, 2), 1.5)).shape == (3, 2)
        assert fn(np.zeros(0)).shape == (0,)
        assert fn([1.5, 2.0]).shape == (2,)


def test_blocks_do_not_change_values():
    # more entries than one pass takes, branches mixed within each pass
    x = np.random.default_rng(6).normal(0.0, 3.0, 3 * special._BLOCK + 17)
    parts = np.concatenate([special.ndtr(x[i:i + 1000]) for i in range(0, x.size, 1000)])
    assert np.array_equal(special.ndtr(x), parts)


def test_normal_radius_is_the_quantile():
    assert _NORMAL_RADIUS == float(sc.ndtri(1.0 - TAIL_MASS))
