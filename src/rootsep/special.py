"""The standard normal CDF, and the complementary error function for
x >= 1, in numpy.

Cephes' rational approximations (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989, `ndtr.c`), evaluated with the same branches,
cut-offs and operation order: ndtr from erf on |z| < 1, z = x / sqrt(2), a
(4, 5) rational function of z^2, and from erfc on 1 <= |z| < 8 and |z| >= 8,
exp(-z^2) times an (8, 8) and a (5, 6) rational function of |z|.  erfc(x)
is exactly 0 past x^2 = MAXLOG (x about 26.64), as in Cephes, and so is ndtr
below about -37.7; nan gives nan.  Only exp(-x^2) may differ from Cephes' value, by numpy's
rounding of exp.
"""

from __future__ import annotations

import math

import numpy as np

MAXLOG = 7.09782712893383996843e2

# erfc(x) exp(x^2) on 1 <= x < 8 is P(x) / Q(x), on x >= 8 R(x) / S(x);
# erf(x) / x on |x| < 1 is T(x^2) / U(x^2).  Highest degree first; the
# denominators are monic, their leading 1 left out.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x, coef, monic=False):
    """coef's polynomial at x by Horner's rule, with a leading 1 when `monic`
    (Cephes' polevl and p1evl)."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x):
    """erf(x) for |x| < 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, monic=True)


def erfc_big(a):
    """erfc(a) for a >= 1 or nan, a 1-d array: exp(-a^2) times a rational
    function of a, or 0 past a^2 = MAXLOG."""
    # past the cut the rational function is not needed, and at inf it would
    # give inf / inf; and c * c cannot overflow
    c = np.minimum(a, 27.0)
    p, q = _polevl(c, _P), _polevl(c, _Q, monic=True)
    far = np.flatnonzero(c >= 8.0)
    if far.size:
        p[far], q[far] = _polevl(c[far], _R), _polevl(c[far], _S, monic=True)
    y = np.exp(-c * c) * p
    y /= q
    if far.size:
        y[far[c[far] * c[far] > MAXLOG]] = 0.0
    return y


# entries evaluated per pass, so that the temporaries stay in cache
_BLOCK = 1 << 14


def _by_branch(x, small, big):
    """small(v) on the entries v of x with |v| < 1 and big(v) on the rest
    (nan included), _BLOCK entries at a time, as one array shaped as x."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    y = np.empty(flat.size)
    for lo in range(0, flat.size, _BLOCK):
        v, out = flat[lo:lo + _BLOCK], y[lo:lo + _BLOCK]
        below = np.abs(v) < 1.0
        n = np.count_nonzero(below)
        if n in (0, v.size):
            out[:] = (small if n else big)(v)
        else:
            i, k = np.flatnonzero(below), np.flatnonzero(~below)
            out[i] = small(v[i])
            out[k] = big(v[k])
    return y.reshape(x.shape) if x.ndim else y[0]


def _ndtr_small(z):
    return 0.5 + 0.5 * _erf(z)


def _ndtr_big(z):
    y = 0.5 * erfc_big(np.abs(z))
    return np.where(z > 0.0, 1.0 - y, y)


def ndtr(x):
    """Standard normal CDF, elementwise: from erf or erfc of z = x / sqrt(2),
    by whether |z| < 1."""
    return _by_branch(np.asarray(x, dtype=float) * math.sqrt(0.5), _ndtr_small, _ndtr_big)
