"""Peacock marginal families: closed-form potentials plus one law description.

A family (mu_s), s in [0,1], of centred probability measures that is
non-decreasing in convex order is given through

    potential(s, x)  =  -E_{Y ~ mu_s} |x - Y|,

which is concave, 1-Lipschitz in x, and pointwise non-increasing in s.
A family kind defines `potential`, `potential_ds`, `support_radius`, `law`
and `descriptor`.  `law(s)` describes mu_s as atoms plus a centred Gaussian
part; the CDF, call price, Gaussian floor and initial sampling derive from
it, and so do the grid's damping default, the solver's kink guard and
off-grid rule, and the simulator's fit metric.  Every operation is pure,
families are immutable after construction, and sampling takes an explicit
(seed, stream) pair so parallel callers never share generator state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import SingularityError, ValidationError

TAIL_MASS = 1e-6          # quantile level defining support_radius
WEIGHT_TOL = 1e-12        # atomic weight-sum tolerance (direct construction)
CSV_WEIGHT_TOL = 1e-9     # weight-sum gate for file input
MEAN_TOL = 1e-12          # centering tolerance
CONVEX_TOL = 1e-9         # allowed convex-order slack on potentials

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_NORMAL_RADIUS = float(ndtri(1.0 - TAIL_MASS))   # ~4.7534


def _norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def gaussian_potential(variance, x):
    """Potential of N(0, variance), vectorized; variance 0 gives -|x|."""
    x = np.asarray(x, dtype=float)
    if variance <= 0.0:
        return -np.abs(x)
    s = math.sqrt(variance)
    z = x / s
    return -s * (2.0 * _norm_pdf(z) + z * (2.0 * ndtr(z) - 1.0))


def gaussian_potential_dv(variance, x):
    """d/dv of the N(0, v) potential: minus the density at x."""
    if variance <= 0.0:
        raise SingularityError("potential derivative undefined at zero variance")
    s = math.sqrt(variance)
    return -_norm_pdf(np.asarray(x, dtype=float) / s) / s


def gaussian_call(x):
    """Call-price transform of N(0,1): integral of (y - x)+ against the density."""
    x = np.asarray(x, dtype=float)
    return _norm_pdf(x) - x * (1.0 - ndtr(x))


def gaussian_call_dx(x):
    return ndtr(np.asarray(x, dtype=float)) - 1.0


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); safe to create per task."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class Law:
    """One marginal mu_s as atoms plus a centred Gaussian part.

    The atoms carry `weights` at `positions`; the remaining mass
    1 - sum(weights) is N(0, normal_var).  normal_var is None when that
    continuous part is not Gaussian.  Atoms of zero weight are dropped.
    """

    positions: np.ndarray = ()
    weights: np.ndarray = ()
    normal_var: Optional[float] = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        keep = w > 0.0
        object.__setattr__(self, "positions", pos[keep])
        object.__setattr__(self, "weights", w[keep])

    @property
    def normal_mass(self) -> float:
        """Mass of the continuous part; 0 for a purely atomic law."""
        rest = 1.0 - float(self.weights.sum())
        return rest if rest > WEIGHT_TOL else 0.0


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite centred measure: strictly increasing positions, weights summing to 1."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        if pos.ndim != 1 or w.shape != pos.shape or pos.size == 0:
            raise ValidationError("atoms must be a non-empty 1-d list of (position, weight)")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(w)):
            raise ValidationError("non-finite atom data")
        if np.any(np.diff(pos) <= 0):
            raise ValidationError("atom positions must be strictly increasing")
        if np.any(w <= 0):
            raise ValidationError("atom weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"atom weights sum to {w.sum()!r}, not 1")
        scale = max(1.0, float(np.abs(pos).max()))
        if abs(float(w @ pos)) > MEAN_TOL * scale:
            raise ValidationError(f"atomic measure not centred (mean {w @ pos!r})")

    def potential(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -(np.abs(x[..., None] - self.positions) @ self.weights)

    def quantile_radius(self, eps: float = TAIL_MASS) -> float:
        # smallest radius keeping all but <= eps/2 tail mass on each side
        cum = np.cumsum(self.weights)
        hi = self.positions.size - 1
        left = min(int(np.searchsorted(cum, eps / 2.0, side="right")), hi)
        right = max(int(np.searchsorted(cum, 1.0 - eps / 2.0, side="left")), 0)
        return float(max(abs(self.positions[left]), abs(self.positions[right])))

    def descriptor(self):
        return {"positions": self.positions.tolist(), "weights": self.weights.tolist()}


# ---------------------------------------------------------------------------
# families


class MarginalFamily:
    """Interface shared by all family kinds.  Values are immutable.

    A kind defines potential, potential_ds, support_radius, law and
    descriptor; the CDF, call price, Gaussian floor and initial sampling
    are derived from the law.
    """

    kind = "abstract"
    mean = 0.0

    def potential(self, s: float, x) -> np.ndarray:
        raise NotImplementedError

    def potential_ds(self, s: float, x) -> np.ndarray:
        raise NotImplementedError

    def support_radius(self, s: float) -> float:
        raise NotImplementedError

    def law(self, s: float) -> Law:
        raise NotImplementedError

    def atoms(self, s: float) -> Law:
        # former name of law(); perfbench/workloads.py still reads it
        return self.law(s)

    def sample_initial(self, count: int, seed: int, stream: int = 0) -> np.ndarray:
        return self.sample_initial_rng(make_stream(seed, stream), count)

    def sample_initial_rng(self, rng: np.random.Generator, count: int) -> np.ndarray:
        law = self.law(0.0)
        if law.normal_mass == 0.0:
            cum = np.cumsum(law.weights)
            idx = np.searchsorted(cum, rng.random(count), side="right")
            return law.positions[idx.clip(0, len(cum) - 1)]
        if law.positions.size or law.normal_var is None:
            raise ValidationError(f"{self.kind}: no sampler for the initial law")
        return math.sqrt(law.normal_var) * rng.standard_normal(count)

    def cdf(self, s: float, x) -> np.ndarray:
        """Right-continuous distribution function of mu_s."""
        law = self.law(s)
        if law.normal_var is None:
            raise ValidationError(f"{self.kind}: no closed-form CDF")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = (x[..., None] >= law.positions) @ law.weights
        if law.normal_mass:
            out = out + law.normal_mass * ndtr(x / math.sqrt(law.normal_var))
        return out

    def call_price(self, s: float, x) -> np.ndarray:
        """E (Y - x)+ for Y ~ mu_s; equals -(potential + x)/2 for centred laws."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -(self.potential(s, x) + x) / 2.0

    def initial_gaussian_floor(self, t: float, x) -> np.ndarray:
        """Potential of mu_0 * N(0, t), the Jensen floor for running values.

        Each atom p spreads to N(p, t) and the Gaussian part to
        N(0, normal_var + t); a law without atoms gives the plain Gaussian
        potential.
        """
        law = self.law(0.0)
        if law.normal_var is None:
            raise ValidationError(
                f"{self.kind}: no closed form for the initial-law Gaussian floor")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if law.positions.size == 0:
            return gaussian_potential(law.normal_var + t, x)
        out = np.zeros_like(x)
        for p, w in zip(law.positions, law.weights):
            out += w * gaussian_potential(t, x - p)
        if law.normal_mass:
            out += law.normal_mass * gaussian_potential(law.normal_var + t, x)
        return out

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def ds_sup(self, x) -> np.ndarray:
        """sup over s of |potential_ds(s, x)|; default scans anchor points."""
        anchors = np.linspace(0.0, 1.0, 41)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        best = np.zeros_like(x)
        for s in anchors:
            try:
                best = np.maximum(best, np.abs(self.potential_ds(float(s), x)))
            except SingularityError:
                best += np.inf
        return best


def _check_index(s: float):
    if not (0.0 <= s <= 1.0):
        raise ValidationError(f"marginal index {s} outside [0, 1]")


class GaussianShiftFamily(MarginalFamily):
    """mu_s = N(0, t0 + s) with variance offset t0 > 0."""

    kind = "gaussian_shift"

    def __init__(self, t0: float):
        if not t0 > 0:
            raise ValidationError("gaussian_shift requires t0 > 0")
        self.t0 = float(t0)

    def potential(self, s, x):
        return gaussian_potential(self.t0 + s, x)

    def potential_ds(self, s, x):
        return gaussian_potential_dv(self.t0 + s, x)

    def support_radius(self, s):
        return math.sqrt(self.t0 + s) * _NORMAL_RADIUS

    def law(self, s):
        return Law(normal_var=self.t0 + s)

    def descriptor(self):
        return {"kind": self.kind, "t0": self.t0}


class ScaledFamily(MarginalFamily):
    """mu_s = law of (s + s0) Z for a standard normal Z; s0 >= 0.

    With s0 = 0, mu_0 is the point mass at 0 and the index derivative of the
    potential blows up at s = 0, which potential_ds reports as a singularity.
    """

    kind = "scaled"

    def __init__(self, s0: float):
        if s0 < 0:
            raise ValidationError("scaled family requires s0 >= 0")
        self.s0 = float(s0)

    def _scale(self, s):
        return self.s0 + s

    def potential(self, s, x):
        c = self._scale(s)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if c == 0.0:
            return -np.abs(x)
        return c * gaussian_potential(1.0, x / c)

    def potential_ds(self, s, x):
        c = self._scale(s)
        if c == 0.0:
            raise SingularityError("scaled family with s0 = 0 has a singular index derivative at s = 0")
        xi = np.atleast_1d(np.asarray(x, dtype=float)) / c
        return gaussian_potential(1.0, xi) - xi * (1.0 - 2.0 * ndtr(xi))

    def support_radius(self, s):
        return self._scale(s) * _NORMAL_RADIUS

    def law(self, s):
        c = self._scale(s)
        return Law([0.0], [1.0]) if c == 0.0 else Law(normal_var=c * c)

    def sample_initial_rng(self, rng, count):
        # the point start draws nothing, so path increments keep their stream
        if self.s0 == 0.0:
            return np.zeros(count)
        return self.s0 * rng.standard_normal(count)

    def descriptor(self):
        return {"kind": self.kind, "s0": self.s0, "base": "normal"}


class ThreePointFamily(MarginalFamily):
    """mu_s = (1 - 2 p(s)) delta_0 + p(s) (delta_1 + delta_-1), p(s) = p0 + p1 s."""

    kind = "three_point"

    def __init__(self, p0: float, p1: float):
        if p1 < 0:
            raise ValidationError("three_point requires non-decreasing p (p1 >= 0)")
        if p0 < 0 or p0 + p1 > 0.5 + 1e-15:
            raise ValidationError("three_point requires 0 <= p(s) <= 1/2 on [0, 1]")
        self.p0, self.p1 = float(p0), float(p1)

    def p(self, s):
        return self.p0 + self.p1 * s

    def potential(self, s, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = self.p(s)
        return -((1.0 - 2.0 * p) * np.abs(x) + p * (np.abs(x - 1.0) + np.abs(x + 1.0)))

    def potential_ds(self, s, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -2.0 * self.p1 * np.maximum(0.0, 1.0 - np.abs(x))

    def support_radius(self, s):
        return 1.0

    def law(self, s):
        p = self.p(s)
        mid = 1.0 - 2.0 * p
        return Law([-1.0, 0.0, 1.0], [p, mid if mid >= 1e-15 else 0.0, p])

    def descriptor(self):
        return {"kind": self.kind, "p0": self.p0, "p1": self.p1}


class AtomicTableFamily(MarginalFamily):
    """Piecewise-constant (cadlag) family of atomic measures indexed by s."""

    kind = "atomic_table"

    def __init__(self, entries: Sequence[tuple[float, AtomicMeasure]]):
        if not entries:
            raise ValidationError("atomic table needs at least one entry")
        svals = [float(s) for s, _ in entries]
        if any(b <= a for a, b in zip(svals, svals[1:])):
            raise ValidationError("atomic table s values must be strictly increasing")
        if not (0.0 <= svals[0] and svals[-1] <= 1.0):
            raise ValidationError("atomic table s values must lie in [0, 1]")
        if svals[0] > 0.0:
            raise ValidationError("atomic table must define the s = 0 marginal")
        self.entries = [(float(s), m) for s, m in entries]

    def _measure(self, s):
        _check_index(s)
        out = self.entries[0][1]
        for sv, m in self.entries:
            if sv <= s:
                out = m
            else:
                break
        return out

    def potential(self, s, x):
        return self._measure(s).potential(x)

    def potential_ds(self, s, x, step: float = 1e-5):
        # central difference, one-sided at the endpoints
        lo, hi = max(0.0, s - step), min(1.0, s + step)
        return (self.potential(hi, x) - self.potential(lo, x)) / (hi - lo)

    def support_radius(self, s):
        return self._measure(s).quantile_radius()

    def law(self, s):
        m = self._measure(s)
        return Law(m.positions, m.weights)

    def descriptor(self):
        return {"kind": self.kind,
                "entries": [{"s": s, **m.descriptor()} for s, m in self.entries]}


def _smooth5(q):
    q = np.clip(q, 0.0, 1.0)
    return q ** 3 * (10.0 - 15.0 * q + 6.0 * q * q)


def _smooth5_deriv(q):
    inside = (q > 0.0) & (q < 1.0)
    q = np.clip(q, 0.0, 1.0)
    return np.where(inside, 30.0 * q * q * (1.0 - q) ** 2, 0.0)

_SMOOTH5_MID_SLOPE = 1.875  # derivative of the quintic ramp at its midpoint


class PathologicalGrowthFamily(MarginalFamily):
    """Family interpolating tangent-chopped Gaussian call prices.

    Between knots t_j the call price blends V(t_j, .) into V(t_{j+1}, .)
    through a quintic ramp whose transition window is shrunk until the
    midpoint slope reaches growth(x_{j+1}) / V_gauss(x_{j+1}), so the index
    derivative of the potential exceeds the requested growth along (x_j)
    while staying continuous in (s, x).
    """

    kind = "pathological_growth"

    def __init__(self, growth: Callable[[float], float], t_knots: np.ndarray):
        t = np.asarray(t_knots, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0) or t[-1] >= 1.0:
            raise ValidationError("knots must start at 0, increase strictly, and stay below 1")
        self.t_knots = t
        self.growth = growth
        xs = [0.0]
        for _ in range(len(t)):
            xj = xs[-1]
            xs.append(float(xj - gaussian_call(xj) / gaussian_call_dx(xj)))
        self.x_knots = np.asarray(xs)      # x_0 .. x_{J+1}
        gaps = np.diff(np.concatenate([t, [1.0]]))
        windows = []
        for j, dt in enumerate(gaps):
            need = float(growth(self.x_knots[j + 1])) / float(gaussian_call(self.x_knots[j + 1]))
            w = 1.0 if need <= 0 else min(1.0, _SMOOTH5_MID_SLOPE / (need * dt))
            windows.append(w)
        self.windows = np.asarray(windows)
        self._gaps = gaps

    # piecewise call prices ------------------------------------------------
    def _piece_call(self, j: int, x: np.ndarray) -> np.ndarray:
        if j >= len(self.t_knots):
            return gaussian_call(x)
        xj = self.x_knots[j]
        tangent = gaussian_call(xj) + gaussian_call_dx(xj) * (x - xj)
        return np.where(x <= xj, gaussian_call(x), np.maximum(tangent, 0.0))

    def _piece_call_dx(self, j: int, x: np.ndarray) -> np.ndarray:
        if j >= len(self.t_knots):
            return gaussian_call_dx(x)
        xj = self.x_knots[j]
        slope = gaussian_call_dx(xj)
        tangent_alive = gaussian_call(xj) + slope * (x - xj) > 0.0
        return np.where(x <= xj, gaussian_call_dx(x), np.where(tangent_alive, slope, 0.0))

    def _locate(self, s: float) -> int:
        return int(np.searchsorted(self.t_knots, s, side="right") - 1)

    def _ramp(self, j: int, s: float) -> float:
        dt = self._gaps[j]
        r = (s - self.t_knots[j]) / dt
        w = self.windows[j]
        return float(_smooth5(np.array((r - (0.5 - w / 2.0)) / w)))

    def _ramp_deriv(self, j: int, s: float) -> float:
        dt = self._gaps[j]
        r = (s - self.t_knots[j]) / dt
        w = self.windows[j]
        return float(_smooth5_deriv(np.array((r - (0.5 - w / 2.0)) / w))) / (w * dt)

    def call_price(self, s: float, x) -> np.ndarray:
        _check_index(s)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if s >= 1.0:
            return gaussian_call(x)
        j = self._locate(s)
        lam = self._ramp(j, s)
        return (1.0 - lam) * self._piece_call(j, x) + lam * self._piece_call(j + 1, x)

    def potential(self, s, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -x - 2.0 * self.call_price(s, x)

    def potential_ds(self, s, x):
        _check_index(s)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if s >= 1.0:
            j = len(self.t_knots) - 1
        else:
            j = self._locate(s)
        dl = self._ramp_deriv(j, min(s, 1.0 - 1e-15))
        return -2.0 * dl * (self._piece_call(j + 1, x) - self._piece_call(j, x))

    def ds_sup(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        best = np.zeros_like(x)
        for j, dt in enumerate(self._gaps):
            slope = _SMOOTH5_MID_SLOPE / (self.windows[j] * dt)
            diff = np.abs(self._piece_call(j + 1, x) - self._piece_call(j, x))
            best = np.maximum(best, 2.0 * slope * diff)
        return best

    def cdf(self, s, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if s >= 1.0:
            return ndtr(x)
        j = self._locate(s)
        lam = self._ramp(j, s)
        dv = (1.0 - lam) * self._piece_call_dx(j, x) + lam * self._piece_call_dx(j + 1, x)
        return 1.0 + dv

    def law(self, s):
        # piece j puts the mass beyond x_j at x_{j+1}, where its tangent
        # reaches zero; the continuous part is a truncated Gaussian
        _check_index(s)
        if s >= 1.0:
            return Law(normal_var=1.0)
        j = self._locate(s)
        lam = self._ramp(j, s)
        k = 2 if j + 1 < len(self.t_knots) else 1
        tails = 1.0 - ndtr(self.x_knots[j:j + k])
        return Law(self.x_knots[j + 1:j + 1 + k], np.array([1.0 - lam, lam])[:k] * tails,
                   normal_var=None)

    def support_radius(self, s):
        return float(max(_NORMAL_RADIUS, self.x_knots[-1]))

    def sample_initial_rng(self, rng, count):
        g = rng.standard_normal(count)
        return np.where(g <= self.x_knots[0], g, self.x_knots[1])

    def descriptor(self):
        return {"kind": self.kind, "t_knots": self.t_knots.tolist(),
                "x_knots": self.x_knots.tolist()}


# ---------------------------------------------------------------------------
# operations


def _shaped(out, x):
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return np.asarray(out)


def potential_eval(family: MarginalFamily, s: float, x):
    """U(s, x) = -E|x - Y| for Y ~ mu_s; scalar in, scalar out."""
    _check_index(s)
    return _shaped(family.potential(s, x), x)


def potential_ds(family: MarginalFamily, s: float, x):
    """Index derivative of the potential; non-positive wherever it exists."""
    _check_index(s)
    return _shaped(family.potential_ds(s, x), x)


def call_price(family: MarginalFamily, s: float, x):
    """E (Y - x)+ for Y ~ mu_s; scalar in, scalar out."""
    _check_index(s)
    return _shaped(family.call_price(s, x), x)


@dataclass
class ConvexOrderReport:
    passed: bool
    worst_violation: float            # most negative drop of U along increasing s
    where: Optional[tuple] = None     # (s_lo, s_hi, x) of the worst pair

    def __bool__(self):
        return self.passed


def convex_order_validate(family: MarginalFamily, s_probes=None, x_probes=None,
                          tol: float = CONVEX_TOL) -> ConvexOrderReport:
    """Check that s -> potential(s, x) is non-increasing on a probe grid."""
    if s_probes is None:
        s_probes = np.linspace(0.0, 1.0, 21)
    if x_probes is None:
        r = max(family.support_radius(1.0), 1.0)
        x_probes = np.linspace(-r, r, 41)
    s_probes = np.asarray(s_probes, dtype=float)
    x_probes = np.asarray(x_probes, dtype=float)
    vals = np.stack([family.potential(float(s), x_probes) for s in s_probes])
    drops = vals[:-1] - vals[1:]          # should be >= 0
    worst = float(drops.min())
    where = None
    if drops.size:
        k, i = np.unravel_index(int(drops.argmin()), drops.shape)
        where = (float(s_probes[k]), float(s_probes[k + 1]), float(x_probes[i]))
    return ConvexOrderReport(passed=worst >= -tol, worst_violation=worst, where=where)


@dataclass
class AssumptionReport:
    continuous: bool
    growth_degree: Optional[int]
    envelope_constant: float
    detail: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.continuous and self.growth_degree is not None


def assumption_check(family: MarginalFamily, x_range=(-8.0, 8.0), degrees=range(6),
                     jump_tol: float = 1e-3) -> AssumptionReport:
    """Diagnose the standing regularity assumption on the index derivative.

    Continuity: paired probes (s, s + 1e-6) at 21 anchors must not jump by
    more than jump_tol, and the derivative must exist at every anchor.
    Growth: the smallest degree p such that sup_s |dU/ds| / (1 + |x|^p),
    scanned along increasing |x|, never exceeds 1.25x its max over the first
    quartile of probes.  Degree None means no tested degree bounds it.
    """
    x_probes = np.linspace(x_range[0], x_range[1], 161)
    anchors = np.linspace(0.0, 1.0, 21)
    delta = 1e-6
    continuous = True
    singular_at = []
    x_small = np.linspace(x_range[0], x_range[1], 9)
    for s in anchors:
        lo = min(float(s), 1.0 - delta)
        try:
            a = family.potential_ds(lo, x_small)
            b = family.potential_ds(lo + delta, x_small)
        except SingularityError:
            continuous = False
            singular_at.append(float(s))
            continue
        if np.max(np.abs(a - b)) > jump_tol:
            continuous = False
            singular_at.append(float(s))

    try:
        g = np.asarray(family.ds_sup(x_probes), dtype=float)
    except SingularityError:
        g = np.full_like(x_probes, np.inf)
    order = np.argsort(np.abs(x_probes), kind="stable")
    gx = g[order]
    ax = np.abs(x_probes)[order]
    degree = None
    constant = math.inf
    quart = max(2, len(gx) // 4)
    for p in degrees:
        ratio = gx / (1.0 + ax ** p)
        head = float(ratio[:quart].max())
        if not np.isfinite(head):
            continue
        if float(ratio.max()) <= 1.25 * max(head, 1e-12):
            degree = int(p)
            constant = float(ratio.max())
            break
    return AssumptionReport(continuous=continuous, growth_degree=degree,
                            envelope_constant=constant,
                            detail={"singular_anchors": singular_at,
                                    "sup_ds_max": float(np.max(gx[np.isfinite(gx)], initial=0.0))})


def build_pathological_family(growth: Callable[[float], float],
                              pieces: int = 8,
                              t_knots=None) -> PathologicalGrowthFamily:
    """Construct the tangent-chord family whose index derivative tops the
    requested growth function along the chord points."""
    if t_knots is None:
        t_knots = 1.0 - 0.5 ** np.arange(pieces, dtype=float)
    fam = PathologicalGrowthFamily(growth, np.asarray(t_knots, dtype=float))
    report = convex_order_validate(fam)
    if not report.passed:
        raise convex_order_error(report)
    return fam


def convex_order_error(report: ConvexOrderReport):
    from .errors import ConvexOrderError
    return ConvexOrderError(
        f"convex order violated: drop {report.worst_violation:.3e} at {report.where}")


def sample_initial(family: MarginalFamily, count: int, seed: int, stream: int = 0):
    """Draw `count` i.i.d. samples of the initial marginal on stream (seed, stream)."""
    if count < 1:
        raise ValidationError("sample count must be >= 1")
    return family.sample_initial(count, seed, stream)


def load_atomic_family_csv(path) -> AtomicTableFamily:
    """Strict reader for `s,position,weight` tables grouped by non-decreasing s."""
    groups: list[tuple[float, list, list]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["s", "position", "weight"]:
            raise ValidationError("atomic family file must start with header 's,position,weight'")
        for ln, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValidationError(f"line {ln}: expected 3 fields")
            try:
                s, pos, w = (float(v) for v in row)
            except ValueError as exc:
                raise ValidationError(f"line {ln}: {exc}") from None
            if any(math.isnan(v) or math.isinf(v) for v in (s, pos, w)):
                raise ValidationError(f"line {ln}: non-finite value")
            if groups and s < groups[-1][0]:
                raise ValidationError(f"line {ln}: s values must be non-decreasing")
            if not groups or s > groups[-1][0]:
                groups.append((s, [], []))
            groups[-1][1].append(pos)
            groups[-1][2].append(w)
    entries = []
    for s, pos, w in groups:
        w_arr = np.asarray(w, dtype=float)
        pos_arr = np.asarray(pos, dtype=float)
        if abs(float(w_arr.sum()) - 1.0) > CSV_WEIGHT_TOL:
            raise ValidationError(f"weights for s={s} sum to {w_arr.sum()!r}")
        scale = max(1.0, float(np.abs(pos_arr).max()))
        if abs(float(w_arr @ pos_arr)) > CSV_WEIGHT_TOL * scale:
            raise ValidationError(f"marginal at s={s} is not centred")
        # accepted file: normalize away the <= 1e-9 rounding residue exactly,
        # never shift a genuinely non-centred marginal (rejected above)
        w_arr = w_arr / w_arr.sum()
        pos_arr = pos_arr - float(w_arr @ pos_arr)
        entries.append((s, AtomicMeasure(pos_arr, w_arr)))
    return AtomicTableFamily(entries)
