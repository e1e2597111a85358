"""Peacock marginal families, each described once by the law of its marginals.

A family (mu_s), s in [0,1], of centred probability measures that is
non-decreasing in convex order is given through

    potential(s, x)  =  -E_{Y ~ mu_s} |x - Y|,

which is concave, 1-Lipschitz in x, and pointwise non-increasing in s.
A family kind defines `law`, `potential_ds` and `descriptor`.  `law(s)`
describes mu_s as atoms or as a centred normal law, never both; the
potential, support radius, CDF, Gaussian floor and initial sampling
derive from it in closed form, as do the grid's damping default, the
solver's kink guard and off-grid rule, and the simulator's fit metric.
Operations are pure, families immutable, and sampling takes an explicit
(seed, stream) pair so parallel callers never share generator state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConvexOrderError, SingularityError, ValidationError
from .special import ndtr
from .tolerances import CONVEX_TOL

TAIL_MASS = 1e-6          # quantile level defining support_radius
WEIGHT_TOL = 1e-12        # atomic weight-sum tolerance (direct construction)
CSV_WEIGHT_TOL = 1e-9     # weight-sum gate for file input
MEAN_TOL = 1e-12          # centering tolerance

_NORMAL_RADIUS = 4.753424308817087     # the standard normal quantile at 1 - TAIL_MASS


def _norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def gaussian_potential(variance, x):
    """Potential of N(0, variance), vectorized over x and over variances
    that broadcast against it; variance 0 gives -|x|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.maximum(variance, 0.0))
        z = x / s
        out = -s * (2.0 * _norm_pdf(z) + z * (2.0 * ndtr(z) - 1.0))
    return np.where(s > 0.0, out, -np.abs(x))


def gaussian_potential_dv(variance, x):
    """d/dv of the N(0, v) potential: minus the density at x."""
    if variance <= 0.0:
        raise SingularityError("potential derivative undefined at zero variance")
    s = math.sqrt(variance)
    return -_norm_pdf(np.asarray(x, dtype=float) / s) / s


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); safe to create per task."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class Law:
    """One marginal mu_s: atoms carrying `weights` at `positions`, or, with
    no atoms, the normal law N(0, normal_var); Law() and Law([], []) are
    N(0, 0).  Atoms are checked when the law is built: finite, strictly
    increasing positions with positive weights summing to 1 within
    WEIGHT_TOL, centred within MEAN_TOL."""

    positions: np.ndarray = ()
    weights: np.ndarray = ()
    normal_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.positions.size and self.normal_var != 0.0:
            raise ValidationError("a law is atoms or a normal law, not both")
        if self.positions.size or self.weights.size:
            _check_atoms(self.positions, self.weights)

    def support_radius(self) -> float:
        """Smallest radius leaving at most TAIL_MASS/2 outside on each side:
        the quantile of the cumulative atom weights, or the normal quantile."""
        if not self.positions.size:
            return math.sqrt(self.normal_var) * _NORMAL_RADIUS
        cum = np.cumsum(self.weights)
        ends = [np.searchsorted(cum, TAIL_MASS / 2.0, side="right"),
                np.searchsorted(cum, 1.0 - TAIL_MASS / 2.0, side="left")]
        return float(np.abs(self.positions[np.clip(ends, 0, cum.size - 1)]).max())


# ---------------------------------------------------------------------------
# families


class MarginalFamily:
    """Interface shared by all family kinds.  Values are immutable.

    A kind defines law, potential_ds and descriptor; the potential, support
    radius, CDF, Gaussian floor and initial sampling are derived from the
    law.
    """

    kind = "abstract"

    def law(self, s: float) -> Law:
        raise NotImplementedError

    def potential_ds(self, s: float, x) -> np.ndarray:
        raise NotImplementedError

    def potential(self, s: float, x) -> np.ndarray:
        """-E|Y - x| for Y ~ mu_s: the row of `potentials` for s."""
        return self.potentials([s], x)[0]

    def potentials(self, s_values, x) -> np.ndarray:
        """Row k: -E|Y - x| for Y ~ mu_(s_values[k]), vectorized over x.

        Atomic rows are -sum_i w_i |x - p_i|, and the normal rows are
        evaluated in one call.
        """
        laws = [self.law(float(s)) for s in s_values]
        x = np.asarray(x, dtype=float)
        out = np.empty((len(laws),) + x.shape)
        for k, law in enumerate(laws):
            if law.positions.size:
                out[k] = -(np.abs(x[..., None] - law.positions) @ law.weights)
        rows = [k for k, law in enumerate(laws) if not law.positions.size]
        if rows:
            var = np.array([laws[k].normal_var for k in rows])
            out[rows] = gaussian_potential(var.reshape((-1,) + (1,) * x.ndim), x)
        return out

    def support_radius(self, s: float) -> float:
        """Radius leaving at most TAIL_MASS of mu_s outside (`Law.support_radius`)."""
        return self.law(s).support_radius()

    def atoms(self, s: float) -> Law:
        # former name of law(); perfbench/workloads.py still reads it
        return self.law(s)

    def sample_initial_rng(self, rng: np.random.Generator, count: int) -> np.ndarray:
        law = self.law(0.0)
        if not law.positions.size:
            return math.sqrt(law.normal_var) * rng.standard_normal(count)
        cum = np.cumsum(law.weights)
        idx = np.searchsorted(cum, rng.random(count), side="right")
        return law.positions[idx.clip(0, len(cum) - 1)]

    def cdf(self, s: float, x) -> np.ndarray:
        """Right-continuous distribution function of mu_s."""
        law = self.law(s)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not law.positions.size:
            return ndtr(x / math.sqrt(law.normal_var))
        return (x[..., None] >= law.positions) @ law.weights

    def initial_gaussian_floor(self, t: float, x) -> np.ndarray:
        """Potential of mu_0 * N(0, t), the Jensen floor for running values:
        each atom p spreads to N(p, t), a normal law N(0, v) to N(0, v + t)."""
        law = self.law(0.0)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not law.positions.size:
            return gaussian_potential(law.normal_var + t, x)
        out = np.zeros_like(x)
        for p, w in zip(law.positions, law.weights):
            out += w * gaussian_potential(t, x - p)
        return out

    def descriptor(self) -> dict:
        return {"kind": self.kind}


class GaussianShiftFamily(MarginalFamily):
    """mu_s = N(0, t0 + s) with variance offset t0 > 0."""

    kind = "gaussian_shift"

    def __init__(self, t0: float):
        if not t0 > 0:
            raise ValidationError("gaussian_shift requires t0 > 0")
        self.t0 = float(t0)

    def potential_ds(self, s, x):
        return gaussian_potential_dv(self.t0 + s, x)

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

    def potential_ds(self, s, x):
        c = self._scale(s)
        if c == 0.0:
            raise SingularityError("scaled family with s0 = 0 has a singular index derivative at s = 0")
        xi = np.atleast_1d(np.asarray(x, dtype=float)) / c
        return gaussian_potential(1.0, xi) - xi * (1.0 - 2.0 * ndtr(xi))

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

    def potential_ds(self, s, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -2.0 * self.p1 * np.maximum(0.0, 1.0 - np.abs(x))

    def law(self, s):
        # atoms of zero weight (p = 0, or p = 1/2 up to rounding) are left out
        p = self.p(s)
        mid = 1.0 - 2.0 * p
        w = np.array([p, mid if mid >= 1e-15 else 0.0, p])
        return Law(np.array([-1.0, 0.0, 1.0])[w > 0.0], w[w > 0.0])

    def descriptor(self):
        return {"kind": self.kind, "p0": self.p0, "p1": self.p1}


class AtomicTableFamily(MarginalFamily):
    """Piecewise-constant (cadlag) family of atomic laws indexed by s.

    Each entry is (s, Law) with at least one atom (`Law` checks the
    atoms).
    """

    kind = "atomic_table"

    def __init__(self, entries: Sequence[tuple[float, Law]]):
        if not entries:
            raise ValidationError("atomic table needs at least one entry")
        svals = [float(s) for s, _ in entries]
        if any(b <= a for a, b in zip(svals, svals[1:])):
            raise ValidationError("atomic table s values must be strictly increasing")
        if not (0.0 <= svals[0] and svals[-1] <= 1.0):
            raise ValidationError("atomic table s values must lie in [0, 1]")
        if svals[0] > 0.0:
            raise ValidationError("atomic table must define the s = 0 marginal")
        if not all(law.positions.size for _, law in entries):
            raise ValidationError(_ATOMS_SHAPE)
        self.entries = [(float(s), law) for s, law in entries]

    def law(self, s):
        if not (0.0 <= s <= 1.0):
            raise ValidationError(f"marginal index {s} outside [0, 1]")
        out = self.entries[0][1]
        for sv, law in self.entries:
            if sv <= s:
                out = law
            else:
                break
        return out

    def potential_ds(self, s, x):
        # central difference of step 1e-5, one-sided at the endpoints
        lo, hi = max(0.0, s - 1e-5), min(1.0, s + 1e-5)
        return (self.potential(hi, x) - self.potential(lo, x)) / (hi - lo)

    def descriptor(self):
        return {"kind": self.kind,
                "entries": [{"s": s, "positions": law.positions.tolist(),
                             "weights": law.weights.tolist()} for s, law in self.entries]}


_ATOMS_SHAPE = "atoms must be a non-empty 1-d list of (position, weight)"


def _check_atoms(pos: np.ndarray, w: np.ndarray) -> None:
    # array methods, not np.all / np.diff: every atomic `law` call runs this
    if pos.ndim != 1 or w.shape != pos.shape:
        raise ValidationError(_ATOMS_SHAPE)
    if not (np.isfinite(pos).all() and np.isfinite(w).all()):
        raise ValidationError("non-finite atom data")
    if (pos[1:] <= pos[:-1]).any():
        raise ValidationError("atom positions must be strictly increasing")
    if (w <= 0).any():
        raise ValidationError("atom weights must be positive")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"atom weights sum to {total!r}, not 1")
    mean = float(w @ pos)
    if abs(mean) > MEAN_TOL * max(1.0, float(np.abs(pos).max())):
        raise ValidationError(f"atomic law not centred (mean {mean!r})")


# ---------------------------------------------------------------------------
# operations


@dataclass
class ConvexOrderReport:
    passed: bool
    worst_violation: float            # most negative drop of U along increasing s
    where: Optional[tuple] = None     # (s_lo, s_hi, x) of the worst pair

    def __bool__(self):
        return self.passed


def convex_order_validate(family: MarginalFamily, s_probes) -> ConvexOrderReport:
    """Check that s -> potential(s, x) is non-increasing from each of the
    increasing s_probes to the next: 41 x values across the support of
    mu_1, CONVEX_TOL slack."""
    r = max(family.support_radius(1.0), 1.0)
    x_probes = np.linspace(-r, r, 41)
    s_probes = np.asarray(s_probes, dtype=float)
    vals = family.potentials(s_probes, x_probes)
    drops = vals[:-1] - vals[1:]          # should be >= 0
    worst = float(drops.min())
    where = None
    if drops.size:
        k, i = np.unravel_index(int(drops.argmin()), drops.shape)
        where = (float(s_probes[k]), float(s_probes[k + 1]), float(x_probes[i]))
    return ConvexOrderReport(passed=worst >= -CONVEX_TOL, worst_violation=worst, where=where)


@dataclass
class AssumptionReport:
    continuous: bool
    growth_degree: Optional[int]
    envelope_constant: float
    detail: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.continuous and self.growth_degree is not None


def assumption_check(family: MarginalFamily) -> AssumptionReport:
    """Diagnose the standing regularity assumption on the index derivative.

    Continuity: paired probes (s, s + 1e-6) at 21 anchors, on 9 points of
    x in [-8, 8], must not jump by more than 1e-3, and the derivative must
    exist at every anchor.  Growth: the smallest degree p in 0..5 such that
    sup_s |dU/ds| / (1 + |x|^p), scanned along increasing |x| on 161 points
    of [-8, 8], never exceeds 1.25x its max over the first quartile of
    probes.  Degree None means no tested degree bounds it.
    """
    x_probes = np.linspace(-8.0, 8.0, 161)
    anchors = np.linspace(0.0, 1.0, 21)
    delta = 1e-6
    continuous = True
    singular_at = []
    x_small = np.linspace(-8.0, 8.0, 9)
    for s in anchors:
        lo = min(float(s), 1.0 - delta)
        try:
            a = family.potential_ds(lo, x_small)
            b = family.potential_ds(lo + delta, x_small)
        except SingularityError:
            continuous = False
            singular_at.append(float(s))
            continue
        if np.max(np.abs(a - b)) > 1e-3:
            continuous = False
            singular_at.append(float(s))

    g = np.zeros_like(x_probes)        # sup over 41 anchors of |dU/ds|
    for s in np.linspace(0.0, 1.0, 41):
        try:
            g = np.maximum(g, np.abs(family.potential_ds(float(s), x_probes)))
        except SingularityError:
            g = g + np.inf
    order = np.argsort(np.abs(x_probes), kind="stable")
    gx = g[order]
    ax = np.abs(x_probes)[order]
    degree = None
    constant = math.inf
    quart = max(2, len(gx) // 4)
    for p in range(6):
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


def convex_order_error(report: ConvexOrderReport):
    return ConvexOrderError(
        f"convex order violated: drop {report.worst_violation:.3e} at {report.where}")


def load_atomic_family_csv(path) -> AtomicTableFamily:
    """Strict reader for `s,position,weight` tables grouped by non-decreasing s."""
    groups: list[tuple[float, list, list]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read atomic family file {path}: {exc}") from None
    reader = csv.reader(text.splitlines())
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
        entries.append((s, Law(pos_arr, w_arr)))
    return AtomicTableFamily(entries)
