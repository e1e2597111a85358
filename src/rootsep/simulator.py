"""Monte Carlo verification of embeddings realized by barrier hitting.

Paths start from the initial marginal and advance by Gaussian increments of
size h_sim, monitored at multiples of h_sim with no bridge correction, so
hitting times carry an O(sqrt(h_sim)) overshoot bias that the verification
tolerances absorb.  Each path's stops are found segment by segment, with
one ascending sweep over the layers per segment; a snapshot at time t holds
B_(t ^ sigma_n).  The randomized alternative embedding takes no time steps:
its stopping time and stopped value are sampled exactly, from one normal and
one uniform draw per path.  Paths are processed in fixed-size blocks, each
block on its own counter-based stream keyed by (seed, block index); results
are therefore bit-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfc

from .barriers import BarrierFamily
from .errors import HorizonError, ValidationError
from .marginals import MarginalFamily, make_stream
from .tolerances import CENSOR_FRACTION

BLOCK_SIZE = 1 << 14
KS_THRESHOLD = 0.01
POTENTIAL_THRESHOLD = 0.02
ATOM_MASS_THRESHOLD = 0.01


@dataclass
class PathEnsemble:
    """Simulated stopping-time sequences; sigma rows are 1-based layers."""

    M: int
    h_sim: float
    seed: int
    horizon: float
    s_values: np.ndarray            # layer indices s_1..s_n
    x0: np.ndarray                  # (M,)
    sigma: np.ndarray               # (n+1, M); row 0 unused, inf = censored
    b_sigma: np.ndarray             # (n+1, M); nan where censored
    snapshots: dict                 # t -> (M,) B_(t ^ sigma_n) at monitored time t
    censored: np.ndarray            # (M,) bool

    @property
    def n(self) -> int:
        return len(self.s_values)

    @property
    def censored_fraction(self) -> float:
        return float(self.censored.mean())

    def check_censoring(self, what: str) -> None:
        """Raise HorizonError for `what` when more than the tolerated
        fraction of the paths is censored at the horizon."""
        if self.censored_fraction > CENSOR_FRACTION:
            raise HorizonError(
                f"{what}: {self.censored_fraction:.2%} of paths censored at "
                f"T={self.horizon} (tolerated {CENSOR_FRACTION:.1%})")

    def values_at(self, j: int, t: float) -> np.ndarray:
        """Per-path stopped-or-running value B_(t ^ sigma_j)."""
        stopped = self.sigma[j] <= t + 1e-12
        if stopped.all():
            return self.b_sigma[j]
        key = self._snapshot_key(t)
        return np.where(stopped, self.b_sigma[j], self.snapshots[key])

    def _snapshot_key(self, t: float) -> float:
        for k in self.snapshots:
            if abs(k - t) <= 1e-12 * max(1.0, abs(t)):
                return k
        raise ValidationError(f"no snapshot recorded at t={t}")


def _run_blocks(run_block, M: int, seed: int, threads: int) -> None:
    """Call run_block(rng, lo, hi) on each BLOCK_SIZE block of the M paths.

    Block b draws from its own stream keyed by (seed, b), so the results do
    not depend on how many threads share the blocks.
    """
    def one(bid):
        lo = bid * BLOCK_SIZE
        run_block(make_stream(seed, bid), lo, min(lo + BLOCK_SIZE, M))

    blocks = range(-(-M // BLOCK_SIZE))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, blocks))
    else:
        for bid in blocks:
            one(bid)


def simulate_root(family: MarginalFamily, barrier_family: BarrierFamily,
                  M: int, h_sim: float, seed: int, *,
                  horizon: Optional[float] = None,
                  snapshot_times: Sequence[float] = (),
                  threads: int = 1) -> PathEnsemble:
    """Realize the barrier-hitting stopping times on M simulated paths.

    sigma_j is the first monitored time >= sigma_{j-1} at which the path sits
    inside barrier j (time at or past the interpolated first-hit curve).
    Paths advance in segments of monitored steps; in each segment the layers
    are swept once in increasing order, so a path can stop in several
    layers within one segment.  The snapshot at time t is B_(t ^ sigma_n):
    the running position, or B_sigma_n for a path that stopped by t.
    Requires h_sim no larger than the solver time step the barriers came
    from.  Raises HorizonError when more than the tolerated fraction of
    paths fails to complete all stops before the horizon.
    """
    grid_dt = float(barrier_family.grid_desc["dt"])
    if h_sim > grid_dt + 1e-15:
        raise ValidationError(f"h_sim={h_sim} exceeds the solver step {grid_dt}")
    T = float(barrier_family.grid_desc["T"]) if horizon is None else float(horizon)
    steps = int(round(T / h_sim))
    snap_times = np.asarray(sorted(set(float(t) for t in snapshot_times)), dtype=float)
    snap_steps = np.round(snap_times / h_sim).astype(int)
    if np.any(np.abs(snap_steps * h_sim - snap_times) > 1e-9):
        raise ValidationError("snapshot times must be multiples of h_sim")
    if np.any(snap_steps > steps):
        raise ValidationError("snapshot times beyond the horizon")

    n = barrier_family.n
    x0 = np.empty(M)
    sigma = np.full((n + 1, M), np.inf)
    b_sigma = np.full((n + 1, M), np.nan)
    snaps = np.empty((len(snap_times), M))
    # short segments when many layers overlap, long ones for fine monitoring
    segment = int(np.clip(steps // (2 * n) if n else steps, 16, 256))

    def cascade(j_cur, rows, P, times, sg, bg):
        """Advance layers for paths `rows` along segment positions P.

        One ascending sweep over the layers: a path that stops in layer j is
        tested for layer j + 1 from its stop column.  A range-min prune skips
        paths whose whole position span cannot enter the layer's region
        before the segment ends; survivors get the full per-step
        interpolated test.
        """
        m = P.shape[1]
        col = np.arange(m)
        t_last = float(times[-1]) + 1e-12
        span_lo = P.min(axis=1) if m > 4 else None
        span_hi = P.max(axis=1) if m > 4 else None
        at = j_cur[rows]
        start = np.zeros(rows.size, dtype=np.int64)
        for j in range(1, n + 1):
            idx = np.nonzero(at == j)[0]
            if span_lo is not None and idx.size:
                idx = idx[barrier_family.range_min(j, span_lo[idx], span_hi[idx]) <= t_last]
            if idx.size == 0:
                continue
            ok = times[None, :] + 1e-12 >= barrier_family.lookup(j, P[idx])
            ok &= col[None, :] >= start[idx, None]
            hit = ok.any(axis=1)
            idx, first = idx[hit], ok.argmax(axis=1)[hit]
            sg[j, rows[idx]] = times[first]
            bg[j, rows[idx]] = P[idx, first]
            at[idx] += 1
            start[idx] = first
        j_cur[rows] = at

    def run_block(rng, lo, hi):
        bs = hi - lo
        x = np.asarray(family.sample_initial_rng(rng, bs), dtype=float)
        x0[lo:hi] = x
        sg = sigma[:, lo:hi]
        bg = b_sigma[:, lo:hi]
        snap = snaps[:, lo:hi]
        j_cur = np.ones(bs, dtype=np.int64)
        sqrt_h = math.sqrt(h_sim)

        # stops allowed at time zero (initial atoms already inside a barrier)
        cascade(j_cur, np.arange(bs), x[:, None], np.array([0.0]), sg, bg)
        snap[snap_steps == 0] = x

        done = 0
        while done < steps:
            m = min(segment, steps - done)
            times = (done + 1 + np.arange(m)) * h_sim
            rows = np.nonzero(j_cur <= n)[0]
            if rows.size == 0:
                break
            inc = rng.standard_normal((rows.size, m))
            np.multiply(inc, sqrt_h, out=inc)
            np.cumsum(inc, axis=1, out=inc)
            P = inc
            P += x[rows, None]
            cascade(j_cur, rows, P, times, sg, bg)
            x[rows] = P[:, -1]
            # running positions; stopped paths take B_sigma_n below
            for slot in np.nonzero((snap_steps > done) & (snap_steps <= done + m))[0]:
                snap[slot, rows] = P[:, snap_steps[slot] - done - 1]
            done += m
        # B_(t ^ sigma_n): a path stopped by a snapshot time keeps its stop value
        snap[:] = np.where(sg[n] <= snap_steps[:, None] * h_sim + 1e-12, bg[n], snap)

    _run_blocks(run_block, M, seed, threads)

    ens = PathEnsemble(M=M, h_sim=h_sim, seed=seed, horizon=T,
                       s_values=np.asarray(barrier_family.s_values, dtype=float),
                       x0=x0, sigma=sigma, b_sigma=b_sigma,
                       snapshots={float(t): snaps[i] for i, t in enumerate(snap_times)},
                       censored=~np.isfinite(sigma[n]))
    ens.check_censoring("Root embedding")
    return ens


def empirical_potential(ensemble: PathEnsemble, j: int, t: float, x_probes):
    """Empirical potential -mean |B_(t ^ sigma_j) - x| with its stderr."""
    vals = ensemble.values_at(j, t)
    x_probes = np.atleast_1d(np.asarray(x_probes, dtype=float))
    devs = np.abs(vals[None, :] - x_probes[:, None])
    est = -devs.mean(axis=1)
    stderr = devs.std(axis=1, ddof=1) / math.sqrt(ensemble.M)
    return est, stderr


def ks_statistic(cdf_values_sorted: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance given CDF values at the sorted sample."""
    m = len(cdf_values_sorted)
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    return float(np.maximum(grid_hi - cdf_values_sorted, cdf_values_sorted - grid_lo).max())


@dataclass
class EmbeddingResult:
    marginals: list
    ui_proxy: dict

    @property
    def passed(self) -> bool:
        return all(m["passed"] for m in self.marginals) and self.ui_proxy["passed"]


def marginal_fit(ensemble: PathEnsemble, family: MarginalFamily) -> EmbeddingResult:
    """Per-marginal goodness of fit of the stopped values.

    Purely atomic laws are scored by nearest-atom masses; every other law by
    the one-sample KS distance against its CDF.  Both also report the
    sup distance between empirical and exact potentials on 17 probe points
    spanning the support radius plus one.
    """
    out = []
    for j in range(1, ensemble.n + 1):
        s_j = float(ensemble.s_values[j - 1])
        vals = ensemble.b_sigma[j][~ensemble.censored]
        law = family.law(s_j)
        entry = {"j": j, "s": s_j, "count": int(vals.size)}
        r = family.support_radius(s_j) + 1.0
        probes = np.linspace(-r, r, 17)
        emp = np.array([-np.abs(vals - xp).mean() for xp in probes])
        ref = family.potential(s_j, probes)
        entry["potential_distance"] = float(np.abs(emp - ref).max())
        entry["potential_curve"] = {"x": probes.tolist(), "empirical": emp.tolist(),
                                    "exact": np.asarray(ref).tolist()}
        pot_ok = entry["potential_distance"] <= POTENTIAL_THRESHOLD
        if law.normal_mass == 0.0:
            nearest = np.argmin(np.abs(vals[:, None] - law.positions[None, :]), axis=1)
            masses = np.bincount(nearest, minlength=len(law.positions)) / vals.size
            entry["atom_masses"] = masses.tolist()
            entry["atom_mass_error"] = float(np.abs(masses - law.weights).max())
            entry["atom_displacement"] = float(np.abs(vals - law.positions[nearest]).max())
            entry["passed"] = bool(entry["atom_mass_error"] <= ATOM_MASS_THRESHOLD and pot_ok)
        else:
            order = np.argsort(vals, kind="stable")
            cdf_sorted = np.asarray(family.cdf(s_j, vals[order]), dtype=float)
            entry["ks"] = ks_statistic(cdf_sorted)
            entry["passed"] = bool(entry["ks"] <= KS_THRESHOLD and pot_ok)
        out.append(entry)

    vals_n = ensemble.b_sigma[ensemble.n][~ensemble.censored]
    mean_abs = float(np.abs(vals_n).mean())
    se = float(np.abs(vals_n).std(ddof=1) / math.sqrt(vals_n.size))
    target = -float(np.asarray(family.potential(float(ensemble.s_values[-1]),
                                                np.array([0.0])))[0])
    ui = {"mean_abs": mean_abs, "stderr": se, "target": target,
          "max_abs": float(np.abs(vals_n).max()),
          "passed": bool(abs(mean_abs - target) <= 3.0 * se + 2.0 * math.sqrt(ensemble.h_sim))}
    return EmbeddingResult(marginals=out, ui_proxy=ui)


class MonotonePiecewisePoly:
    """Non-decreasing, non-negative piecewise polynomial on [0, inf)."""

    def __init__(self, breakpoints, coefficients):
        self.breaks = np.asarray(breakpoints, dtype=float)
        if self.breaks[0] != 0.0 or np.any(np.diff(self.breaks) <= 0):
            raise ValidationError("breakpoints must start at 0 and increase")
        self.coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        if len(self.coeffs) != len(self.breaks):
            raise ValidationError("need one coefficient list per piece")
        t = np.linspace(0.0, 100.0, 2001)
        ft = self(t)
        if np.any(ft < -1e-12) or np.any(np.diff(ft) < -1e-12):
            raise ValidationError("functional weight must be non-decreasing and non-negative")

    @classmethod
    def poly(cls, *coeffs):
        return cls([0.0], [list(coeffs)])

    def _piece(self, t):
        return np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, len(self.coeffs) - 1)

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for i, c in enumerate(self.coeffs):
            mask = self._piece(t) == i
            if mask.any():
                out[mask] = np.polynomial.polynomial.polyval(t[mask] - self.breaks[i], c)
        return out

    def antiderivative(self, t):
        """Exact integral of f from 0 to t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg_int = []
        acc = 0.0
        ends = np.concatenate([self.breaks[1:], [np.inf]])
        for i, c in enumerate(self.coeffs):
            seg_int.append(acc)
            if np.isfinite(ends[i]):
                ci = np.polynomial.polynomial.polyint(c)
                acc += float(np.polynomial.polynomial.polyval(ends[i] - self.breaks[i], ci))
        out = np.zeros_like(t)
        for i, c in enumerate(self.coeffs):
            mask = self._piece(t) == i
            if mask.any():
                ci = np.polynomial.polynomial.polyint(c)
                out[mask] = seg_int[i] + np.polynomial.polynomial.polyval(
                    t[mask] - self.breaks[i], ci)
        return out


def optimality_functional(ensemble: PathEnsemble, f: MonotonePiecewisePoly):
    """Estimate E integral_0^sigma_n f(t) dt with exact inner integration.

    A censored path contributes integral_0^horizon f, so with censored paths
    the estimate is a lower bound (f >= 0).  More than the tolerated
    fraction of censored paths raises HorizonError, as in `simulate_root`.
    """
    if not isinstance(f, MonotonePiecewisePoly):
        raise ValidationError("functional weight must be a MonotonePiecewisePoly")
    ensemble.check_censoring("optimality functional")
    vals = f.antiderivative(np.minimum(ensemble.sigma[ensemble.n], ensemble.horizon))
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(ensemble.M))
    return est, stderr


# Exit time tau_1 of [-1, 1] by a Brownian motion from 0.  Its CDF is the
# reflection series 2 sum_k (-1)^k erfc((2k+1)/sqrt(2t)) for t <= 1 and the
# theta series 1 - (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 t/8) above;
# the first omitted term is below 1e-18 on each side of the switch.
_EXIT_SWITCH = 1.0
_REFLECTION_K = np.arange(4)
_THETA_K = np.arange(3)


def _exit_cdf_reflection(t: np.ndarray):
    """Exit-time CDF and density from the reflection series (t <= 1)."""
    a = (2.0 * _REFLECTION_K + 1.0) / np.sqrt(2.0 * t[:, None])
    sign = (-1.0) ** _REFLECTION_K
    cdf = 2.0 * (sign * erfc(a)).sum(axis=1)
    density = 2.0 * (sign * a * np.exp(-a * a)).sum(axis=1) / (math.sqrt(math.pi) * t)
    return cdf, density


def _exit_cdf_theta(t: np.ndarray):
    """Exit-time CDF and density from the theta series (t >= 1)."""
    odd = 2.0 * _THETA_K + 1.0
    sign = (-1.0) ** _THETA_K
    decay = np.exp(-(odd * odd * (math.pi ** 2 / 8.0)) * t[:, None])
    survival = (4.0 / math.pi) * (sign / odd * decay).sum(axis=1)
    density = (math.pi / 2.0) * (sign * odd * decay).sum(axis=1)
    return 1.0 - survival, density


def exit_time_cdf(t):
    """P(tau_1 <= t) and its density, tau_1 the exit time of [-1, 1] from 0."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    cdf, density = np.empty_like(t), np.empty_like(t)
    small = t <= _EXIT_SWITCH
    cdf[small], density[small] = _exit_cdf_reflection(t[small])
    cdf[~small], density[~small] = _exit_cdf_theta(t[~small])
    return cdf, density


# Newton starts from a log-t table; 1024 nodes leave a start close enough
# that two steps reach rounding level from u = 2^-53 to 1 - 2^-53, whose
# quantiles lie in [0.014, 30].
_EXIT_LOG_T = np.linspace(math.log(0.01), math.log(32.0), 1024)
_EXIT_TABLE = exit_time_cdf(np.exp(_EXIT_LOG_T))[0]
_EXIT_ROWS = np.concatenate([[True], np.diff(_EXIT_TABLE) > 0])
_EXIT_LOG_T, _EXIT_TABLE = _EXIT_LOG_T[_EXIT_ROWS], _EXIT_TABLE[_EXIT_ROWS]
_NEWTON_STEPS = 2


def exit_time_quantile(u):
    """Inverse exit-time CDF: the tau with P(tau_1 <= tau) = u, for u in [0, 1)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    tau = np.exp(np.interp(u, _EXIT_TABLE, _EXIT_LOG_T))
    for _ in range(_NEWTON_STEPS):
        cdf, density = exit_time_cdf(tau)
        tau -= (cdf - u) / density
    return np.where(u > 0.0, tau, 0.0)


def alternative_embedding(M: int, seed: int, h_sim: float = 5e-5,
                          horizon: float = 25.0, threads: int = 1) -> PathEnsemble:
    """Randomized non-barrier embedding of N(0,1) from a point start.

    Each path draws an independent level |G|, G standard normal, and stops at
    sigma = inf{t : |B_t| >= |G|}.  The stopped law is N(0,1) by symmetry and
    E sigma = 1, but the time profile is far from optimal for increasing
    weights.

    The stop is sampled exactly, without time steps.  By Brownian scaling
    sigma = G^2 tau_1, with tau_1 the exit time of [-1, 1] from 0, drawn by
    inverting its CDF.  The exit side is a fair sign independent of |G| and
    of tau_1, so sign(G) serves for it and B_sigma = G.  Each block draws its
    normals and then its uniforms from its own stream.  Paths with
    sigma > horizon are censored.  h_sim only sets the monitoring allowance
    that `marginal_fit` reads from the ensemble.
    """
    sigma = np.full((2, M), np.inf)
    b_sigma = np.full((2, M), np.nan)

    def run_block(rng, lo, hi):
        level = rng.standard_normal(hi - lo)
        stop = level * level * exit_time_quantile(rng.random(hi - lo))
        inside = stop <= horizon
        sigma[1, lo:hi] = np.where(inside, stop, np.inf)
        b_sigma[1, lo:hi] = np.where(inside, level, np.nan)

    _run_blocks(run_block, M, seed, threads)

    ens = PathEnsemble(M=M, h_sim=h_sim, seed=seed, horizon=horizon,
                       s_values=np.array([1.0]), x0=np.zeros(M), sigma=sigma,
                       b_sigma=b_sigma, snapshots={}, censored=~np.isfinite(sigma[1]))
    ens.check_censoring("alternative embedding")
    return ens

