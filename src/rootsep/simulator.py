"""Monte Carlo verification of embeddings realized by barrier hitting.

Paths start from the initial marginal and advance by Gaussian increments of
size h_sim, monitored at multiples of h_sim with no bridge correction, so
hitting times carry an O(sqrt(h_sim)) overshoot bias that the verification
tolerances absorb.  Paths are processed in fixed-size blocks, each block on
its own counter-based stream keyed by (seed, block index); results are
therefore bit-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
    snapshots: dict                 # t -> (M,) path values at monitored time t
    censored: np.ndarray            # (M,) bool
    family_desc: dict = field(default_factory=dict)
    barrier_desc: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.s_values)

    @property
    def censored_fraction(self) -> float:
        return float(self.censored.mean())

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


def _run_blocks(run_block, M: int, seed: int, threads: int, block_size: int) -> None:
    """Call run_block(rng, lo, hi) on each fixed block of the M paths.

    Block b draws from its own stream keyed by (seed, b), so the results do
    not depend on how many threads share the blocks.
    """
    def one(bid):
        lo = bid * block_size
        run_block(make_stream(seed, bid), lo, min(lo + block_size, M))

    blocks = range(-(-M // block_size))
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
                  threads: int = 1, block_size: int = BLOCK_SIZE) -> PathEnsemble:
    """Realize the barrier-hitting stopping times on M simulated paths.

    sigma_j is the first monitored time >= sigma_{j-1} at which the path sits
    inside barrier j (time at or past the interpolated first-hit curve).
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

    def cascade(j_cur, rows, P, times, start, sg, bg):
        """Advance layers for paths `rows` along segment positions P.

        A range-min prune skips paths whose whole position span cannot enter
        the layer's region before the segment ends; survivors get the full
        per-step interpolated test.
        """
        m = P.shape[1]
        col = np.arange(m)
        t_last = float(times[-1]) + 1e-12
        span_lo = P.min(axis=1) if m > 4 else None
        span_hi = P.max(axis=1) if m > 4 else None
        while True:
            progressed = False
            active = j_cur[rows] <= n
            if not active.any():
                break
            for jv in np.unique(j_cur[rows][active]):
                mask = active & (j_cur[rows] == jv)
                if span_lo is not None:
                    reachable = barrier_family.range_min(
                        int(jv), span_lo[mask], span_hi[mask]) <= t_last
                    if not reachable.any():
                        continue
                    mask[np.nonzero(mask)[0][~reachable]] = False
                Pm = P[mask]
                rbar = barrier_family.lookup(int(jv), Pm)
                ok = times[None, :] + 1e-12 >= rbar
                ok &= col[None, :] >= start[mask, None]
                anyh = ok.any(axis=1)
                if not anyh.any():
                    continue
                first = ok.argmax(axis=1)
                sel = np.nonzero(mask)[0][anyh]
                rsel = rows[sel]
                sg[jv, rsel] = times[first[anyh]]
                bg[jv, rsel] = P[sel, first[anyh]]
                j_cur[rsel] += 1
                start[sel] = first[anyh]
                progressed = True
            if not progressed:
                break

    def run_block(rng, lo, hi):
        bs = hi - lo
        x = np.asarray(family.sample_initial_rng(rng, bs), dtype=float)
        x0[lo:hi] = x
        sg = sigma[:, lo:hi]
        bg = b_sigma[:, lo:hi]
        j_cur = np.ones(bs, dtype=np.int64)
        snap_lookup = {int(k): i for i, k in enumerate(snap_steps)}
        sqrt_h = math.sqrt(h_sim)

        # stops allowed at time zero (initial atoms already inside a barrier)
        cascade(j_cur, np.arange(bs), x[:, None], np.array([0.0]),
                np.zeros(bs, dtype=np.int64), sg, bg)
        if 0 in snap_lookup:
            snaps[snap_lookup[0], lo:hi] = x

        done = 0
        while done < steps:
            m = min(segment, steps - done)
            times = (done + 1 + np.arange(m)) * h_sim
            rows = np.nonzero(j_cur <= n)[0]
            if rows.size == 0:
                for mm, slot in snap_lookup.items():
                    if mm > done:
                        snaps[slot, lo:hi] = x
                break
            inc = rng.standard_normal((rows.size, m))
            np.multiply(inc, sqrt_h, out=inc)
            np.cumsum(inc, axis=1, out=inc)
            P = inc
            P += x[rows, None]
            start = np.zeros(rows.size, dtype=np.int64)
            cascade(j_cur, rows, P, times, start, sg, bg)
            x[rows] = P[:, -1]
            fin = j_cur[rows] > n
            if fin.any():
                x[rows[fin]] = bg[n, rows[fin]]
            for mm, slot in snap_lookup.items():
                if done < mm <= done + m:
                    # frozen paths keep their stopped value; running paths
                    # take the segment column at that monitored time
                    snaps[slot, lo:hi] = x
                    snaps[slot, lo:hi][rows] = P[:, mm - done - 1]
                    if fin.any():
                        snaps[slot, lo:hi][rows[fin]] = np.where(
                            sg[n, rows[fin]] <= mm * h_sim + 1e-12,
                            bg[n, rows[fin]], P[fin, mm - done - 1])
            done += m

    _run_blocks(run_block, M, seed, threads, block_size)

    censored = ~np.isfinite(sigma[n])
    ens = PathEnsemble(M=M, h_sim=h_sim, seed=seed, horizon=T,
                       s_values=np.asarray(barrier_family.s_values, dtype=float),
                       x0=x0, sigma=sigma, b_sigma=b_sigma,
                       snapshots={float(t): snaps[i] for i, t in enumerate(snap_times)},
                       censored=censored,
                       family_desc=family.descriptor(),
                       barrier_desc=barrier_family.descriptor())
    if ens.censored_fraction > CENSOR_FRACTION:
        raise HorizonError(
            f"{ens.censored_fraction:.2%} of paths censored at T={T} "
            f"(tolerated {CENSOR_FRACTION:.1%})")
    return ens


def empirical_potential(ensemble: PathEnsemble, j: int, t: float, x_probes):
    """Empirical potential -mean |B_(t ^ sigma_j) - x| with its stderr."""
    vals = ensemble.values_at(j, t)
    x_probes = np.atleast_1d(np.asarray(x_probes, dtype=float))
    devs = np.abs(vals[None, :] - x_probes[:, None])
    est = -devs.mean(axis=1)
    stderr = devs.std(axis=1, ddof=1) / math.sqrt(ensemble.M)
    return est, stderr


def ks_statistic(sample: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance given CDF values at the sorted sample."""
    m = len(cdf_values_sorted)
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    return float(np.maximum(grid_hi - cdf_values_sorted, cdf_values_sorted - grid_lo).max())


@dataclass
class EmbeddingResult:
    M: int
    h_sim: float
    marginals: list
    functionals: dict = field(default_factory=dict)
    censored_fraction: float = 0.0
    ui_proxy: Optional[dict] = None

    @property
    def passed(self) -> bool:
        ok = all(m["passed"] for m in self.marginals)
        if self.ui_proxy is not None:
            ok = ok and self.ui_proxy["passed"]
        return ok


def marginal_fit(ensemble: PathEnsemble, family: MarginalFamily,
                 potential_probes=None) -> EmbeddingResult:
    """Per-marginal goodness of fit of the stopped values.

    Purely atomic laws are scored by nearest-atom masses; every other law by
    the one-sample KS distance against its CDF.  Both also report the
    sup distance between empirical and exact potentials on probe points.
    """
    out = []
    for j in range(1, ensemble.n + 1):
        s_j = float(ensemble.s_values[j - 1])
        vals = ensemble.b_sigma[j][~ensemble.censored]
        law = family.law(s_j)
        entry = {"j": j, "s": s_j, "count": int(vals.size)}
        if potential_probes is None:
            r = family.support_radius(s_j) + 1.0
            probes = np.linspace(-r, r, 17)
        else:
            probes = np.asarray(potential_probes, dtype=float)
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
            entry["ks"] = ks_statistic(vals, cdf_sorted)
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
    return EmbeddingResult(M=ensemble.M, h_sim=ensemble.h_sim, marginals=out,
                           censored_fraction=ensemble.censored_fraction, ui_proxy=ui)


class MonotonePiecewisePoly:
    """Non-decreasing, non-negative piecewise polynomial on [0, inf)."""

    def __init__(self, breakpoints, coefficients, check_to: float = 100.0):
        self.breaks = np.asarray(breakpoints, dtype=float)
        if self.breaks[0] != 0.0 or np.any(np.diff(self.breaks) <= 0):
            raise ValidationError("breakpoints must start at 0 and increase")
        self.coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        if len(self.coeffs) != len(self.breaks):
            raise ValidationError("need one coefficient list per piece")
        t = np.linspace(0.0, check_to, 2001)
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
    """Estimate E integral_0^sigma_n f(t) dt with exact inner integration."""
    if not isinstance(f, MonotonePiecewisePoly):
        raise ValidationError("functional weight must be a MonotonePiecewisePoly")
    if ensemble.censored.any():
        raise HorizonError("ensemble contains censored paths; functional undefined")
    vals = f.antiderivative(ensemble.sigma[ensemble.n])
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(ensemble.M))
    return est, stderr


def alternative_embedding(M: int, seed: int, h_sim: float = 5e-5,
                          horizon: float = 25.0, threads: int = 1,
                          block_size: int = 1 << 14, segment: int = 512) -> PathEnsemble:
    """Randomized non-barrier embedding of N(0,1) from a point start.

    Each path draws an independent level |G|, G standard normal, and stops at
    the first monitored time with |B_t| >= |G|.  The stopped law is N(0,1)
    by symmetry and E sigma = 1, but the time profile is far from optimal
    for increasing weights.
    """
    sigma = np.full((2, M), np.inf)
    b_sigma = np.full((2, M), np.nan)
    x0 = np.zeros(M)
    steps_total = int(round(horizon / h_sim))
    sqrt_h = math.sqrt(h_sim)

    def run_block(rng, lo, hi):
        bs = hi - lo
        a = np.abs(rng.standard_normal(bs))
        x = np.zeros(bs)
        alive = np.arange(bs)
        sg = sigma[1, lo:hi]
        bg = b_sigma[1, lo:hi]
        done_steps = 0
        while alive.size and done_steps < steps_total:
            m = min(segment, steps_total - done_steps)
            inc = rng.standard_normal((alive.size, m))
            np.multiply(inc, sqrt_h, out=inc)
            np.cumsum(inc, axis=1, out=inc)
            inc += x[alive, None]
            hit = np.abs(inc) >= a[alive, None]
            anyhit = hit.any(axis=1)
            first = hit.argmax(axis=1)
            rows = alive[anyhit]
            sg[rows] = (done_steps + first[anyhit] + 1) * h_sim
            bg[rows] = inc[anyhit, first[anyhit]]
            x[alive] = inc[:, -1]
            alive = alive[~anyhit]
            done_steps += m

    _run_blocks(run_block, M, seed, threads, block_size)

    censored = ~np.isfinite(sigma[1])
    ens = PathEnsemble(M=M, h_sim=h_sim, seed=seed, horizon=horizon,
                       s_values=np.array([1.0]), x0=x0, sigma=sigma, b_sigma=b_sigma,
                       snapshots={}, censored=censored,
                       family_desc={"kind": "gaussian_target_randomized_level"},
                       barrier_desc={"rule": "stop at |B| >= |G|"})
    if ens.censored_fraction > CENSOR_FRACTION:
        raise HorizonError(f"{ens.censored_fraction:.2%} of alternative paths censored")
    return ens


def continuity_check(family: MarginalFamily, ensemble: PathEnsemble,
                     s_anchor: float = 0.5,
                     deltas: Sequence[float] = (1 / 8, 1 / 16, 1 / 32)) -> dict:
    """Estimate E[sigma_s - sigma_(s-delta)] for shrinking delta.

    The anchor and every s - delta must be layer indices of the ensemble.
    The differences must head to zero: each estimate should drop below its
    predecessor plus joint noise.
    """
    svals = ensemble.s_values
    from .marginals import assumption_check as _ac
    assumption = _ac(family)

    def layer_of(s):
        idx = np.nonzero(np.abs(svals - s) <= 1e-12)[0]
        if idx.size == 0:
            raise ValidationError(f"s={s} is not a simulated layer index")
        return int(idx[0]) + 1

    j_hi = layer_of(s_anchor)
    rows = []
    for d in deltas:
        j_lo = layer_of(s_anchor - d)
        diff = ensemble.sigma[j_hi] - ensemble.sigma[j_lo]
        diff = diff[~ensemble.censored]
        est = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(diff.size)) if diff.size > 1 else 0.0
        rows.append({"delta": float(d), "mean": est, "stderr": se})
    decreasing = all(rows[i + 1]["mean"] <= rows[i]["mean"]
                     + 3.0 * (rows[i]["stderr"] + rows[i + 1]["stderr"]) + 1e-12
                     for i in range(len(rows) - 1))
    toward_zero = rows[-1]["mean"] <= rows[0]["mean"] + 3.0 * (
        rows[0]["stderr"] + rows[-1]["stderr"]) and rows[-1]["mean"] >= -3.0 * rows[-1]["stderr"]
    return {"anchor": s_anchor, "rows": rows, "decreasing": decreasing,
            "toward_zero": toward_zero,
            "assumption_satisfied": assumption.satisfied}
