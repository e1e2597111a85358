"""Monte Carlo verification of embeddings realized by barrier hitting.

Paths start from the initial marginal and are monitored at multiples of
h_sim with no bridge correction, so hitting times carry the O(sqrt(h_sim))
overshoot bias of discrete monitoring that the verification tolerances
absorb, and every stop time is an integer multiple of h_sim.  Each path
keeps its own clock.  A path far from its layer's stopping region crosses a
box that holds no stopping point in one exact step: the exit time of the
box and the position at its window's end are drawn from their laws, so the
monitored law is unchanged.  Other paths take a segment of Gaussian steps,
with one ascending sweep over the layers per segment.  A snapshot at time t
holds B_(t ^ sigma_n).  The randomized alternative embedding takes no time
steps: its stopping time and stopped value are sampled exactly, from one
normal and one uniform draw per path.  Paths are processed in fixed-size
blocks, each block on its own counter-based stream keyed by (seed, block
index); results are therefore bit-identical for any thread count.
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
        # snapshots are taken on monitored steps, so match t by its step
        step = round(t / self.h_sim)
        if abs(step * self.h_sim - t) <= 1e-9:
            for k in self.snapshots:
                if round(k / self.h_sim) == step:
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
    Monitoring is discrete, every h_sim, so stops keep the O(sqrt(h_sim))
    overshoot of discrete monitoring, and every stop time is an integer
    multiple of h_sim.  Each path keeps its own clock.  On each pass a path
    in layer j looks for the widest box around it whose nodes the barrier
    table shows free of layer j's region until the box window ends (see
    `boxes`).  Windows end no later than the next snapshot step and the
    horizon, and last at most d^2 for a box of radius d.  A window of at
    least one segment is crossed in one exact step (see `_cross_boxes`),
    since no monitored point in the box can stop the path.  Other paths take
    a segment of monitored steps, in which the layers are swept once in
    increasing order, so a path can stop in several layers within one
    segment.  The snapshot at time t is B_(t ^ sigma_n): the running
    position, or B_sigma_n for a path that stopped by t.  Times requested
    for the same monitored step share one snapshot, keyed by the first of
    them.  Requires M >= 1, a positive horizon and a positive h_sim no
    larger than the solver time step the barriers came from.  Raises
    HorizonError when more than the tolerated fraction of paths fails to
    complete all stops before the horizon.
    """
    grid_dt = float(barrier_family.grid_desc["dt"])
    if not 0.0 < h_sim <= grid_dt + 1e-15:
        raise ValidationError(f"h_sim={h_sim} must be positive and at most the solver "
                              f"step {grid_dt}")
    T = float(barrier_family.grid_desc["T"]) if horizon is None else float(horizon)
    if not T > 0.0:
        raise ValidationError(f"horizon={T} must be positive")
    if M < 1:
        raise ValidationError(f"M={M} paths; need at least 1")
    steps = int(round(T / h_sim))
    requested = np.asarray(snapshot_times, dtype=float).ravel()
    if np.any(np.abs(np.round(requested / h_sim) * h_sim - requested) > 1e-9):
        raise ValidationError("snapshot times must be multiples of h_sim")
    # one snapshot per monitored step, under the first time requested for it
    snap_steps, first = np.unique(np.round(requested / h_sim).astype(int), return_index=True)
    snap_times = requested[first]
    if np.any(snap_steps > steps):
        raise ValidationError("snapshot times beyond the horizon")

    n = barrier_family.n
    x0 = np.empty(M)
    sigma = np.full((n + 1, M), np.inf)
    b_sigma = np.full((n + 1, M), np.nan)
    snaps = np.empty((len(snap_times), M))
    # short segments when many layers overlap, long ones for fine monitoring
    segment = int(np.clip(steps // (2 * n) if n else steps, 16, 256))
    # a box window ends at the next snapshot step or at the horizon
    bounds = np.append(snap_steps, steps)
    dx = float(barrier_family.grid_desc["dx"])
    radius_bits = len(barrier_family.x_nodes).bit_length()
    # the time of every monitored step, and the time a barrier must not exceed
    # to stop a path there
    clock = np.arange(steps + segment + 1) * h_sim
    reach = clock + 1e-12
    sqrt_h = math.sqrt(h_sim)

    def run_block(rng, lo, hi):
        bs = hi - lo
        x = np.asarray(family.sample_initial_rng(rng, bs), dtype=float)
        x0[lo:hi] = x
        sg = sigma[:, lo:hi]
        bg = b_sigma[:, lo:hi]
        snap = snaps[:, lo:hi]
        j_cur = np.ones(bs, dtype=np.int64)
        k = np.zeros(bs, dtype=np.int64)        # monitored steps taken

        def cascade(rows, P, first, length):
            """Advance layers for paths `rows` along monitored positions P.

            Column c of row i is the position at step first[i] + c; only the
            first length[i] columns count.  One ascending sweep over the
            layers: a path that stops in layer j is tested for layer j + 1
            from its stop column.  A range-min prune skips paths whose whole
            position span cannot enter the layer's region by their last
            step; survivors get the per-step interpolated test, in column
            chunks of 16 to 64, until their first stop.
            """
            m = P.shape[1]
            col = np.arange(m)
            t_last = reach[first + length - 1]
            span_lo = P.min(axis=1) if m > 4 else None
            span_hi = P.max(axis=1) if m > 4 else None
            at = j_cur[rows]
            start = np.zeros(rows.size, dtype=np.int64)
            for j in range(1, n + 1):
                idx = np.nonzero(at == j)[0]
                if span_lo is not None and idx.size:
                    idx = idx[barrier_family.range_min(j, span_lo[idx], span_hi[idx])
                              <= t_last[idx]]
                c0 = 0
                while idx.size and c0 < m:
                    c1 = min(m, c0 + min(max(c0, 16), 64))
                    cols = col[c0:c1]
                    ok = reach[first[idx, None] + cols] \
                        >= barrier_family.lookup(j, P[idx, c0:c1])
                    if np.any(start[idx] > c0):
                        ok &= cols >= start[idx, None]
                    if np.any(length[idx] < c1):
                        ok &= cols < length[idx, None]
                    hit = ok.any(axis=1)
                    stop, c = idx[hit], c0 + ok.argmax(axis=1)[hit]
                    sg[j, rows[stop]] = clock[first[stop] + c]
                    bg[j, rows[stop]] = P[stop, c]
                    at[stop] += 1
                    start[stop] = c
                    idx, c0 = idx[~hit], c1
            j_cur[rows] = at

        def record(rows, P, first, length):
            # running positions; stopped paths take B_sigma_n below
            for slot, s in enumerate(snap_steps):
                sel = np.nonzero((first <= s) & (s < first + length))[0]
                snap[slot, rows[sel]] = P[sel, s - first[sel]]

        def boxes(rows):
            """Radius and end step of each path's barrier-free box.

            With the path at cell position p, box a >= 0 spans the nodes
            floor(p) - a .. ceil(p) + a, and its radius d is the distance
            from x to the nearer end.  It is free up to step e when the
            smallest first-hit time over those nodes exceeds e h_sim: no
            monitored point inside it can then sit in the path's layer
            region by step e.  The window ends at e = min(k + floor(d^2 /
            h_sim), next snapshot step or horizon) for the widest box free
            that long, found bit by bit, since freedom can only be lost as a
            grows.  The box is then widened as far as it stays free for that
            window, and reaches on into the cells past its end nodes as far
            as the interpolated barrier allows: a window set by that radius
            holds when `lookup` at both ends, and the nodes between, exceed
            its end time, because the barrier is linear between them.
            Radius 0 marks a path whose window would be shorter than a
            segment.
            """
            xr, kr, at = x[rows], k[rows], j_cur[rows]
            pos = barrier_family.cell_position(xr)
            lo, hi = np.floor(pos).astype(np.int64), np.ceil(pos).astype(np.int64)
            near = np.minimum(pos - lo, hi - pos)
            limit = bounds[np.searchsorted(bounds, kr, side="right")]

            def window(sel, a):
                d = (a + near[sel]) * dx
                return np.minimum(kr[sel] + np.floor(d * d / h_sim).astype(np.int64),
                                  limit[sel])

            def last_free(j, sel, a):
                # last step, at most the limit, at which box a is free (one
                # correction for the rounding of the quotient)
                first_hit = barrier_family.node_min(j, lo[sel] - a, hi[sel] + a)
                last = np.floor(np.minimum((first_hit - 1e-12) / h_sim, limit[sel]))
                last -= last * h_sim + 1e-12 >= first_hit
                return last.astype(np.int64)

            def beyond(j, end, out, tau):
                # the part of the cell from node `end` towards node `out`
                # over which the interpolated barrier exceeds tau, kept a
                # hair short of `out`
                r_end = barrier_family.node_min(j, end, end)
                r_out = barrier_family.node_min(j, out, out)
                frac = np.where((r_end > tau) & (r_out > tau), 1.0, 0.0)
                part = (r_end > tau) & (r_out <= tau)
                frac[part] = (r_end[part] - tau[part]) / (r_end[part] - r_out[part])
                return np.minimum(frac, 1.0 - 1e-6)

            def widest(j, sel, end):
                # largest a whose box is free up to step end(a), or -1; past
                # four times the radius the longest window fills, widening
                # would only cut the chance of an early exit, P(tau_1 < 1/16)
                # = 1.3e-4, further
                cap = 4.0 * math.sqrt((limit[sel] - kr[sel]).max(initial=0) * h_sim) / dx + 1.0
                count = np.zeros(sel.size, dtype=np.int64)
                for bit in reversed(range(min(int(cap).bit_length(), radius_bits))):
                    trial = count + (1 << bit)
                    free = barrier_family.node_min(j, lo[sel] - trial + 1, hi[sel] + trial - 1) \
                        > end(trial - 1) * h_sim + 1e-12
                    count = np.where(free, trial, count)
                return count - 1

            radius, e = np.zeros(rows.size), kr.copy()
            for j in range(1, n + 1):
                sel = np.nonzero(at == j)[0]
                # no box is free for longer than box 0
                sel = sel[last_free(j, sel, 0) - kr[sel] >= segment]
                if sel.size == 0:
                    continue
                a = widest(j, sel, lambda a: window(sel, a))
                w = np.where(a >= 0, window(sel, a), kr[sel])
                # d^2 / h_sim grows in jumps, so the next box may be free past w
                next_free = last_free(j, sel, a + 1)
                w = np.maximum(w, np.minimum(window(sel, a + 1), next_free))
                grow = next_free >= w
                a[grow] = widest(j, sel[grow], lambda _: w[grow])
                # past the end nodes, as far as the longest window allows
                tau = limit[sel] * h_sim + 1e-12
                right, left = hi[sel] + a, lo[sel] - a
                d = np.minimum(right + beyond(j, right, right + 1, tau) - pos[sel],
                               pos[sel] - left + beyond(j, left, left - 1, tau)) * dx
                far = np.minimum(kr[sel] + np.floor(d * d / h_sim).astype(np.int64),
                                 np.minimum(limit[sel], last_free(j, sel, a)))
                t_far = far * h_sim + 1e-12
                reach = (a >= 0) & (barrier_family.lookup(j, xr[sel] - d) > t_far) \
                    & (barrier_family.lookup(j, xr[sel] + d) > t_far)
                radius[sel] = np.where(reach, d, np.where(a >= 0, (a + near[sel]) * dx, 0.0))
                e[sel] = np.where(reach, far, w)
            return np.where(e - kr >= segment, radius, 0.0), e

        # stops allowed at time zero (initial atoms already inside a barrier)
        every = np.arange(bs)
        cascade(every, x[:, None], np.zeros(bs, dtype=np.int64), np.ones(bs, dtype=np.int64))
        record(every, x[:, None], np.zeros(bs, dtype=np.int64), np.ones(bs, dtype=np.int64))

        while True:
            rows = np.nonzero((j_cur <= n) & (k < steps))[0]
            if rows.size == 0:
                break
            d, e = boxes(rows)
            fine, far = rows[d == 0.0], d > 0.0
            if fine.size:
                first = k[fine] + 1
                length = np.minimum(segment, steps - k[fine])
                P = rng.standard_normal((fine.size, segment))
                np.multiply(P, sqrt_h, out=P)
                np.cumsum(P, axis=1, out=P)
                P += x[fine, None]
                cascade(fine, P, first, length)
                record(fine, P, first, length)
                x[fine] = P[np.arange(fine.size), length - 1]
                k[fine] += length
            if far.any():
                rows = rows[far]
                x[rows], k[rows], left = _cross_boxes(rng, x[rows], k[rows], d[far], e[far],
                                                      h_sim)
                ones = np.ones(rows.size, dtype=np.int64)
                record(rows, x[rows, None], k[rows], ones)
                rows = rows[left]
                cascade(rows, x[rows, None], k[rows], ones[left])
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


def _cross_boxes(rng, x, k, d, e, h_sim):
    """One exact step of Brownian paths across their boxes [x - d, x + d].

    Path i is at x[i] at step k[i], and its box window ends at step e[i],
    with (e - k) h_sim <= d^2.  It leaves the box after tau = d^2 tau_1 on a
    fair side, tau_1 the exit time of [-1, 1]: u < P(tau_1 < window / d^2)
    tells whether it leaves within the window, and only then is tau drawn,
    by inverting the CDF at u.  A path that leaves is next monitored at the
    first step after k h_sim + tau, a normal increment beyond x +- d.  Any
    other path is monitored at e, at its endpoint given that it stayed in
    the box.  Returns the new positions and steps and a mask of the paths
    that left.  Draws two uniforms per path, then one normal per leaving
    path, then the endpoint proposals.
    """
    window = (e - k) * h_sim
    u = rng.random((2, x.size))
    left = u[0] < exit_time_cdf(window / (d * d))[0]
    tau = d[left] ** 2 * exit_time_quantile(u[0, left])
    step = e.copy()
    step[left] = np.minimum(k[left] + np.floor(tau / h_sim).astype(np.int64) + 1, e[left])
    gap = np.maximum((step[left] - k[left]) * h_sim - tau, 0.0)
    new = np.empty_like(x)
    new[left] = x[left] + np.where(u[1, left] < 0.5, -d[left], d[left]) \
        + np.sqrt(gap) * rng.standard_normal(tau.size)
    new[~left] = x[~left] + _endpoint_in_box(rng, d[~left], window[~left])
    return new, step, left


# Survival of a Brownian bridge from 0 to z over time t inside (-d, d): the
# image series sum_k (-1)^k exp(-2 k d (k d - z) / t) over all integers k.
# For |z| < d and t <= d^2 the pair +-k is at most 2 exp(-2 k (k - 1)), so
# the omitted pairs, k >= 5, sum to below 9e-18, under the 2^-53 grain of
# the uniform the probability is compared with.
_IMAGE_K = np.arange(1.0, 5.0)


def _bridge_survival(z, d, t):
    """P(a Brownian bridge from 0 to z over time t stays in (-d, d)), t <= d^2."""
    kd = _IMAGE_K * d[:, None]
    terms = np.exp(-2.0 * kd * (kd - z[:, None]) / t[:, None]) \
        + np.exp(-2.0 * kd * (kd + z[:, None]) / t[:, None])
    survival = 1.0 + (terms * (-1.0) ** _IMAGE_K).sum(axis=1)
    return np.where(np.abs(z) < d, np.clip(survival, 0.0, 1.0), 0.0)


def _endpoint_in_box(rng, d, t):
    """B_t - B_0 for Brownian motions that stay in (-d, d) up to t <= d^2.

    Rejection: normal proposals of variance t, accepted with the bridge
    survival probability, so the accepted law is the killed transition
    density.  Acceptance is P(tau_1 > t / d^2) >= P(tau_1 > 1) = 0.37.
    Each round draws one normal and then one uniform per pending path.
    """
    z = np.empty(d.size)
    todo = np.arange(d.size)
    while todo.size:
        prop = np.sqrt(t[todo]) * rng.standard_normal(todo.size)
        ok = rng.random(todo.size) < _bridge_survival(prop, d[todo], t[todo])
        z[todo[ok]] = prop[ok]
        todo = todo[~ok]
    return z


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
    that `marginal_fit` reads from the ensemble.  Requires M >= 1.
    """
    if M < 1:
        raise ValidationError(f"M={M} paths; need at least 1")
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

