"""Monte Carlo verification of embeddings realized by barrier hitting.

Paths start from the initial marginal and stop in continuous time, at the
first time each layer's region holds them (see `simulate_root`).  Each path
keeps its own clock and moves by exact box steps: the exit time of a box
that no region point lies inside and the position at its window's end are
drawn from their laws.  A window may end exactly when the region first
reaches the box, a box edge may sit exactly on a level of the region, and
next to a sloped cell of an interpolated barrier a box may move with the
region's moving boundary, its near edge on it, its law made exact by a
Girsanov reweighting; so every stop is exact, on the region's boundary.
A fixed box between levels or free ends lasts until the region can reach
it: a path between two atoms' levels stops in one box step.
A box's exit time is a scaled exit time of [-1, 1], drawn exactly by
Devroye's alternating-series method (`_exit_within`); a short window's
endpoint acceptance series runs only where a cheap bound leaves its test
open (`_survival_floor`), with decisions and draws unchanged.
A snapshot at time t holds B_(t ^ sigma_n), taken at exactly the requested
t; h_sim monitors nothing and only sets the verification allowance
(`PathEnsemble.allowance`, bounded by `check_h_sim`).  The randomized
alternative embedding is sampled exactly in one pass, from one normal and
one exit-time draw (`_exit_time`) per path.
Paths are processed in fixed-size blocks, each block on its own
counter-based stream keyed by (seed, block index); results are therefore
bit-identical for any thread count.  Threads share the Root simulation's
blocks as runs of consecutive blocks balanced by path count; each run steps
on its own thread while it holds at least a block's worth of live paths,
and the calling thread finishes all narrow tails in one loop (`_run_blocks`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyint, polyval

from .barriers import BarrierFamily
from .errors import HorizonError, ValidationError
from .marginals import MarginalFamily, make_stream
from .tolerances import CENSOR_FRACTION, LATTICE_TOL

BLOCK_SIZE = 1 << 14
# a box of radius d moving at velocity v has |v| d <= MOVING_REACH and a
# window of at most MOVING_WINDOW d^2, which 99% of its paths leave (`_box`)
MOVING_REACH = 1.0
MOVING_WINDOW = 4.0
KS_THRESHOLD = 0.01
POTENTIAL_THRESHOLD = 0.02
ATOM_MASS_THRESHOLD = 0.01


@dataclass
class PathEnsemble:
    """Simulated stopping-time sequences; sigma rows are 1-based layers."""

    h_sim: float
    horizon: float
    s_values: np.ndarray            # layer indices s_1..s_n
    x0: np.ndarray                  # (M,)
    sigma: np.ndarray               # (n+1, M); row 0 unused, inf = censored
    b_sigma: np.ndarray             # (n+1, M); nan where censored
    snapshots: dict                 # t -> (M,) B_(t ^ sigma_n) at snapshot time t

    @property
    def M(self) -> int:
        return self.x0.size

    @property
    def n(self) -> int:
        return len(self.s_values)

    @property
    def censored(self) -> np.ndarray:
        return ~np.isfinite(self.sigma[self.n])

    @property
    def allowance(self) -> float:
        """2 sqrt(h_sim), the bias allowed for on top of the sampling noise
        when an empirical potential or mean is checked against its target."""
        return 2.0 * math.sqrt(self.h_sim)

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
        if t not in self.snapshots:
            raise ValidationError(f"no snapshot recorded at t={t}")
        return np.where(stopped, self.b_sigma[j], self.snapshots[t])


class _Streams:
    """The random streams of consecutive BLOCK_SIZE path blocks.

    Block b of the M paths draws from its own counter-based stream keyed by
    (seed, b).  `draw` calls fn(rng, k, *parts) on the stream of every block
    with k of the given sorted rows (path indices), parts the block's slices
    of the per-row arrays args, and joins the results along their last
    axis, so a block's draws do not depend on the other blocks.
    """

    def __init__(self, seed: int, blocks: int):
        self.rngs = [make_stream(seed, b) for b in range(blocks)]
        self._starts = np.arange(1, blocks) * BLOCK_SIZE

    def draw(self, rows, fn, *args):
        cuts = [0, *np.searchsorted(rows, self._starts).tolist(), rows.size]
        parts = [fn(rng, b - a, *(arg[a:b] for arg in args))
                 for rng, a, b in zip(self.rngs, cuts, cuts[1:]) if b > a]
        if not parts:
            return fn(self.rngs[0], 0, *args)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def check_h_sim(h_sim: float, dt: float) -> None:
    """The rule for h_sim: positive and at most the solver step dt that the
    barriers came from, which bounds the verification allowance it sets
    (`PathEnsemble.allowance`); else ValidationError."""
    if not 0.0 < h_sim <= dt + 1e-15:
        raise ValidationError(f"h_sim={h_sim} must be positive and at most the solver "
                              f"step {dt}")


def _runs(M: int, threads: int) -> list:
    """The (first, last) block ranges of the runs `threads` threads share:
    consecutive runs that cover the M paths' blocks once, q or q + 1 blocks
    each with the extra blocks on the last runs.  Only the last block may
    be short, so the runs' path counts differ by at most BLOCK_SIZE."""
    blocks = -(-M // BLOCK_SIZE)
    count = min(max(threads, 1), blocks)
    q, extra = divmod(blocks, count)
    ends = np.cumsum([q + (k >= count - extra) for k in range(count)]).tolist()
    return list(zip([0, *ends[:-1]], ends))


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not every platform has it
        return os.cpu_count() or 1


def _run_blocks(run, M: int, seed: int, threads: int) -> None:
    """Call run(streams, lo, hi, narrow) on the runs of consecutive
    BLOCK_SIZE blocks of the M paths (`_runs`), paths lo..hi - 1, at most
    `threads` runs and no more than the process has cores (`_cores`).

    A single run (one thread or core, or M <= BLOCK_SIZE) runs on the
    calling thread with narrow = 1 and finishes every path.  Several runs
    each run on their own thread while they hold at least narrow =
    BLOCK_SIZE live paths, and then return their live state, a tuple of
    arrays whose first holds the paths' rows.  The states are joined in run
    order, so the rows stay sorted, and run(streams, 0, M, 1, state)
    finishes all of them on the calling thread.  Narrow tails make many
    small numpy calls that hold the interpreter lock, so one thread
    finishing them all wastes none of the other's time.

    All runs share one `_Streams`: each block draws from its own stream,
    only in the run that holds its rows, and its live rows draw in sorted
    order whichever run or thread holds them, so the results do not depend
    on how many threads share the blocks.
    """
    runs = _runs(M, min(threads, _cores()))
    streams = _Streams(seed, runs[-1][1])

    def one(k, narrow=BLOCK_SIZE):
        first, last = runs[k]
        return run(streams, first * BLOCK_SIZE, min(last * BLOCK_SIZE, M), narrow)

    if len(runs) == 1:
        one(0, narrow=1)
        return
    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        states = list(pool.map(one, range(len(runs))))
    run(streams, 0, M, 1, tuple(np.concatenate(part) for part in zip(*states)))


def simulate_root(family: MarginalFamily, barrier_family: BarrierFamily,
                  M: int, h_sim: float, seed: int, *,
                  snapshot_times: Sequence[float] = (),
                  threads: int = 1) -> PathEnsemble:
    """Realize the barrier-hitting stopping times on M simulated paths.

    sigma_j = inf{t >= sigma_{j-1} : t >= r_j(B_t)}, the continuous-time
    hitting time of layer j's region, r_j the interpolated first-hit curve
    (see `BarrierFamily.lookup`).  A cell with one infinite end holds no
    region point but its finite node, which acts as a level from its first
    hit on.  Each path keeps its own clock and moves by exact box steps
    (`_cross_boxes`), each box chosen by `_box` so that no point strictly
    inside it meets the region before the window ends:
    - a window may end exactly at the smallest first-hit time over the
      nodes inside the box; a path then in the region stops at that time
      (vertical faces, such as a plateau r = s_j, and columns that switch
      on);
    - a box edge may sit exactly on a level node, so an exit through it at
      or after the node's first hit is a stop with B_sigma on the level;
    - near a sloped cell, where the interpolated boundary moves at a
      constant rate, a box may move with it, its near edge on the boundary
      (`_box`), so an exit through that edge is a stop with B_sigma on the
      boundary at sigma, b(sigma).
    Every stop is exact: no stopped law carries a bias from the stepping.
    Windows also end at every snapshot time and at the horizon T of the
    grid the barriers came from.  A fixed box of radius d whose sides are
    levels or free ends keeps its window until then, however many d^2
    that is; a sloped side cuts it to what the side's reach allows, and a
    moving box's window lasts at most MOVING_WINDOW d^2.  A box step gathers and
    scatters through index arrays only where they select fewer than all
    rows (`_rows`): identity gathers are skipped, with the same floats and
    the same draws.  At each stop the
    next layers are tried, in increasing order, at the same point, so
    sigma_1 <= ... <= sigma_n.  The snapshot at time t
    is B_(t ^ sigma_n): the running position, or B_sigma_n for a path that
    stopped by t.

    Snapshots are taken at exactly the requested times, each keyed by its
    time; a time up to LATTICE_TOL past T reads as T.  h_sim monitors
    nothing: it is kept with the ensemble for its verification allowance
    (`PathEnsemble.allowance`), within the bounds of `check_h_sim`.
    Requires M >= 2 (a standard error needs two paths) and snapshot times
    in [0, T].
    Raises HorizonError when more than the tolerated fraction of paths fails
    to complete all stops before T.
    """
    check_h_sim(h_sim, barrier_family.grid.dt)
    T = barrier_family.grid.T
    if M < 2:
        raise ValidationError(f"M={M} paths; a standard error needs at least 2")
    requested = np.asarray(snapshot_times, dtype=float).ravel()
    for bad, why in ((np.isnan(requested), "not a number"), (requested < 0.0, "negative"),
                     (requested > T + LATTICE_TOL, f"beyond the horizon T={T}")):
        if bad.any():
            raise ValidationError(f"snapshot time {requested[bad][0]} is {why}")
    # one snapshot per distinct time, a window's end; `which` maps each
    # requested time to its snapshot
    snap_at, which = np.unique(np.minimum(requested, T), return_inverse=True)
    # every window ends by the next snapshot time or the horizon
    bounds = np.unique(np.append(snap_at, T))

    n = barrier_family.n
    x0 = np.empty(M)
    sigma = np.full((n + 1, M), np.inf)
    b_sigma = np.full((n + 1, M), np.nan)
    snaps = np.empty((snap_at.size, M))

    def run_paths(streams, lo, hi, narrow, state=None):
        # live paths, compacted once per step: rows (path indices, sorted as
        # the streams need them), positions, cell positions, clocks, layers,
        # barrier times; paths lo..hi - 1 from their start, or the live
        # `state` that runs left, stepped until fewer than `narrow` are left

        def stop(k):
            sigma[j[k], rows[k]] = t[k]
            b_sigma[j[k], rows[k]] = x[k]
            j[k] += 1

        def settle(k):
            # stop paths k in every next layer whose region holds (t, x)
            while k.size:
                k = k[j[_rows(k, j.size)] <= n]
                s = _rows(k, j.size)
                r[s] = barrier_family.lookup(j[s], x[s], pos=pos[s])
                k = k[r[s] <= t[s] + 1e-12]
                stop(k)

        def record(k):
            # running positions of paths whose window ended at a snapshot time
            tk = t[_rows(k, t.size)]
            slot = np.minimum(np.searchsorted(snap_at, tk), snap_at.size - 1)
            on = np.nonzero(snap_at[slot] == tk)[0]
            snaps[slot[on], rows[k[on]]] = x[k[on]]

        if state is None:
            rows = np.arange(lo, hi)
            x = np.asarray(streams.draw(rows, family.sample_initial_rng), dtype=float)
            x0[lo:hi] = x
            pos = barrier_family.cell_position(x)
            t = np.zeros(rows.size)
            j = np.ones(rows.size, dtype=np.int64)
            r = np.empty(rows.size)
            every = np.arange(rows.size)
            settle(every)           # initial atoms already inside a region stop at t = 0
            if snap_at.size:
                record(every)
        else:
            rows, x, pos, t, j, r = state

        while True:
            live = _rows(np.nonzero((j <= n) & (t < T))[0], rows.size)
            rows, x, pos, t, j, r = rows[live], x[live], pos[live], t[live], j[live], r[live]
            if rows.size < narrow:
                return rows, x, pos, t, j, r
            limit = bounds[np.searchsorted(bounds, t, side="right")]
            d, u, w, v = _box(barrier_family, j, x, pos, r, t, limit)
            x, t = _cross_boxes(streams, rows, x, t, d, u, w, v)
            x, pos = _onto_nodes(barrier_family, x)
            every = np.arange(rows.size)
            settle(every)
            if snap_at.size:
                record(every)

    _run_blocks(run_paths, M, seed, threads)
    # B_(t ^ sigma_n): a path stopped by a snapshot time keeps its stop value
    snaps[:] = np.where(sigma[n] <= snap_at[:, None] + 1e-12, b_sigma[n], snaps)

    ens = PathEnsemble(h_sim=h_sim, horizon=T,
                       s_values=np.asarray(barrier_family.s_values, dtype=float),
                       x0=x0, sigma=sigma, b_sigma=b_sigma,
                       snapshots={float(t): snaps[k] for t, k in zip(requested, which)})
    ens.check_censoring("Root embedding")
    return ens


def _onto_nodes(barrier_family: BarrierFamily, x):
    """x, with every position that `cell_position` puts on an interior grid
    node moved onto that node, and the cell positions.  The edge nodes are
    left out, as `cell_position` clips there: every x below the grid reads
    0, and no x reads the last node's index."""
    pos = barrier_family.cell_position(x)
    i = pos.astype(np.int64)
    return np.where((pos == i) & (i > 0), barrier_family.x_nodes[i], x), pos


def _reach(barrier_family, j, pos, w, cap, s):
    """How far the paths at cell positions pos may reach on side s (+1 right,
    -1 left) in a window that ends by w.

    Nodes are scanned outward from the path, at most `cap` of them, and are
    free while their first hit is at or after w: never-hit nodes are skipped
    up to the first finite one, and the rest are scanned by halving steps
    over range minima.  With no blocker among them the reach ends on the
    last node scanned.  When the node before the first blocker e is never
    hit, the cell between holds no region point but e, and the reach ends
    on e: a level, or a column that switches on within the window.
    Otherwise the barrier is linear over that cell, and for a window ending
    at W <= w the reach ends where it equals W, so it retreats from e at
    dx / (r_inner - r_e) per unit of W past r_e.

    Returns the distance `full` to node e (or the last node), and that
    retreat rate and r_e (both 0 on levels and free ends).
    """
    dx = barrier_family.grid.dx
    start = (np.floor(pos) + 1 if s > 0 else np.ceil(pos) - 1).astype(np.int64)
    f = barrier_family.first_finite(j, start, s)
    m = s * (f - start)
    hit = barrier_family.node_min(j, f, f) < w
    m = np.minimum(np.where(hit, m, m + 1), cap)
    scan = np.nonzero(~hit & (m < cap))[0]
    if scan.size:
        js, base, ms, cs, ws = j[scan], start[scan], m[scan], cap[scan], w[scan]
        for bit in reversed(range(int((cs - ms).max()).bit_length())):
            trial = ms + (1 << bit)
            far = base + s * (trial - 1)
            ok = (trial <= cs) & (barrier_family.node_min(js, np.minimum(base, far),
                                                          np.maximum(base, far)) >= ws)
            ms = np.where(ok, trial, ms)
        m[scan] = ms
    blocked = m < cap
    e = start + s * np.where(blocked, m, m - 1)
    r, last = barrier_family.r, barrier_family.r.shape[1] - 1
    r_e = r[j - 1, np.minimum(np.maximum(e, 0), last)]
    r_in = r[j - 1, np.minimum(np.maximum(e - s, 0), last)]
    sloped = blocked & np.isfinite(r_in)
    rate = np.zeros(pos.size)
    rate[sloped] = dx / (r_in[sloped] - r_e[sloped])
    return s * (e - pos) * dx, rate, np.where(sloped, r_e, 0.0)


def _window(full, rate, r_e, t):
    """Longest window u that one side (see `_reach`) allows.  A level or a
    free end (rate 0) stays where it is, so it sets no limit: inf.  A
    sloped side allows u <= reach(t + u)^2: full^2 while that ends by r_e,
    else the root of u = (a - rate u)^2 with a = full + rate (r_e - t)."""
    a = full + rate * (r_e - t)
    ar = a * rate
    root = 2.0 * a * a / (2.0 * ar + 1.0 + np.sqrt(4.0 * ar + 1.0))
    return np.where(rate == 0.0, np.inf, np.where(t + full * full <= r_e, full * full, root))


def _box(barrier_family, j, x, pos, r, t, limit):
    """Radius d, window length u, window end w and velocity v of the box of
    each path, at x (cell position pos) in its layer j, whose barrier time
    there is r.

    The window ends at most at w_c, the earlier of `limit` and r.  The
    first screen reads `range_min` over the box of radius 4 sqrt(w_c - t):
    when the nodes touching it are first hit at some w after t, the box
    narrowed to 4 sqrt(w - t) is free until w (w_c at best), its window
    ends there and the path leaves early only with probability
    P(tau_1 < 1/16) = 1.3e-4.  Otherwise the region is already
    at the box: `_reach` scans both sides for a window ending by w_c.

    Where the nearer side's reach is a moving edge (a sloped cell whose
    first node is already hit, see `_reach`) at most MOVING_REACH / rate
    away, and at most half as far as the other side's, the box moves with
    it: radius d the gap, velocity v = -s * rate toward the path, s the
    side, so that [x - d + v (t' - t), x + d + v (t' - t)] has its near
    edge on the region's boundary.  Its window is at most MOVING_WINDOW d^2,
    and short enough that the far edge, moving away at rate, stays within
    the far side's reach.  It ends by w_c, which is at most the first hit of
    the edge cell's inner node, so the edge keeps one slope.  Every other
    box is fixed (v = 0): its window is the longest that both reaches
    support (`_window`), and its radius the smaller reach at its end.  A
    level or a free end stays put, so a box between two of them runs until
    w_c, its window any number of d^2: `_reach` found every node inside it
    free until then.
    """
    dx = barrier_family.grid.dx
    w_c = np.minimum(limit, r)
    d = 4.0 * np.sqrt(w_c - t)
    # that box, narrowed to 4 sqrt(w - t), touches no node hit before w
    w = np.minimum(w_c, barrier_family.range_min(j, x - d, x + d))
    u = w - t
    d = 4.0 * np.sqrt(np.maximum(u, 0.0))
    v = np.zeros(x.size)
    slow = np.nonzero(u <= 0.0)[0]
    if slow.size:
        # the box of the paths `slow`, for a window ending by w_c
        ts, end = t[slow], w_c[slow]
        cap = np.ceil(4.0 * np.sqrt(end - ts) / dx).astype(np.int64) + 1
        sides = [_reach(barrier_family, j[slow], pos[slow], end, cap, s) for s in (-1, 1)]
        u[slow] = np.minimum(end - ts, np.minimum(
            *[_window(full, rate, r_e, ts) for full, rate, r_e in sides]))
        w[slow] = np.where(u[slow] < end - ts, ts + u[slow], end)
        d[slow] = np.minimum(*[full - rate * np.maximum(w[slow] - r_e, 0.0)
                               for full, rate, r_e in sides])
        # each side's (full, rate, r_e, gap now); the nearer side is the
        # right one on the rows where `right`
        ends = [(full, rate, r_e, full - rate * np.maximum(ts - r_e, 0.0))
                for full, rate, r_e in sides]
        right = ends[1][3] < ends[0][3]
        _, rate, r_e, gap = [np.where(right, b, a) for a, b in zip(*ends)]
        far = [np.where(right, a, b) for a, b in zip(*ends)]
        # a box of radius gap moves with the nearer side's edge
        k = np.flatnonzero((rate > 0.0) & (r_e <= ts) & (rate * gap <= MOVING_REACH)
                           & (gap <= 0.5 * far[3]))
        if k.size:
            rate, dk, (ff, cf, ef, _), tk, ek = rate[k], gap[k], [a[k] for a in far], ts[k], end[k]
            # the far edge, at distance dk + rate (t' - t), stays within the
            # far reach ff - cf max(t' - ef, 0) up to the window's end
            room = np.minimum((ff - dk) / rate, (ff - dk + cf * (ef - tk)) / (rate + cf))
            uk = np.minimum(np.minimum(MOVING_WINDOW * dk * dk, ek - tk), room)
            m = slow[k]
            d[m], u[m], w[m] = dk, uk, np.where(uk < ek - tk, tk + uk, ek)
            v[m] = np.where(right[k], -rate, rate)
    return d, u, w, v


def _cross_boxes(streams, rows, x, t, d, u, w, v):
    """One exact step of Brownian paths across their boxes.

    Path i (row rows[i]) is at x[i] at time t[i].  Its box is [x - d, x + d]
    moving at velocity v (shifted by v (t' - t) at t'), and its window has
    length u[i] and ends at w[i] (the length is passed on its own, since
    t + u may round to t).  In the box's frame the path is a Brownian
    motion with drift -v.  The proposal is driftless but for its exit side:
    the path leaves the box after tau = d^2 tau_1, tau_1 the exit time of
    [-1, 1], when the exit time that `_exit_within` draws falls below
    r = u / d^2; it leaves by W = -d with probability 1 / (1 + exp(-2 v d)),
    1/2 where v = 0, else by W = d.  A path that stays moves by W, its
    endpoint given that it stayed in the box, in time tau = u.  Girsanov's
    weight of the drifted law over the driftless one, exp(-v W - v^2 tau /
    2), then leaves cosh(v d) exp(-v^2 tau / 2) for an exit and the whole
    weight for a stay, which are accepted over their bound c = max(cosh(v d),
    exp(|v| d - v^2 u / 2)): 1 / c of the proposals on average, at least
    exp(-|v| d).  A rejected path stays where it is, at time t, and draws
    again at its next step, which takes the same box from the same state.
    A path that leaves is on the box edge at t + tau, any other at time w.
    Returns the new positions and times.  Each block draws the exit times
    (`_exit_within`), then one uniform per leaving path for its side, then
    the endpoint proposals, then one uniform per moving box; a fixed box
    (v = 0) takes the driftless step and draws nothing more.
    """
    tau1 = streams.draw(rows, _exit_within, u / (d * d))
    leave = tau1 < np.inf
    # index arrays are faster to reuse than masks
    left, stay = np.flatnonzero(leave), _rows(np.flatnonzero(~leave), x.size)
    tau = u.copy()
    z = np.empty_like(x)
    new_t = w.copy()
    if left.size:
        dl = d[left]
        tau[left] = dl ** 2 * tau1[left]
        new_t[left] = np.minimum(t[left] + tau[left], w[left])
        side = streams.draw(rows[left], _uniforms)
        z[left] = np.where(side < 1.0 / (1.0 + np.exp(-2.0 * v[left] * dl)), -dl, dl)
    z[stay] = _endpoint_in_box(streams, rows[stay], d[stay], u[stay])
    moving = np.flatnonzero(v)
    if moving.size:
        vk, dk, tk = v[moving], d[moving], tau[moving]
        a = np.abs(vk) * dk
        drift = 0.5 * vk * vk
        bound = np.maximum(np.cosh(a), np.exp(a - drift * u[moving]))
        weight = np.where(leave[moving], np.cosh(a) * np.exp(-drift * tk),
                          np.exp(-vk * z[moving] - drift * tk))
        # the box's own motion over the step; a rejected path stays put
        z[moving] += vk * tk
        back = moving[streams.draw(rows[moving], _uniforms) * bound >= weight]
        z[back], new_t[back] = 0.0, t[back]
    return x + z, new_t


def _rows(k, size):
    """The sorted, distinct row indices k into arrays of `size` rows, or a
    slice that reads the arrays whole when k holds every row; the results
    are the same, and the gathers and scatters cheaper."""
    return slice(None) if k.size == size else k


# Survival of a Brownian bridge from 0 to z over time t inside (-d, d): the
# image series sum_k (-1)^k exp(-2 k d (k d - z) / t) over all integers k.
# For |z| < d and t <= d^2 the pair +-k is at most 2 exp(-2 k (k - 1)), so
# the omitted pairs, k >= 5, sum to below 9e-18, under the 2^-53 grain of
# the uniform the probability is compared with.
_IMAGE_K = np.arange(1.0, 5.0)


def _bridge_survival(z, d, t):
    """P(a Brownian bridge from 0 to z over time t stays in (-d, d)), t <= d^2."""
    survival = np.zeros(z.size)
    inside = np.nonzero(np.abs(z) < d)[0]
    z, d, t = z[inside, None], d[inside, None], t[inside, None]
    kd = _IMAGE_K * d
    terms = np.exp(-2.0 * kd * (kd - z) / t) + np.exp(-2.0 * kd * (kd + z) / t)
    survival[inside] = np.clip(1.0 + (terms * (-1.0) ** _IMAGE_K).sum(axis=1), 0.0, 1.0)
    return survival


def _survival_floor(z, d, t):
    """Lower bound of _bridge_survival(z, d, t) as evaluated (to 1e-15), t
    <= d^2: 1 - 2 exp(-2 d (d - |z|) / t) - 1e-12, as the bridge hits +-d with
    probability exp(-2 d (d -+ z) / t); below -1 for |z| >= d."""
    with np.errstate(all="ignore"):
        return 1.0 - 2.0 * np.exp(-2.0 * d * (d - np.abs(z)) / t) - 1e-12


# The same killed density in its eigenfunction series, (1/d) sum over odd n
# of exp(-n^2 pi^2 t / (8 d^2)) cos(n theta), theta = pi z / (2 d).  Since
# |cos(n theta) / cos(theta)| <= n, the terms past n = 1 change the n = 1
# term by a factor within 1 +- eps(t / d^2), eps(r) = sum n exp(-(n^2 - 1)
# pi^2 r / 8).  eps falls with r, so it is below 0.022 for every t >= d^2 / 2,
# however long, and the terms past n = 9 are below 1e-19 there; so the
# acceptance is above 0.95.
_EIGEN_N = np.arange(3.0, 11.0, 2.0)
_EIGEN_FROM = 0.5


def _eigen_acceptance(theta, r):
    """Acceptance of theta, drawn with density cos(theta) on (-pi/2, pi/2),
    for the killed density at t = r d^2, r >= _EIGEN_FROM."""
    decay = np.exp(-(_EIGEN_N ** 2 - 1.0) * (math.pi ** 2 / 8.0) * r[:, None])
    ratio = np.cos(_EIGEN_N * theta[:, None]) / np.cos(theta)[:, None]
    return np.clip((1.0 + (decay * ratio).sum(axis=1))
                   / (1.0 + (decay * _EIGEN_N).sum(axis=1)), 0.0, 1.0)


def _endpoint_in_box(streams, rows, d, t):
    """B_t - B_0 for Brownian motions that stay in (-d, d) up to t, any
    t >= 0.

    Rejection sampling of the killed transition density.  Below t = d^2 / 2
    the proposal is normal with variance t, accepted with the bridge
    survival probability (acceptance P(tau_1 > t / d^2) >= 0.80); from
    there on it is the density's first eigenfunction cos(pi z / (2 d)),
    drawn as z = (2 d / pi) arcsin(2 v - 1) and accepted with the ratio of
    the full eigenfunction series to it (acceptance above 0.95, nearer 1
    the longer t).  Each round, each block draws one normal and then two
    uniforms per pending path (rows `rows`).  The survival series runs only
    where `_survival_floor` leaves a test open (Devroye's squeeze).
    A path with t = 0 does not move and draws nothing.
    """
    z = np.zeros(d.size)
    todo = np.flatnonzero(t > 0.0)
    # pending rows of z, and their rows, radii and windows; the first round
    # reads the given arrays when every window is positive
    sel = _rows(todo, d.size)
    rows, d, t = rows[sel], d[sel], t[sel]
    while todo.size:
        g = streams.draw(rows, _normals)
        v = streams.draw(rows, lambda rng, k: rng.random((2, k)))
        prop, ok = np.sqrt(t) * g, np.empty(todo.size, dtype=bool)
        below = t < _EIGEN_FROM * d * d
        short, long = np.flatnonzero(below), np.flatnonzero(~below)
        sub = _rows(short, todo.size)
        zs, ds, ts, vs = prop[sub], d[sub], t[sub], v[1, sub]
        keep = vs < _survival_floor(zs, ds, ts)
        open_ = np.flatnonzero(~keep)
        if open_.size:
            keep[open_] = vs[open_] < _bridge_survival(zs[open_], ds[open_], ts[open_])
        ok[sub] = keep
        theta = np.arcsin(2.0 * v[0, long] - 1.0)
        dl = d[long]
        prop[long] = (2.0 / math.pi) * dl * theta
        ok[long] = v[1, long] < _eigen_acceptance(theta, t[long] / (dl * dl))
        # a rejected proposal is overwritten in a later round
        z[sel] = prop
        again = np.flatnonzero(~ok)
        todo, rows, d, t = todo[again], rows[again], d[again], t[again]
        sel = todo
    return z


def _normals(rng, k):
    return rng.standard_normal(k)


def _uniforms(rng, k):
    return rng.random(k)


# The exit time tau_1 of [-1, 1] from 0 has the law of J*(1, 0), Laplace
# transform 1 / cosh sqrt(2 lambda), drawn exactly by Devroye's alternating
# series (Statist. Probab. Lett. 2009; Polson, Scott & Windle, JASA 2013).
# Its density is sum_n (-1)^n a_n(x), a_n = pi (n + 1/2) times exp(-(n +
# 1/2)^2 pi^2 x / 2) past the split t = 0.64 and (2 / (pi x))^(3/2)
# exp(-2 (n + 1/2)^2 / x) up to it, so a_n / a_0 = (2n + 1) exp(-n (n + 1)
# c), c = pi^2 x / 2 or 2 / x, falls with n on each side.  The envelope a_0
# is an exponential of rate pi^2 / 8 past t, of mass (4 / pi) exp(-pi^2 t /
# 8), and up to t twice the Levy density of 1 / Z^2, Z standard normal.
# That piece is proposed by Marsaglia's tail method, |Z| = sqrt(a^2 + 2 E)
# beyond a = 1 / sqrt(t), E exponential, so 1 / Z^2 = t / (1 + 2 t E); its
# acceptance a / |Z| = sqrt(x / t) joins the series' acceptance, and its
# proposals have mass 4 phi(a) / a (`_levy_mass`).
_EXIT_SPLIT = 0.64
_EXIT_RATE = math.pi ** 2 / 8.0
# the terms n = 1..4 of the ratio a_n / a_0: n as a column, (-1)^n (2n + 1)
_EXIT_N = np.arange(1.0, 5.0)[:, None]
_EXIT_SIGNED_ODD = (-1.0) ** _EXIT_N * (2.0 * _EXIT_N + 1.0)


def _levy_mass(r):
    """The mass of the Levy piece's proposals below r, 4 phi(a) / a with
    a = 1 / sqrt(r), phi the normal density: at most 0.58 for r <=
    _EXIT_SPLIT, 1.3e-4 at r = 1/16 and 0 at r = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return (4.0 / math.sqrt(2.0 * math.pi)) * np.sqrt(r) * np.exp(-0.5 / r)


_EXIT_TAIL = (4.0 / math.pi) * math.exp(-_EXIT_RATE * _EXIT_SPLIT)
_EXIT_TAIL_SHARE = _EXIT_TAIL / (_EXIT_TAIL + float(_levy_mass(_EXIT_SPLIT)))


def _exit_accepts(rng, x, weight):
    """Accept each proposal x with probability weight times density / a_0 =
    sum_n (-1)^n a_n / a_0, one uniform per row.  c > 3.1, so the terms past
    n = 4 sum to below 1e-39, under the 2^-53 grain of the uniform."""
    c = np.where(x <= _EXIT_SPLIT, 2.0 / x, 4.0 * _EXIT_RATE * x)
    terms = _EXIT_SIGNED_ODD * np.exp(-_EXIT_N * (_EXIT_N + 1.0) * c)
    return rng.random(x.size) < weight * (1.0 + terms.sum(axis=0))


def _exit_time(rng, k):
    """k draws of tau_1.  Each round picks a piece of the envelope per
    pending row by its mass, draws the proposal and accepts it; a rejected
    row starts over.  A round draws, per row, a uniform for the piece, an
    exponential for the proposal and a uniform for its acceptance."""
    tau = np.empty(k)
    todo = np.arange(k)
    while todo.size:
        tail = rng.random(todo.size) < _EXIT_TAIL_SHARE
        e = rng.standard_exponential(todo.size)
        x = np.where(tail, _EXIT_SPLIT + e / _EXIT_RATE, _EXIT_SPLIT / (1.0 + 2.0 * _EXIT_SPLIT * e))
        ok = _exit_accepts(rng, x, np.where(tail, 1.0, np.sqrt(x / _EXIT_SPLIT)))
        tau[todo[ok]] = x[ok]
        todo = todo[~ok]
    return tau


def _exit_within(rng, k, r):
    """tau_1 on the k rows where it falls below r, else inf (r = nan too).
    Each row draws a uniform p.  A row with r <= _EXIT_SPLIT draws a Levy
    proposal below r only where p < `_levy_mass(r)` (at most 1), which is
    accepted (an exit) or not (a stay), so an exit before r has the density
    itself.  A longer row takes a whole `_exit_time`.  The draws come in
    that order."""
    tau = np.full(k, np.inf)
    hit = np.flatnonzero((rng.random(k) < _levy_mass(r)) & (r <= _EXIT_SPLIT))
    if hit.size:
        rh = r[hit]
        x = rh / (1.0 + 2.0 * rh * rng.standard_exponential(hit.size))
        ok = _exit_accepts(rng, x, np.sqrt(x / rh))
        tau[hit[ok]] = x[ok]
    long = np.flatnonzero(r > _EXIT_SPLIT)
    if long.size:
        x = _exit_time(rng, long.size)
        tau[long] = np.where(x < r[long], x, np.inf)
    return tau


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

    Atomic laws are scored by nearest-atom masses, normal laws by the
    one-sample KS distance against their CDF.  Both also report the
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
        if law.positions.size:
            nearest = np.argmin(np.abs(vals[:, None] - law.positions[None, :]), axis=1)
            masses = np.bincount(nearest, minlength=len(law.positions)) / vals.size
            entry["atom_masses"] = masses.tolist()
            entry["atom_mass_error"] = float(np.abs(masses - law.weights).max())
            entry["atom_displacement"] = float(np.abs(vals - law.positions[nearest]).max())
            entry["passed"] = bool(entry["atom_mass_error"] <= ATOM_MASS_THRESHOLD and pot_ok)
        else:
            cdf_sorted = np.asarray(family.cdf(s_j, np.sort(vals)), dtype=float)
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
          "passed": bool(abs(mean_abs - target) <= 3.0 * se + ensemble.allowance)}
    return EmbeddingResult(marginals=out, ui_proxy=ui)


class MonotonePiecewisePoly:
    """Non-decreasing, non-negative polynomial weight f(t) = c0 + c1 t + ...
    on [0, inf), built by `poly(c0, c1, ...)`; its sign and monotonicity
    are checked on 2001 points of [0, 100]."""

    def __init__(self, coefficients):
        self.coeffs = np.asarray(coefficients, dtype=float)
        ft = self(np.linspace(0.0, 100.0, 2001))
        if np.any(ft < -1e-12) or np.any(np.diff(ft) < -1e-12):
            raise ValidationError("functional weight must be non-decreasing and non-negative")

    @classmethod
    def poly(cls, *coeffs):
        return cls(coeffs)

    def __call__(self, t):
        return polyval(np.atleast_1d(np.asarray(t, dtype=float)), self.coeffs)

    def antiderivative(self, t):
        """Exact integral of f from 0 to t."""
        return polyval(np.atleast_1d(np.asarray(t, dtype=float)), polyint(self.coeffs))


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


def alternative_embedding(M: int, seed: int, h_sim: float,
                          horizon: float = 25.0) -> PathEnsemble:
    """Randomized non-barrier embedding of N(0,1) from a point start.

    Each path draws an independent level |G|, G standard normal, and stops at
    sigma = inf{t : |B_t| >= |G|}.  The stopped law is N(0,1) by symmetry and
    E sigma = 1, but the time profile is far from optimal for increasing
    weights.

    The stop is sampled exactly, without time steps.  By Brownian scaling
    sigma = G^2 tau_1, with tau_1 the exit time of [-1, 1] from 0, drawn
    exactly (`_exit_time`).  The exit side is a fair sign independent of |G|
    and of tau_1, so sign(G) serves for it and B_sigma = G.  All draws are
    made in one pass: each block draws its normals, then its exit times,
    from its own stream (`_Streams`).  Paths with sigma > horizon are
    censored.  h_sim only sets the ensemble's verification allowance
    (`PathEnsemble.allowance`).  Requires M >= 2, as `simulate_root` does.
    """
    if M < 2:
        raise ValidationError(f"M={M} paths; a standard error needs at least 2")
    # allocated before the draws: allocated after them, they raised the
    # peak RSS of 10^4 paths by 0.5 MB
    sigma = np.full((2, M), np.inf)
    b_sigma = np.full((2, M), np.nan)
    streams = _Streams(seed, -(-M // BLOCK_SIZE))
    every = np.arange(M)
    level = streams.draw(every, _normals)
    stop = level * level * streams.draw(every, _exit_time)
    inside = stop <= horizon
    sigma[1, inside], b_sigma[1, inside] = stop[inside], level[inside]
    ens = PathEnsemble(h_sim=h_sim, horizon=horizon, s_values=np.array([1.0]),
                       x0=np.zeros(M), sigma=sigma, b_sigma=b_sigma, snapshots={})
    ens.check_censoring("alternative embedding")
    return ens

