"""Layered optimal-stopping solver on an explicit monotone grid.

Each marginal layer j solves a Bermudan-style obstacle iteration forward in
path time t:

    v_j(t, x) = max( v_{j-1}(t, x) + dU_j(x),  (v_j(t-dt, x-dx) + v_j(t-dt, x+dx)) / 2 )

with v_j(0, .) = v_0 = U(0, .), obstacle increment dU_j = U(s_j, .) - U(s_{j-1}, .),
and Dirichlet value U(s_j, +-L) on the space boundary.  With dt = dx^2 the
continuation branch is the symmetric random-walk average, so the scheme is
monotone and consistent; the stop branch realizes the sup over stopping with
the early-collection bonus active strictly before the budget runs out.

After each layer, `scan_layer` reads the two finished full panels (layer
j and layer j-1) in fixed row chunks and derives, from the stored values
alone:
  * the stop set, which equals the scheme's own stop choice,
  * the first stopped time index per space column (the raw barrier),
  * later un-stopped nodes above that first hit (monotonicity flags),
  * complementarity residuals with a centred-in-x, backward-in-t stencil,
    which is deliberately *not* the scheme's own update stencil so the
    report measures genuine discretization error instead of zeros.
The same kernel rescans a stored full-row surface for the complementarity
check and thresholds stored gaps for barrier extraction.

Ties between stopping and continuing are marked as stopped: barriers are
closed sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GridBudgetError, ValidationError
from .grid import Partition, SpaceTimeGrid
from .marginals import MarginalFamily, convex_order_error, convex_order_validate, make_stream
from .tolerances import INTERIOR_T_FRACTION, KINK_GUARD, SCHEME_C

SENTINEL = np.iinfo(np.int32).max

# time rows per block in scan_layer; bounds its temporaries to O(rows * nx)
CHUNK_ROWS = 64


def scheme_tolerance(grid: SpaceTimeGrid) -> float:
    """Frozen complementarity tolerance c (dx + dt)."""
    return SCHEME_C * (grid.dx + grid.dt)


@dataclass
class LayerStats:
    s_prev: float
    s_val: float
    max_heat_unstopped: float = 0.0
    min_gap: float = 0.0
    max_min_residual: float = 0.0
    both_exceed: int = 0
    interior_nodes: int = 0
    pde_max: float = 0.0
    pde_loc: tuple = (0.0, 0.0)


@dataclass
class ValueSurface:
    """Solved layer values on kept time rows plus the solve's scan records."""

    partition: Partition
    grid: SpaceTimeGrid
    family_desc: dict
    t_kept: np.ndarray                 # kept time values, ascending
    kept_index: np.ndarray             # their indices on the full time axis
    layers: np.ndarray                 # (n+1, len(t_kept), nx+1)
    du: np.ndarray                     # (n, nx+1) obstacle increments
    stop_first: np.ndarray             # (n, nx+1) first stopped time index (SENTINEL: never)
    flagged: np.ndarray                # (n,) un-stopped nodes above the first hit
    region_nodes: np.ndarray           # (n,) node count at/after the first hit
    layer_stats: list
    tol: float
    full_rows: bool                    # True when every time row is kept
    resid_mask: np.ndarray             # interior columns used for residual maxima

    @property
    def n(self) -> int:
        return self.partition.n

    def x_nodes(self) -> np.ndarray:
        return self.grid.x_nodes()

    def _t_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.t_kept - t)))
        if abs(self.t_kept[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValidationError(f"time {t} not among kept rows")
        return idx

    def value_at(self, j: int, t: float, x: float) -> float:
        xs = self.x_nodes()
        i = int(round((x + self.grid.L) / self.grid.dx))
        if not (0 <= i < xs.size) or abs(xs[i] - x) > 1e-9:
            raise ValidationError(f"x={x} is not a grid node")
        return float(self.layers[j, self._t_index(t), i])

    def obstacle_gap(self) -> np.ndarray:
        """Per-node (layer increment - obstacle increment) on kept rows."""
        return self.layers[1:] - self.layers[:-1] - self.du[:, None, :]


@dataclass
class ComplementarityReport:
    max_heat_unstopped: float
    max_obstacle_violation: float
    frac_both_exceed: float
    max_min_residual: float
    tol: float
    per_layer: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.max_min_residual <= self.tol
                and self.max_heat_unstopped <= self.tol
                and self.max_obstacle_violation <= self.tol)


def solve_layers(family: MarginalFamily, partition: Partition, grid: SpaceTimeGrid,
                 keep_times=None, tol: Optional[float] = None) -> ValueSurface:
    """March the layered obstacle scheme across all marginal layers.

    keep_times: time values whose rows are retained in the result (None keeps
    every row).  The previous layer is always held at full resolution while
    the next one is computed, so memory stays at two full (t, x) panels plus
    the row-chunk temporaries of `scan_layer`, which reads both panels once a
    layer is done.  tol: complementarity tolerance of the recorded
    statistics (default `scheme_tolerance(grid)`).

    Every atom of the partition's marginal laws must sit on an x-node;
    an atom more than 1e-9 off the grid raises ValidationError.
    """
    report = convex_order_validate(family, s_probes=partition.points)
    if not report.passed:
        raise convex_order_error(report)

    xs = grid.x_nodes()
    nt, nx = grid.nt, grid.nx
    dt, dx = grid.dt, grid.dx
    lam = grid.lam

    svals = partition.points
    n = partition.n
    pots = np.stack([family.potential(float(s), xs) for s in svals])
    du = pots[1:] - pots[:-1]
    worst = float(du.max(initial=-np.inf))
    if worst > 1e-9:
        from .errors import ConvexOrderError
        k = np.unravel_index(int(du.argmax()), du.shape)
        raise ConvexOrderError(
            f"obstacle increment positive ({worst:.3e}) at layer {k[0] + 1}, x={xs[k[1]]:.4g}")

    if keep_times is None:
        if (n + 1) * (nt + 1) * (nx + 1) > 150_000_000:
            raise GridBudgetError(
                "full-surface storage would exceed the memory budget; pass keep_times")
        kept_index = np.arange(nt + 1)
    else:
        kept_index = np.unique(np.round(np.asarray(keep_times, dtype=float) / dt).astype(int))
        if np.any(kept_index < 0) or np.any(kept_index > nt):
            raise ValidationError("keep_times outside the grid horizon")
        if not np.allclose(kept_index * dt, np.unique(np.asarray(keep_times, dtype=float)),
                           atol=1e-9):
            raise ValidationError("keep_times must be grid times")

    tol = scheme_tolerance(grid) if tol is None else tol
    U0 = pots[0]
    # atom columns of the marginals are kink lines of the value surface
    # (absorbed point masses) with onset transients of node-scale width;
    # centred stencils are pointwise inconsistent there, so residual maxima
    # stay a fixed guard band away from every atom column.  An atom between
    # nodes would be solved as a different law, so it is rejected.
    resid_mask = np.ones(nx - 1, dtype=bool)
    guard = max(KINK_GUARD, 6 * dx)
    for s in svals:
        for p in family.law(float(s)).positions:
            off = float(np.abs(xs - p).min())
            if off > 1e-9:
                raise ValidationError(
                    f"atom at x={p:.12g} of the marginal at s={s:g} is {off:.3g} off "
                    f"the grid (dx={dx:g}); atoms must sit on x-nodes")
            resid_mask[np.abs(xs[1:-1] - p) <= guard] = False
    layers = np.empty((n + 1, kept_index.size, nx + 1))
    layers[0] = U0[None, :]

    prev = np.empty((nt + 1, nx + 1))
    prev[:] = U0[None, :]
    cur = np.empty_like(prev)

    scans = []
    for j in range(1, n + 1):
        duj = du[j - 1]
        du_int = duj[1:-1]
        cur[0] = U0
        cur[1:, 0] = pots[j][0]
        cur[1:, -1] = pots[j][-1]
        v = cur[0]
        for m in range(1, nt + 1):
            if lam >= 1.0 - 1e-12:
                cont = 0.5 * (v[:-2] + v[2:])
            else:
                cont = 0.5 * lam * (v[:-2] + v[2:]) + (1.0 - lam) * v[1:-1]
            obs_int = prev[m, 1:-1] + du_int
            # ties stop; the relative slack keeps float dust from unmarking
            # tail columns whose obstacle increment underflows
            stop_dec = obs_int >= cont - 1e-12 * (1.0 + np.abs(cont))
            row = cur[m]
            row[1:-1] = np.where(stop_dec, obs_int, cont)
            v = row
        layers[j] = cur[kept_index]
        scans.append(scan_layer(cur, prev, duj, grid, resid_mask, tol,
                                float(svals[j - 1]), float(svals[j])))
        prev, cur = cur, prev

    stop_first, flagged, region, stats = _stack_scans(scans, nt)
    return ValueSurface(partition=partition, grid=grid, family_desc=family.descriptor(),
                        t_kept=grid.t_nodes()[kept_index], kept_index=kept_index,
                        layers=layers, du=du, stop_first=stop_first, flagged=flagged,
                        region_nodes=region, layer_stats=stats, tol=tol,
                        full_rows=kept_index.size == nt + 1, resid_mask=resid_mask)


def scan_layer(u: np.ndarray, u_prev: np.ndarray, duj: np.ndarray, grid: SpaceTimeGrid,
               resid_mask: np.ndarray, tol: float, s_prev: float, s_val: float,
               eps: float = 0.0):
    """Stop set, first hits, monotonicity flags and residual statistics of
    one layer, from the full (nt+1, nx+1) panels u (layer j) and u_prev
    (layer j-1).

    An interior node at time index m >= 1 is stopped when its obstacle gap
    u - (u_prev + dU_j) is at most eps.  With eps = 0 this is the scheme's
    own choice, bit for bit: a stopped node stores the obstacle exactly and
    a continuing node a value strictly above it.  The panels are read in
    blocks of CHUNK_ROWS rows, so temporaries stay O(CHUNK_ROWS * nx).

    Returns (first, flagged, stats): the first stopped time index per column
    (SENTINEL: never), the count of un-stopped nodes above the first hit, and
    the layer's LayerStats.
    """
    nt = grid.nt
    dt, dx = grid.dt, grid.dx
    ts, xs = grid.t_nodes(), grid.x_nodes()
    st = LayerStats(s_prev=s_prev, s_val=s_val)
    ds_j = s_val - s_prev
    # t = 0 row: prescribed data; a node is in the stopping region only
    # where the obstacle increment already vanishes (relative float scale,
    # so potentials coinciding on half-lines register exactly)
    first = np.full(u.shape[1], SENTINEL, dtype=np.int32)
    first[np.abs(duj) <= 1e-12 * (1.0 + np.abs(u[0]))] = 0
    # boundary columns carry Dirichlet data from the first step on
    first[[0, -1]] = np.minimum(first[[0, -1]], 1)
    inner = first[1:-1]
    m_min = max(1, int(math.ceil(INTERIOR_T_FRACTION * nt)))
    flagged = 0
    for a in range(1, nt + 1, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, nt + 1)
        rows = u[a:b, 1:-1]
        gap = rows - (u_prev[a:b, 1:-1] + duj[1:-1])
        stop = gap <= eps
        hit = stop.any(axis=0)
        np.minimum(inner, np.where(hit, a + stop.argmax(axis=0), SENTINEL), out=inner)
        # monotonicity flags: un-stopped above the first hit, ignoring
        # sub-resolution hover where the gap sits at float scale
        above = ~stop & (np.arange(a, b)[:, None] > inner)
        if above.any():
            flagged += int(np.count_nonzero(gap[above] > 1e-9 * (1.0 + np.abs(rows[above]))))
        st.min_gap = min(st.min_gap, float(gap.min()))

        c = max(a, m_min)
        if c >= b:
            continue
        row = u[c:b]
        heat = (row[:, 1:-1] - u[c - 1:b - 1, 1:-1]) / dt \
            - (row[:, 2:] - 2.0 * row[:, 1:-1] + row[:, :-2]) / (2.0 * dx * dx)
        g = gap[c - a:]
        st.max_heat_unstopped = max(st.max_heat_unstopped, float(np.abs(heat).max(
            where=~stop[c - a:] & resid_mask, initial=0.0)))
        both = np.minimum(heat, g)
        st.max_min_residual = max(st.max_min_residual,
                                  float(np.abs(both).max(where=resid_mask, initial=0.0)))
        st.both_exceed += int(np.count_nonzero((both > tol) & resid_mask))
        st.interior_nodes += (b - c) * int(resid_mask.sum())
        pde = np.abs(np.minimum(heat, g / ds_j))
        pde[:, ~resid_mask] = 0.0
        k = int(pde.argmax())
        # strict > keeps the first occurrence in (t, x) order
        if pde.flat[k] > st.pde_max:
            r, i = divmod(k, pde.shape[1])
            st.pde_max = float(pde.flat[k])
            st.pde_loc = (float(ts[c + r]), float(xs[i + 1]))
    return first, flagged, st


def _stack_scans(scans: list, nt: int):
    """Per-layer scan_layer results as (stop_first, flagged, region_nodes, stats)."""
    stop_first = np.stack([sc[0] for sc in scans])
    flagged = np.array([sc[1] for sc in scans], dtype=np.int64)
    region = np.where(stop_first == SENTINEL, 0, nt + 1 - stop_first).sum(axis=1)
    return stop_first, flagged, region, [sc[2] for sc in scans]


def rescan(surface: ValueSurface, eps: float = 0.0):
    """Run scan_layer over the stored layers of a full-row surface.

    Returns (stop_first, flagged, region_nodes, stats) as solve_layers
    records them; eps = 0 reproduces the solve's records from the stored
    values, so corrupted values show up in the statistics.
    """
    if not surface.full_rows:
        raise ValidationError("rescanning needs a surface with all rows kept")
    pts = surface.partition.points
    scans = [scan_layer(surface.layers[j], surface.layers[j - 1], surface.du[j - 1],
                        surface.grid, surface.resid_mask, surface.tol,
                        float(pts[j - 1]), float(pts[j]), eps)
             for j in range(1, surface.n + 1)]
    return _stack_scans(scans, surface.grid.nt)


def complementarity_check(surface: ValueSurface) -> ComplementarityReport:
    """Discrete complementarity diagnostics at the solve's tolerance.

    With every time row present the statistics are rescanned from the stored
    values (so injected corruption is caught); otherwise the statistics
    gathered during the solve are used.  Layer 0 carries prescribed data and
    is excluded.
    """
    per_layer = rescan(surface)[3] if surface.full_rows else surface.layer_stats
    max_heat = max((st.max_heat_unstopped for st in per_layer), default=0.0)
    max_viol = max((max(0.0, -st.min_gap) for st in per_layer), default=0.0)
    max_minres = max((st.max_min_residual for st in per_layer), default=0.0)
    total = sum(st.interior_nodes for st in per_layer)
    both = sum(st.both_exceed for st in per_layer)
    return ComplementarityReport(max_heat_unstopped=max_heat,
                                 max_obstacle_violation=max_viol,
                                 frac_both_exceed=both / total if total else 0.0,
                                 max_min_residual=max_minres,
                                 tol=surface.tol, per_layer=per_layer)


# ---------------------------------------------------------------------------
# exhaustive tree oracle

_RULE_COUNT_CAP_DEPTH = 5


def rule_count(depth: int) -> int:
    """Number of adapted stopping rules on a binary tree: S(d) = 1 + S(d-1)^2."""
    c = 1
    for _ in range(depth):
        c = 1 + c * c
    return c


def tree_oracle(family: MarginalFamily, partition: Partition, depth: int,
                dx: float, x0: float = 0.0):
    """Independent oracle: enumerate every adapted stopping rule on the
    non-recombining +-dx walk and take the best expected payoff.

    Returns the per-layer values at (s_j, t = depth * dt, x0), j = 0..n.
    Layer j treats the exhaustively-maximized layer j-1 values as payoff
    data, mirroring the layered problem definition rather than the solver's
    sweep, and every rule's value is materialized before the max.
    """
    if partition.n > 2:
        raise ValidationError("tree oracle supports at most two marginal layers")
    if depth > _RULE_COUNT_CAP_DEPTH:
        raise GridBudgetError(
            f"depth {depth} enumerates {rule_count(depth)} rules per node; cap is "
            f"{_RULE_COUNT_CAP_DEPTH} ({rule_count(_RULE_COUNT_CAP_DEPTH)} rules)")
    svals = partition.points
    n = partition.n

    def pot(s, x):
        return float(family.potential(float(s), np.array([x]))[0])

    du = {j: (lambda x, j=j: pot(svals[j], x) - pot(svals[j - 1], x)) for j in range(1, n + 1)}

    value_memo: dict = {}

    def value(j: int, m: int, x: float) -> float:
        key = (j, m, round((x - x0) / dx))
        if key in value_memo:
            return value_memo[key]
        if j == 0:
            out = pot(svals[0], x)
        else:
            out = float(np.max(rule_values(j, m, x)))
        value_memo[key] = out
        return out

    def rule_values(j: int, m: int, x: float) -> np.ndarray:
        stop = value(j - 1, m, x) + (du[j](x) if m > 0 else 0.0)
        if m == 0:
            return np.array([stop])
        left = rule_values(j, m - 1, x - dx)
        right = rule_values(j, m - 1, x + dx)
        cont = 0.5 * (left[:, None] + right[None, :]).ravel()
        return np.concatenate([[stop], cont])

    return [value(j, depth, x0) for j in range(n + 1)]


# ---------------------------------------------------------------------------
# Monte Carlo lower bounds

def rule_stop_now(k, elapsed, b):
    return np.ones_like(b, dtype=bool)


def rule_stop_at_horizon(k, elapsed, b):
    return np.zeros_like(b, dtype=bool)


def make_barrier_rule(barrier_family, j: int, budget: float):
    """Stop the k-th time once the remaining budget enters barrier j-k+1."""

    def rule(k, elapsed, b):
        r = barrier_family.lookup(j - k + 1, b)
        return (budget - elapsed) >= r

    return rule


def lower_bound_mc(surface: ValueSurface, family: MarginalFamily,
                   rule: Callable, samples: int, seed: int, *,
                   j: Optional[int] = None, t: Optional[float] = None,
                   x: float = 0.0):
    """Estimate the multiple-stopping payoff of an admissible rule.

    Any adapted rule is suboptimal, so the estimate must stay below the
    solved surface value up to Monte Carlo noise and monitoring bias.
    Returns (estimate, stderr, surface_value).
    """
    j = surface.n if j is None else j
    t = float(surface.grid.T) if t is None else float(t)
    h = surface.grid.dt
    steps = int(round(t / h))
    if abs(steps * h - t) > 1e-9:
        raise ValidationError("budget t must be a multiple of the grid time step")
    svals = surface.partition.points
    xs = surface.x_nodes()
    du_at = [None] + [lambda b, jj=jj: np.interp(b, xs, surface.du[jj - 1])
                      for jj in range(1, j + 1)]

    rng = make_stream(seed, 0)
    b = np.full(samples, float(x))
    k_cur = np.ones(samples, dtype=np.int64)
    stop_x = np.zeros((j + 1, samples))
    stop_bonus = np.zeros((j + 1, samples), dtype=bool)
    for m in range(steps):
        elapsed = m * h
        while True:
            active = k_cur <= j
            if not active.any():
                break
            decide = np.zeros(samples, dtype=bool)
            for kv in np.unique(k_cur[active]):
                mask = active & (k_cur == kv)
                decide[mask] = rule(int(kv), elapsed, b[mask])
            if not decide.any():
                break
            idx = np.nonzero(decide)[0]
            stop_x[k_cur[decide], idx] = b[decide]
            stop_bonus[k_cur[decide], idx] = True
            k_cur[decide] += 1
        alive = k_cur <= j
        if not alive.any():
            break
        b[alive] += math.sqrt(h) * rng.standard_normal(int(alive.sum()))
    # budget exhausted: remaining stops are forced at t, bonus indicator off
    while True:
        active = k_cur <= j
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        stop_x[k_cur[active], idx] = b[active]
        k_cur[active] += 1

    # payoff: terminal potential at the last stop plus collected increments
    payoff = family.potential(float(svals[0]), stop_x[j])
    for k in range(1, j + 1):
        inc = du_at[j - k + 1](stop_x[k])
        payoff = payoff + inc * stop_bonus[k]
    est = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    ref = surface.value_at(j, t, x)
    return est, stderr, ref
