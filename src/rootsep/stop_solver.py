"""Layered optimal-stopping solver on an explicit monotone grid.

Each marginal layer j solves a Bermudan-style obstacle iteration forward in
path time t:

    v_j(t, x) = max( v_{j-1}(t, x) + dU_j(x),  (v_j(t-dt, x-dx) + v_j(t-dt, x+dx)) / 2 )

with v_j(0, .) = v_0 = U(0, .), obstacle increment dU_j = U(s_j, .) - U(s_{j-1}, .),
and Dirichlet value U(s_j, +-L) on the space boundary.  With dt = dx^2 the
continuation branch is the symmetric random-walk average, so the scheme is
monotone and consistent; the stop branch realizes the sup over stopping with
the early-collection bonus active strictly before the budget runs out.

Layer j at row m reads only (j, m-1) and (j-1, m), so `solve_layers`
sweeps the anti-diagonals d = j + m and advances every active layer of a
diagonal in one array step, with the same float operations per node as a
row-by-row march.  Every CHUNK_ROWS diagonals, one row-block kernel
(`ScanKernel.fold`) folds each layer's new rows, with its preceding row and
the same rows of layer j-1, into that layer's running records, derived from
the stored values alone:
  * the stop set, which equals the scheme's own stop choice,
  * the first stopped time index per space column (the raw barrier),
  * later un-stopped nodes above that first hit (monotonicity flags),
  * complementarity residuals with a centred-in-x, backward-in-t stencil,
    which is deliberately *not* the scheme's own update stencil so the
    report measures genuine discretization error instead of zeros.
`complementarity_check` reports these records; nothing recomputes them.
A solve holds O(n * CHUNK_ROWS * nx) values besides its kept rows.

Row m of layer j is the same float function of row m-1 and of row m of
layer j-1, with fixed Dirichlet edges.  So once two consecutive rows of a
layer are equal bit for bit while the layer below is constant from then on
(layer 0 is U0 throughout), every later row repeats them, and so do their
diagnostics: first hits, extrema and `pde_loc` (first occurrence) stay,
counts grow by the same amount per row on each side of m_min.  At each
block end such a layer is frozen: the sweep drops it, its kept rows are
filled once and its remaining rows folded once.  Frozen layers form a
prefix 1..f, so the active layers stay contiguous, and every value and
record is bit-identical to the full sweep.

Ties between stopping and continuing are marked as stopped: barriers are
closed sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvexOrderError, GridBudgetError, ValidationError
from .grid import Partition, SpaceTimeGrid, lattice_index
from .marginals import MarginalFamily, convex_order_validate
from .tolerances import INTERIOR_T_FRACTION, KINK_GUARD, SCHEME_C

SENTINEL = np.iinfo(np.int32).max

# time rows per ScanKernel.fold block, and diagonals per block of the sweep's
# rolling buffer; bounds both to O(rows * nx) per layer
CHUNK_ROWS = 64

SOLVE_BUDGET = 150_000_000     # values a solve may hold (1.2 GB of doubles)


def scheme_tolerance(grid: SpaceTimeGrid) -> float:
    """Frozen complementarity tolerance c (dx + dt)."""
    return SCHEME_C * (grid.dx + grid.dt)


def check_solve_budget(n: int, kept_rows: int, nx: int) -> None:
    """Raise GridBudgetError when a solve of n layers on nx + 1 x-nodes would
    hold more than SOLVE_BUDGET values: kept_rows kept rows and a rolling
    buffer of CHUNK_ROWS + 1 rows, for each of the layers 0..n."""
    held = (n + 1) * (kept_rows + CHUNK_ROWS + 1) * (nx + 1)
    if held > SOLVE_BUDGET:
        raise GridBudgetError(
            f"a solve of {n} layers on {nx + 1} x-nodes keeping {kept_rows} rows would "
            f"hold {held} values, budget {SOLVE_BUDGET}; use fewer layers or nodes, "
            f"or pass keep_times with fewer rows")


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

    @property
    def n(self) -> int:
        return self.partition.n

    def x_nodes(self) -> np.ndarray:
        return self.grid.x_nodes()

    def value_at(self, j: int, t: float, x: float) -> float:
        g = self.grid
        row = lattice_index(t, g.dt, 0.0, g.nt, "t", "dt")
        idx = int(np.searchsorted(self.kept_index, row))
        if idx == self.kept_index.size or self.kept_index[idx] != row:
            raise ValidationError(f"time {t} not among kept rows")
        i = lattice_index(x, g.dx, self.x_nodes()[0], g.nx, "x")
        return float(self.layers[j, idx, i])

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

    @property
    def passed(self) -> bool:
        return (self.max_min_residual <= self.tol
                and self.max_heat_unstopped <= self.tol
                and self.max_obstacle_violation <= self.tol)


def grid_atoms(family: MarginalFamily, s_values, grid: SpaceTimeGrid) -> np.ndarray:
    """Positions of the atoms of the laws at s_values, each an x-node of grid.

    An atom between nodes would be solved as a different law, so an atom
    off the x-nodes (`lattice_index`) raises ValidationError.
    """
    x0 = grid.x_nodes()[0]
    positions = [family.law(float(s)).positions for s in s_values]
    for s, p in zip(s_values, positions):
        lattice_index(p, grid.dx, x0, grid.nx, f"atom of the marginal at s={s:g} at x")
    return np.concatenate([[], *positions])


def solve_layers(family: MarginalFamily, partition: Partition, grid: SpaceTimeGrid,
                 keep_times=None) -> ValueSurface:
    """March the layered obstacle scheme across all marginal layers.

    keep_times: time values whose rows are retained in the result; None
    keeps every row, for library callers.  The records cover every row
    either way, and `complementarity_check` reports them.  A solve that
    would hold more than SOLVE_BUDGET values raises GridBudgetError before
    it allocates or sweeps anything (`check_solve_budget`).

    Layer j at row m reads only (j, m-1) and (j-1, m), so the sweep runs
    over the anti-diagonals d = j + m and advances every active layer of a
    diagonal in one array step.  The rows of the last CHUNK_ROWS + 1
    diagonals of every layer live in a rolling buffer; after each block of
    CHUNK_ROWS diagonals, each layer's new rows are folded into its records
    (`ScanKernel.fold`) and its kept rows are copied out.  Then a layer
    whose last two rows are equal bit for bit, with every layer below it
    frozen, is frozen too: its remaining rows repeat its last row, so they
    are kept and folded once and the sweep skips them (see the module
    notes).  Memory is O(n * CHUNK_ROWS * nx) plus the kept rows.  The
    recorded statistics use the complementarity tolerance
    `scheme_tolerance(grid)`.

    The partition's potentials must fall in s at every x-node, the one
    convex-order check of a solve (`convex_order_validate`), and every
    atom of its marginal laws must sit on an x-node (`grid_atoms`).
    """
    xs = grid.x_nodes()
    nt, nx = grid.nt, grid.nx
    dt, dx = grid.dt, grid.dx
    lam = grid.lam

    svals = partition.points
    n = partition.n
    kept_index = (np.arange(nt + 1) if keep_times is None else
                  np.unique(lattice_index(keep_times, dt, 0.0, nt, "keep time", "dt")))
    check_solve_budget(n, kept_index.size, nx)
    order = convex_order_validate(family, svals, xs)
    if not order.passed:
        raise ConvexOrderError(
            f"convex order violated: drop {order.worst_violation:.3e} at {order.where}")
    pots = order.potentials
    du = pots[1:] - pots[:-1]

    tol = scheme_tolerance(grid)
    U0 = pots[0]
    # atom columns of the marginals are kink lines of the value surface
    # (absorbed point masses) with onset transients of node-scale width;
    # centred stencils are pointwise inconsistent there, so residual maxima
    # stay a fixed guard band away from every atom column
    resid_mask = np.ones(nx - 1, dtype=bool)
    guard = max(KINK_GUARD, 6 * dx)
    for p in grid_atoms(family, svals, grid):
        resid_mask[np.abs(xs[1:-1] - p) <= guard] = False
    layers = np.empty((n + 1, kept_index.size, nx + 1))
    layers[0] = U0
    layers[:, kept_index == 0] = U0         # row 0 is prescribed data
    kernel = ScanKernel(grid, resid_mask, tol)
    scans = [kernel.start(U0, du[j - 1], float(svals[j - 1]), float(svals[j]))
             for j in range(1, n + 1)]

    # buf[j, s] holds layer j's row d - j after diagonal d = D - 1 + s of the
    # block starting at diagonal D; slot 0 carries the previous block's last
    # diagonal.  Layer 0 and every row 0 are U0.
    C = CHUNK_ROWS
    buf = np.empty((n + 1, C + 1, nx + 1))
    buf[:] = U0
    edges = pots[:, ::nx]        # Dirichlet values at -L and +L, per layer
    damped = lam < 1.0 - 1e-12
    half_lam, keep_lam = 0.5 * lam, 1.0 - lam
    width = min(n, nt)
    work = np.empty((3, width, nx - 1))
    stop_work = np.empty((width, nx - 1), dtype=bool)
    views = {}      # once every layer is active, a block's views repeat in the next

    def step_views(lo, hi, s):
        k = hi - lo + 1
        prev = buf[lo:hi + 1, s - 1]
        return (prev[:, :-2], prev[:, 2:], prev[:, 1:-1], buf[lo - 1:hi, s - 1, 1:-1],
                du[lo - 1:hi, 1:-1], buf[lo:hi + 1, s, 1:-1], work[0, :k], work[1, :k],
                work[2, :k], stop_work[:k])

    # layers 1..frozen keep their last row for good (see the module notes)
    frozen = 0
    last = n + nt
    D = 2
    while nt and D <= last and frozen < n:      # without a time step, row 0 is all there is
        E = min(D + C, last + 1)
        settled = frozen        # layers frozen before this block
        for d in range(D, E):
            s = d - D + 1
            lo, hi = max(frozen + 1, d - nt), min(n, d - 1)
            v = views.get((lo, hi, s))
            if v is None:
                v = views[lo, hi, s] = step_views(lo, hi, s)
            left, right, mid, below, du_blk, dst, cont, obs, slack, stop = v
            np.add(left, right, out=cont)
            if damped:
                np.multiply(cont, half_lam, out=cont)
                np.multiply(mid, keep_lam, out=slack)
                np.add(cont, slack, out=cont)
            else:
                np.multiply(cont, 0.5, out=cont)
            np.add(below, du_blk, out=obs)
            # ties stop; the relative slack keeps float dust from unmarking
            # tail columns whose obstacle increment underflows
            np.abs(cont, out=slack)
            np.add(slack, 1.0, out=slack)
            np.multiply(slack, 1e-12, out=slack)
            np.subtract(cont, slack, out=slack)
            np.greater_equal(obs, slack, out=stop)
            np.copyto(dst, cont)
            np.copyto(dst, obs, where=stop)
            if hi == d - 1:
                # layer hi took its first step, so its row 0 is read; the slots
                # are reused, so every one carries the Dirichlet columns from now on
                buf[hi, :, ::nx] = edges[hi]
            if d <= n:
                buf[d, s] = U0      # row 0 of the layer that starts next
        for j in range(max(frozen + 1, D - nt), min(n, E - 2) + 1):
            a, b = max(1, D - j), min(nt, E - 1 - j) + 1
            sa = a - D + 1 + j      # slot of row a
            sb = sa + b - a
            kernel.fold(scans[j - 1], buf[j, sa - 1:sb], buf[j - 1, sa - 1:sb - 1], a)
            p, q = np.searchsorted(kept_index, (a, b))
            if q > p:
                layers[j, p:q] = buf[j, kept_index[p:q] - (a - sa)]
            if j == frozen + 1 and b <= nt and np.array_equal(
                    *buf[j, sb - 2:sb].view(np.int64)):
                # rows b - 1 and b - 2 are equal bit for bit and the layer below
                # is constant, so rows b .. nt repeat row b - 1 (in slot E - D),
                # and so do their records: fold them once, on each side of m_min
                frozen = j
                layers[j, q:] = buf[j, sb - 1]
                for m0, m1 in ((b, min(kernel.m_min, nt + 1)), (max(b, kernel.m_min), nt + 1)):
                    if m1 > m0:
                        kernel.fold(scans[j - 1], buf[j, sb - 2:sb], buf[j - 1, sb - 1:sb], m0,
                                    repeat=m1 - m0)
        # the next layer reads a frozen layer's row from every slot
        buf[settled + 1:frozen + 1] = buf[settled + 1:frozen + 1, E - D, None]
        buf[:, 0] = buf[:, E - D]
        D = E

    stop_first = np.stack([sc.first for sc in scans])
    flagged = np.array([sc.flagged for sc in scans], dtype=np.int64)
    region = np.where(stop_first == SENTINEL, 0, nt + 1 - stop_first).sum(axis=1)
    return ValueSurface(partition=partition, grid=grid, family_desc=family.descriptor(),
                        t_kept=grid.t_nodes()[kept_index], kept_index=kept_index,
                        layers=layers, du=du, stop_first=stop_first, flagged=flagged,
                        region_nodes=region, layer_stats=[sc.stats for sc in scans],
                        tol=tol)


@dataclass
class LayerScan:
    """Running records of one layer j, folded in by `ScanKernel.fold`.

    first: the first stopped time index per column (SENTINEL: never);
    flagged: the count of un-stopped nodes above the first hit; stats: the
    layer's LayerStats.
    """

    first: np.ndarray
    du_int: np.ndarray          # interior obstacle increment dU_j
    stats: LayerStats
    flagged: int = 0


class ScanKernel:
    """The diagnostics kernel: stop set, first hits, monotonicity flags and
    residual statistics, folded from blocks of consecutive time rows.

    An interior node at time index m >= 1 is stopped when its obstacle gap
    u - (u_prev + dU_j) is at most 0.  This is the scheme's own choice, bit
    for bit: a stopped node stores the obstacle exactly and a continuing
    node a value strictly above it.  Each layer's blocks must arrive in
    increasing row order with no gap.  Every record is a first hit, a count,
    a max or a min, and `pde_loc` keeps the first occurrence of the maximum
    in (t, x) order, so the records do not depend on where the blocks are
    cut.  One kernel serves a whole solve: its work arrays hold one block
    of at most CHUNK_ROWS rows and are reused for every block, since fresh
    temporaries per block more than doubled the kernel's time on wide grids
    (nx ~ 1100).
    """

    def __init__(self, grid: SpaceTimeGrid, resid_mask: np.ndarray, tol: float):
        self.grid, self.tol = grid, tol
        self.xs = grid.x_nodes()
        self.m_min = max(1, int(math.ceil(INTERIOR_T_FRACTION * grid.nt)))
        self.resid_nodes = int(resid_mask.sum())
        self.guard_cols = None if resid_mask.all() else ~resid_mask
        shape = (CHUNK_ROWS, grid.nx - 1)
        self.gap, self.heat, self.both, self.work = np.empty((4,) + shape)
        self.stop, self.mark = np.empty((2,) + shape, dtype=bool)

    def start(self, u0: np.ndarray, duj: np.ndarray, s_prev: float, s_val: float) -> LayerScan:
        """Records of a layer before any row m >= 1, from its t = 0 row u0."""
        # t = 0 row: prescribed data; a node is in the stopping region only
        # where the obstacle increment already vanishes (relative float scale,
        # so potentials coinciding on half-lines register exactly)
        first = np.full(u0.size, SENTINEL, dtype=np.int32)
        first[np.abs(duj) <= 1e-12 * (1.0 + np.abs(u0))] = 0
        # boundary columns carry Dirichlet data from the first step on
        first[[0, -1]] = np.minimum(first[[0, -1]], 1)
        return LayerScan(first=first, du_int=duj[1:-1],
                         stats=LayerStats(s_prev=s_prev, s_val=s_val))

    def fold(self, rec: LayerScan, u: np.ndarray, u_prev: np.ndarray, a: int,
             repeat: int = 1) -> None:
        """Fold rows a .. b-1 into rec: u holds rows a-1 .. b-1 of layer j
        (the preceding row feeds the backward time difference) and u_prev
        rows a .. b-1 of layer j-1, each with all nx+1 columns.

        With repeat > 1, u holds one row twice and u_prev one row, and they
        stand for rows a .. a + repeat - 1, all on one side of m_min, each
        equal to the one before it in both layers; the first hits, minima,
        maxima and `pde_loc` are then those of row a, and the counts repeat
        times its counts."""
        k = u_prev.shape[0]
        b = a + k
        st = rec.stats
        inner = rec.first[1:-1]
        rows = u[1:, 1:-1]
        gap = np.add(u_prev[:, 1:-1], rec.du_int, out=self.gap[:k])
        np.subtract(rows, gap, out=gap)
        stop = np.less_equal(gap, 0.0, out=self.stop[:k])
        hit = stop.any(axis=0)
        np.minimum(inner, np.where(hit, a + stop.argmax(axis=0), SENTINEL), out=inner)
        # monotonicity flags: un-stopped above the first hit, ignoring
        # sub-resolution hover where the gap sits at float scale
        above = np.greater(np.arange(a, b)[:, None], inner, out=self.mark[:k])
        np.greater(above, stop, out=above)      # and not stopped
        if above.any():
            rec.flagged += repeat * int(np.count_nonzero(
                gap[above] > 1e-9 * (1.0 + np.abs(rows[above]))))
        st.min_gap = min(st.min_gap, float(gap.min()))

        c = max(a, self.m_min)
        if c >= b:
            return
        dt, dx = self.grid.dt, self.grid.dx
        r = c - a
        row, g, stop = u[r + 1:], gap[r:], stop[r:]
        heat, both, work = self.heat[:b - c], self.both[:b - c], self.work[:b - c]
        # backward in t, centred in x
        np.subtract(row[:, 1:-1], u[r:-1, 1:-1], out=heat)
        np.divide(heat, dt, out=heat)
        np.multiply(row[:, 1:-1], 2.0, out=work)
        np.subtract(row[:, 2:], work, out=work)
        np.add(work, row[:, :-2], out=work)
        np.divide(work, 2.0 * dx * dx, out=work)
        np.subtract(heat, work, out=heat)
        # every record below is a max or a count over values >= 0 (tol > 0),
        # so zeros in the guard columns leave them as over the residual columns
        if self.guard_cols is not None:
            heat[:, self.guard_cols] = 0.0
            g[:, self.guard_cols] = 0.0
        np.abs(heat, out=work)
        np.copyto(work, 0.0, where=stop)
        st.max_heat_unstopped = max(st.max_heat_unstopped, float(work.max(initial=0.0)))
        np.minimum(heat, g, out=both)
        np.abs(both, out=work)
        st.max_min_residual = max(st.max_min_residual, float(work.max(initial=0.0)))
        st.both_exceed += repeat * int(np.count_nonzero(
            np.greater(both, self.tol, out=self.mark[:b - c])))
        st.interior_nodes += repeat * (b - c) * self.resid_nodes
        pde = np.divide(g, st.s_val - st.s_prev, out=work)
        np.minimum(heat, pde, out=pde)
        np.abs(pde, out=pde)
        i = int(pde.argmax())
        # strict > keeps the first occurrence in (t, x) order
        if pde.flat[i] > st.pde_max:
            m, col = divmod(i, pde.shape[1])
            st.pde_max = float(pde.flat[i])
            # the node's (t, x) as t_nodes and x_nodes build them
            st.pde_loc = ((c + m) * dt, float(self.xs[col + 1]))


def complementarity_check(surface: ValueSurface) -> ComplementarityReport:
    """Discrete complementarity diagnostics at the solve's tolerance.

    The report is always the solve's: it aggregates the records
    `solve_layers` folded over every row (`layer_stats`), whether the
    surface keeps every row (keep_times=None) or a few, and reads no stored
    value.  Layer 0 carries prescribed data and is excluded.
    """
    per_layer = surface.layer_stats
    max_heat = max((st.max_heat_unstopped for st in per_layer), default=0.0)
    max_viol = max((max(0.0, -st.min_gap) for st in per_layer), default=0.0)
    max_minres = max((st.max_min_residual for st in per_layer), default=0.0)
    total = sum(st.interior_nodes for st in per_layer)
    both = sum(st.both_exceed for st in per_layer)
    return ComplementarityReport(max_heat_unstopped=max_heat,
                                 max_obstacle_violation=max_viol,
                                 frac_both_exceed=both / total if total else 0.0,
                                 max_min_residual=max_minres, tol=surface.tol)
