import ast
import dataclasses
import math
import re

import numpy as np
import pytest

import rootsep as rs
from oracles import rule_count, tree_oracle
from rootsep.errors import ConvexOrderError, GridBudgetError, ValidationError
from rootsep.marginals import gaussian_potential, make_stream
from rootsep.stop_solver import (CHUNK_ROWS, SENTINEL, LayerStats, ScanKernel, grid_atoms,
                                 scheme_tolerance)
from rootsep.tolerances import INTERIOR_T_FRACTION, KINK_GUARD

SQRT_3_OVER_PI = math.sqrt(3.0 / math.pi)
SQRT_4_OVER_PI = math.sqrt(4.0 / math.pi)


@pytest.fixture(scope="module")
def gauss_n1_fine(gauss_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(gauss_family, 2.0, 0.02)
    return rs.solve_layers(gauss_family, part, grid,
                           keep_times=[0.0, 0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# values against closed forms

def test_gaussian_values(gauss_n1_fine):
    # exact: potential of N(0, 1 + min(t, 1)) since the barrier is vertical
    assert gauss_n1_fine.value_at(1, 0.5, 0.0) == pytest.approx(-SQRT_3_OVER_PI, abs=5e-3)
    assert gauss_n1_fine.value_at(1, 2.0, 0.0) == pytest.approx(-SQRT_4_OVER_PI, abs=5e-3)


def test_gaussian_surface_sup_error(gauss_n1_fine):
    xs = gauss_n1_fine.x_nodes()
    for ti, t in enumerate(gauss_n1_fine.t_kept):
        exact = gaussian_potential(1.0 + min(t, 1.0), xs)
        assert np.abs(gauss_n1_fine.layers[1][ti] - exact).max() <= 5e-3


def test_time_zero_rows_exact(gauss_surface_small, gauss_family):
    xs = gauss_surface_small.x_nodes()
    U0 = gauss_family.potential(0.0, xs)
    i0 = list(gauss_surface_small.t_kept).index(0.0)
    for j in range(gauss_surface_small.n + 1):
        assert np.array_equal(gauss_surface_small.layers[j][i0], U0)


def test_layer_zero_constant(gauss_surface_small, gauss_family):
    xs = gauss_surface_small.x_nodes()
    U0 = gauss_family.potential(0.0, xs)
    assert np.all(gauss_surface_small.layers[0] == U0[None, :])


def test_two_atom_long_time_limit(two_atom_surface, two_atom_family):
    xs = two_atom_surface.x_nodes()
    U1 = two_atom_family.potential(1.0, xs)
    idx = int(np.argmin(np.abs(two_atom_surface.t_kept - 6.0)))
    assert abs(two_atom_surface.t_kept[idx] - 6.0) < 1e-9
    assert np.abs(two_atom_surface.layers[1][idx] - U1).max() <= 0.01


# ---------------------------------------------------------------------------
# invariants

def test_obstacle_gap_nonnegative(gauss_surface_small):
    assert gauss_surface_small.obstacle_gap().min() >= -1e-12


def test_obstacle_sandwich(gauss_surface_small):
    u = gauss_surface_small.layers
    du = gauss_surface_small.du
    for j in range(1, gauss_surface_small.n + 1):
        assert np.all(u[j] >= u[j - 1] + du[j - 1][None, :] - 1e-9)
        assert np.all(u[j] <= u[j - 1] + 1e-9)


def test_s_monotone(gauss_surface_small, two_atom_surface):
    for surf in (gauss_surface_small, two_atom_surface):
        u = surf.layers
        assert np.all(u[1:] <= u[:-1] + 1e-9)


def test_t_monotone_and_x_lipschitz(gauss_surface_small):
    u = gauss_surface_small.layers
    dx = gauss_surface_small.grid.dx
    # values fall with t (martingale spreading); adjacent x slopes stay <= 1
    assert np.all(np.diff(u, axis=1) <= 1e-9)
    assert np.abs(np.diff(u, axis=2)).max() <= dx * (1.0 + 1e-6)


def test_t_holder_all_pairs(two_atom_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(two_atom_family, 1.0, 0.1)
    surf = rs.solve_layers(two_atom_family, part, grid)
    tol = scheme_tolerance(grid)
    u = surf.layers[1]
    t = surf.t_kept
    for a in range(0, len(t), 3):
        gaps = np.abs(u[a + 1:] - u[a][None, :]).max(axis=1)
        bound = np.sqrt(t[a + 1:] - t[a]) + tol
        assert np.all(gaps <= bound)


def test_linear_growth_bounds_two_atom(two_atom_surface, two_atom_family):
    xs = two_atom_surface.x_nodes()
    tol = 2.0 * two_atom_surface.tol
    U0 = two_atom_family.potential(0.0, xs)
    for ti in (0, len(two_atom_surface.t_kept) // 2, -1):
        t = float(two_atom_surface.t_kept[ti])
        floor = two_atom_family.initial_gaussian_floor(t, xs)
        u = two_atom_surface.layers[1][ti]
        assert np.all(u >= floor - tol)
        assert np.all(u <= U0 + tol)


def test_linear_growth_bounds(gauss_surface_small, gauss_family):
    # initial-law-convolved Gaussian floor <= every layer <= initial potential
    xs = gauss_surface_small.x_nodes()
    tol = 2.0 * gauss_surface_small.tol
    U0 = gauss_family.potential(0.0, xs)
    for ti, t in enumerate(gauss_surface_small.t_kept):
        floor = gauss_family.initial_gaussian_floor(float(t), xs)
        for j in range(gauss_surface_small.n + 1):
            u = gauss_surface_small.layers[j][ti]
            assert np.all(u >= floor - tol)
            assert np.all(u <= U0 + tol)


# ---------------------------------------------------------------------------
# validation gates

def test_convex_order_gate():
    class Reversed(rs.MarginalFamily):
        kind = "reversed"

        def law(self, s):
            return rs.Law(normal_var=2.0 - s)

    part = rs.make_partition(2, "uniform")
    grid = rs.SpaceTimeGrid(T=0.5, dt=0.01, L=9.0, dx=0.1)
    with pytest.raises(ConvexOrderError):
        rs.solve_layers(Reversed(), part, grid)


def test_convex_order_violation_reported_at_a_grid_node():
    # the potentials' worst rise is at mu_1's median 0.45, between the
    # x-nodes 0.4 and 0.5: the solve checks, and reports, the nodes it reads
    w = 0.45 / 1.45
    family = rs.AtomicTableFamily([(0.0, rs.Law([-3.0, 3.0], [0.5, 0.5])),
                                   (1.0, rs.Law([-1.0, 0.45], [w, 1.0 - w]))])
    grid = rs.SpaceTimeGrid(T=0.5, dt=0.01, L=4.0, dx=0.1)
    with pytest.raises(ConvexOrderError) as err:
        rs.solve_layers(family, rs.make_partition(1), grid)
    where = re.search(r" at (\(.*\))$", str(err.value)).group(1)
    s_lo, s_hi, x = ast.literal_eval(where)
    assert (s_lo, s_hi) == (0.0, 1.0)
    assert x in grid.x_nodes().tolist()


def test_solve_evaluates_the_potentials_once(gauss_family, monkeypatch):
    # the convex-order check's potentials are the ones the solve uses
    calls, real = [], rs.MarginalFamily.potentials

    def spy(self, s_values, x):
        calls.append(len(s_values))
        return real(self, s_values, x)

    monkeypatch.setattr(rs.MarginalFamily, "potentials", spy)
    rs.solve_layers(gauss_family, rs.make_partition(2), rs.make_grid(gauss_family, 0.5, 0.1),
                    keep_times=[0.5])
    assert calls == [3]


def test_keep_times_validation(gauss_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(gauss_family, 1.0, 0.1)
    with pytest.raises(ValidationError):
        rs.solve_layers(gauss_family, part, grid, keep_times=[0.005])  # not a grid time
    with pytest.raises(ValidationError):
        rs.solve_layers(gauss_family, part, grid, keep_times=[2.0])    # beyond horizon
    with pytest.raises(ValidationError):
        # 4e-6 off row 50: no relative slack snaps it onto the row
        rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, 0.500004])
    # two times within 1e-9 of one row keep that row once
    surf = rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, 0.5, 0.5 + 5e-10])
    assert surf.t_kept.size == 2
    assert surf.value_at(1, 0.5 + 5e-10, 0.0) == surf.value_at(1, 0.5, 0.0)
    # value_at reads kept rows by the same absolute rule, at any t
    surf = rs.solve_layers(gauss_family, part, rs.make_grid(gauss_family, 2.5, 0.1),
                           keep_times=[2.0])
    with pytest.raises(ValidationError):
        surf.value_at(1, 2.0 + 1.5e-9, 0.0)


def test_value_at_on_an_odd_grid(gauss_family):
    # nx = 21: the nodes run from -1.0 to 1.1, counted from node nx // 2 at 0
    grid = rs.SpaceTimeGrid(T=0.1, dt=0.01, L=1.05, dx=0.1)
    surf = rs.solve_layers(gauss_family, rs.make_partition(1, "uniform"), grid)
    xs = grid.x_nodes()
    for x in (0.5, -1.0, 1.1):
        node = int(np.argmin(np.abs(xs - x)))
        assert surf.value_at(1, 0.1, x) == surf.layers[1, -1, node], x
    with pytest.raises(ValidationError):
        surf.value_at(1, 0.1, 0.55)


# ---------------------------------------------------------------------------
# complementarity

def test_complementarity_gaussian(gauss_n1_fine):
    rep = rs.complementarity_check(gauss_n1_fine)
    assert rep.max_min_residual <= 5e-3
    assert rep.max_heat_unstopped <= rep.tol
    assert rep.max_obstacle_violation <= 1e-12
    assert rep.frac_both_exceed == 0.0
    assert rep.passed
    assert len(gauss_n1_fine.layer_stats) == gauss_n1_fine.n   # layer 0 excluded


def test_complementarity_detects_corruption(gauss_family):
    # the solve's records cannot see a value changed after it; the report of
    # the corrupted rows comes from the full-panel reference scan
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(gauss_family, 0.5, 0.1)
    surf = rs.solve_layers(gauss_family, part, grid)
    clean = rs.complementarity_check(surf)
    assert clean.passed
    mid_t = surf.layers.shape[1] // 2
    mid_x = surf.layers.shape[2] // 2
    layers = surf.layers.copy()
    layers[1][mid_t, mid_x] += 0.1
    mask, pts = residual_mask(gauss_family, part, grid), part.points
    stats = [reference_scan(layers[j], layers[j - 1], surf.du[j - 1], grid, mask, surf.tol,
                            float(pts[j - 1]), float(pts[j]))[2] for j in range(1, part.n + 1)]
    rep = rs.complementarity_check(dataclasses.replace(surf, layers=layers, layer_stats=stats))
    assert not rep.passed
    assert rep.max_min_residual > clean.max_min_residual + 0.05


# ---------------------------------------------------------------------------
# row-by-row reference: one layer at a time, one row at a time, then the
# layer's diagnostics from its two full (t, x) panels

def reference_scan(u, u_prev, duj, grid, resid_mask, tol, s_prev, s_val):
    """First hits, flags and LayerStats of one layer from its full panels."""
    nt = grid.nt
    dt, dx = grid.dt, grid.dx
    ts, xs = grid.t_nodes(), grid.x_nodes()
    st = LayerStats(s_prev=s_prev, s_val=s_val)
    first = np.full(u.shape[1], SENTINEL, dtype=np.int32)
    first[np.abs(duj) <= 1e-12 * (1.0 + np.abs(u[0]))] = 0
    first[[0, -1]] = np.minimum(first[[0, -1]], 1)
    inner = first[1:-1]
    m_min = max(1, int(math.ceil(INTERIOR_T_FRACTION * nt)))
    flagged = 0
    for a in range(1, nt + 1, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, nt + 1)
        rows = u[a:b, 1:-1]
        gap = rows - (u_prev[a:b, 1:-1] + duj[1:-1])
        stop = gap <= 0.0
        hit = stop.any(axis=0)
        np.minimum(inner, np.where(hit, a + stop.argmax(axis=0), SENTINEL), out=inner)
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
        pde = np.abs(np.minimum(heat, g / (s_val - s_prev)))
        pde[:, ~resid_mask] = 0.0
        k = int(pde.argmax())
        if pde.flat[k] > st.pde_max:
            r, i = divmod(k, pde.shape[1])
            st.pde_max = float(pde.flat[k])
            st.pde_loc = (float(ts[c + r]), float(xs[i + 1]))
    return first, flagged, st


def residual_mask(family, partition, grid):
    """Interior columns outside the guard band of every atom column."""
    xs = grid.x_nodes()
    mask = np.ones(grid.nx - 1, dtype=bool)
    for p in grid_atoms(family, partition.points, grid):
        mask[np.abs(xs[1:-1] - p) <= max(KINK_GUARD, 6 * grid.dx)] = False
    return mask


def row_reference(family, partition, grid, keep_times=None):
    """(layers, stop_first, flagged, region_nodes, layer_stats) of the
    layered scheme marched one layer and one row at a time."""
    xs = grid.x_nodes()
    nt, nx, lam = grid.nt, grid.nx, grid.lam
    svals = partition.points
    pots = np.stack([family.potential(float(s), xs) for s in svals])
    du = pots[1:] - pots[:-1]
    kept = np.arange(nt + 1) if keep_times is None else \
        np.unique(np.round(np.asarray(keep_times) / grid.dt).astype(int))
    resid_mask = residual_mask(family, partition, grid)
    tol = scheme_tolerance(grid)
    layers = np.empty((partition.n + 1, kept.size, nx + 1))
    layers[0] = pots[0]
    prev = np.empty((nt + 1, nx + 1))
    prev[:] = pots[0]
    cur = np.empty_like(prev)
    scans = []
    for j in range(1, partition.n + 1):
        du_int = du[j - 1][1:-1]
        cur[0] = pots[0]
        cur[1:, 0] = pots[j][0]
        cur[1:, -1] = pots[j][-1]
        v = cur[0]
        for m in range(1, nt + 1):
            if lam >= 1.0 - 1e-12:
                cont = 0.5 * (v[:-2] + v[2:])
            else:
                cont = 0.5 * lam * (v[:-2] + v[2:]) + (1.0 - lam) * v[1:-1]
            obs_int = prev[m, 1:-1] + du_int
            stop_dec = obs_int >= cont - 1e-12 * (1.0 + np.abs(cont))
            cur[m, 1:-1] = np.where(stop_dec, obs_int, cont)
            v = cur[m]
        layers[j] = cur[kept]
        scans.append(reference_scan(cur, prev, du[j - 1], grid, resid_mask, tol,
                                    float(svals[j - 1]), float(svals[j])))
        prev, cur = cur, prev
    stop_first = np.stack([sc[0] for sc in scans])
    flagged = np.array([sc[1] for sc in scans])
    region = np.where(stop_first == SENTINEL, 0, nt + 1 - stop_first).sum(axis=1)
    return layers, stop_first, flagged, region, [sc[2] for sc in scans]


SWEEP_CASES = {
    # n = 1 at the damped ratio 0.8, full rows (the embedding's solve)
    "two_atom": ("two_atom_family", 1, "uniform", 7.0, 0.1, None),
    # more layers than time rows: nt = 2
    "gauss_n16_nt2": ("gauss_family", 16, "uniform", 0.02, 0.1, None),
    # nt = 500, not a multiple of CHUNK_ROWS
    "gauss_n4_nt500": ("gauss_family", 4, "uniform", 1.25, 0.05, None),
    # more layers than CHUNK_ROWS: layers start across several row blocks
    "gauss_n80_nt5": ("gauss_family", 80, "uniform", 0.3125, 0.25, None),
    "three_point_kept": ("three_point_family", 4, "uniform", 1.0, 0.05,
                         [0.1, 0.5, 0.502, 1.0]),
    "geometric_n8": ("gauss_family", 8, "geometric", 1.0, 0.1, None),
    # an unchanged marginal: every layer settles in the first row block, and
    # the one fold of its remaining rows straddles m_min = 100 (nt = 2000)
    "constant_n3": ("constant_family", 3, "uniform", 4.0, 0.05, None),
    "constant_n3_kept": ("constant_family", 3, "uniform", 4.0, 0.05,
                         [0.05, 0.16, 0.25, 2.0, 4.0]),
    # the Gaussian config's T and dx at its finest ladder partition
    "gauss_n16_dx05": ("gauss_family", 16, "uniform", 1.25, 0.05, None),
    "geometric_n8_T2": ("gauss_family", 8, "geometric", 2.0, 0.1, None),
}


def assert_matches_row_reference(family, part, grid, keep):
    surf = rs.solve_layers(family, part, grid, keep_times=keep)
    layers, stop_first, flagged, region, stats = row_reference(family, part, grid, keep)
    assert np.array_equal(surf.layers, layers)
    assert np.array_equal(surf.stop_first, stop_first)
    assert np.array_equal(surf.flagged, flagged)
    assert np.array_equal(surf.region_nodes, region)
    assert surf.layer_stats == stats


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_row_reference(request, case):
    fam_name, n, style, T, dx, keep = SWEEP_CASES[case]
    family = request.getfixturevalue(fam_name)
    assert_matches_row_reference(family, rs.make_partition(n, style),
                                 rs.make_grid(family, T, dx), keep)


def spy_on_fold(monkeypatch):
    """The row count of every later ScanKernel.fold call, in call order."""
    fold, folded = ScanKernel.fold, []

    def spy(self, rec, u, u_prev, *args, **kwargs):
        folded.append(u_prev.shape[0])
        return fold(self, rec, u, u_prev, *args, **kwargs)

    monkeypatch.setattr(ScanKernel, "fold", spy)
    return folded


@pytest.mark.parametrize("case, settles", [("constant_n3", True), ("constant_n3_kept", True),
                                           ("gauss_n16_dx05", True), ("geometric_n8_T2", True),
                                           ("two_atom", False)])
def test_settled_layers_fold_their_rows_once(request, monkeypatch, case, settles):
    # a layer whose rows repeat over a constant layer below leaves the sweep,
    # and its remaining rows reach ScanKernel.fold once; the embedding's
    # two-atom solve never settles, so every row is folded
    fam_name, n, style, T, dx, keep = SWEEP_CASES[case]
    family = request.getfixturevalue(fam_name)
    grid = rs.make_grid(family, T, dx)
    folded = spy_on_fold(monkeypatch)
    rs.solve_layers(family, rs.make_partition(n, style), grid, keep_times=keep)
    if settles:
        assert sum(folded) < n * grid.nt
    else:
        assert sum(folded) == n * grid.nt


def test_grid_without_time_steps_keeps_row_zero(gauss_family):
    grid = rs.SpaceTimeGrid(T=0.004, dt=0.01, L=8.0, dx=0.1)
    assert grid.nt == 0
    assert_matches_row_reference(gauss_family, rs.make_partition(3, "uniform"), grid, None)


# ---------------------------------------------------------------------------
# exhaustive tree oracle

def test_rule_counts():
    assert [rule_count(d) for d in range(6)] == [1, 2, 5, 26, 677, 458330]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("depth", [0, 1, 3, 5])
def test_tree_oracle_matches_solver(gauss_family, n, depth):
    part = rs.make_partition(n, "uniform")
    dx = 0.5
    grid = rs.SpaceTimeGrid(T=max(depth, 1) * dx * dx, dt=dx * dx, L=8.0, dx=dx)
    surf = rs.solve_layers(gauss_family, part, grid)
    vals = tree_oracle(gauss_family, part, depth, dx)
    for j in range(n + 1):
        assert abs(vals[j] - surf.value_at(j, depth * dx * dx, 0.0)) <= 1e-12


def test_tree_oracle_two_atom_by_hand(two_atom_family):
    part = rs.make_partition(1, "uniform")
    vals = tree_oracle(two_atom_family, part, 1, 1.0)
    # stop now: U(0,0) + dU(0) = -1; continue: (U(0,1) + U(0,-1))/2 = -1
    assert vals[1] == -1.0
    assert tree_oracle(two_atom_family, part, 0, 1.0)[1] == 0.0  # forced stop, no bonus


def test_tree_oracle_depth_zero_is_initial(gauss_family):
    part = rs.make_partition(1, "uniform")
    vals = tree_oracle(gauss_family, part, 0, 0.3, x0=0.9)
    assert vals[1] == pytest.approx(gauss_family.potential(0.0, 0.9), abs=1e-15)


def test_tree_oracle_resource_limits(gauss_family):
    part = rs.make_partition(1, "uniform")
    with pytest.raises(GridBudgetError):
        tree_oracle(gauss_family, part, 6, 0.5)
    with pytest.raises(ValidationError):
        tree_oracle(gauss_family, rs.make_partition(3, "uniform"), 2, 0.5)


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


def lower_bound_mc(surface, family, rule, samples: int, seed: int, *, t: float,
                   x: float = 0.0):
    """Estimate the multiple-stopping payoff of an admissible rule for the
    top layer at budget t, starting from x.

    Any adapted rule is suboptimal, so the estimate must stay below the
    solved surface value up to Monte Carlo noise and monitoring bias.
    Returns (estimate, stderr, surface_value).
    """
    j = surface.n
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


def test_lower_bound_rules(gauss_surface_small, gauss_family):
    surf = gauss_surface_small
    t = 1.0
    h = surf.grid.dt

    est, se, ref = lower_bound_mc(surf, gauss_family, rule_stop_now, 2000, seed=5, t=t)
    assert se <= 1e-15    # deterministic payoff up to summation dust
    assert est <= ref + 1e-12
    assert est == pytest.approx(gauss_family.potential(1.0, 0.0), abs=1e-12)

    est, se, ref = lower_bound_mc(surf, gauss_family, rule_stop_at_horizon,
                                  20_000, seed=6, t=t)
    assert est <= ref + 3.0 * se

    barrier = rs.extract(surf)
    rule = make_barrier_rule(barrier, surf.n, t)
    est, se, ref = lower_bound_mc(surf, gauss_family, rule, 20_000, seed=7, t=t)
    assert est <= ref + 3.0 * se + 2.0 * math.sqrt(h)
    assert abs(est - ref) <= 3.0 * se + 2.0 * math.sqrt(h)


def test_kept_row_stats_use_the_solve_tolerance(gauss_family, monkeypatch):
    part = rs.make_partition(2, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.1)
    full_surf = rs.solve_layers(gauss_family, part, grid)
    kept_surf = rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, grid.T])
    folded = spy_on_fold(monkeypatch)
    full = rs.complementarity_check(full_surf)
    kept = rs.complementarity_check(kept_surf)
    # both reports read the solve's records; neither folds a row again
    assert folded == []
    assert full.tol == kept.tol == scheme_tolerance(grid)
    assert kept_surf.layer_stats == full_surf.layer_stats
    assert kept.frac_both_exceed == full.frac_both_exceed


def test_full_surface_budget_fails_before_the_sweep(monkeypatch):
    # 3 layers x 500,001 rows x 101 columns is above the 150,000,000-node
    # budget of keep_times=None
    family = rs.GaussianShiftFamily(1.0)
    grid = rs.SpaceTimeGrid(T=5000.0, dt=0.01, L=5.0, dx=0.1)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(ScanKernel, "__init__", no_sweep)
    with pytest.raises(GridBudgetError, match="pass keep_times"):
        rs.solve_layers(family, rs.make_partition(2), grid)
