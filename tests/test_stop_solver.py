import math

import numpy as np
import pytest

import rootsep as rs
from rootsep.errors import ConvexOrderError, GridBudgetError, ValidationError
from rootsep.marginals import gaussian_potential
from rootsep.stop_solver import rescan, rule_count, scheme_tolerance

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

        def potential(self, s, x):
            return gaussian_potential(2.0 - s, np.asarray(x, dtype=float))

        def support_radius(self, s):
            return 8.0

    part = rs.make_partition(2, "uniform")
    grid = rs.SpaceTimeGrid(T=0.5, dt=0.01, L=9.0, dx=0.1)
    with pytest.raises(ConvexOrderError):
        rs.solve_layers(Reversed(), part, grid)


def test_keep_times_validation(gauss_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(gauss_family, 1.0, 0.1)
    with pytest.raises(ValidationError):
        rs.solve_layers(gauss_family, part, grid, keep_times=[0.005])  # not a grid time
    with pytest.raises(ValidationError):
        rs.solve_layers(gauss_family, part, grid, keep_times=[2.0])    # beyond horizon


# ---------------------------------------------------------------------------
# complementarity

def test_complementarity_gaussian(gauss_n1_fine):
    rep = rs.complementarity_check(gauss_n1_fine)
    assert rep.max_min_residual <= 5e-3
    assert rep.max_heat_unstopped <= rep.tol
    assert rep.max_obstacle_violation <= 1e-12
    assert rep.frac_both_exceed == 0.0
    assert rep.passed
    assert len(rep.per_layer) == gauss_n1_fine.n   # layer 0 excluded


def test_complementarity_detects_corruption(gauss_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(gauss_family, 0.5, 0.1)
    surf = rs.solve_layers(gauss_family, part, grid)
    clean = rs.complementarity_check(surf)
    assert clean.passed
    mid_t = surf.layers.shape[1] // 2
    mid_x = surf.layers.shape[2] // 2
    surf.layers[1][mid_t, mid_x] += 0.1
    rep = rs.complementarity_check(surf)
    assert not rep.passed
    assert rep.max_min_residual > clean.max_min_residual + 0.05


@pytest.mark.parametrize("fixture", ["gauss_surface_small", "two_atom_surface"])
def test_complementarity_rescan_matches_solve_stats(request, fixture):
    surf = request.getfixturevalue(fixture)
    assert surf.full_rows
    assert rs.complementarity_check(surf).per_layer == surf.layer_stats


@pytest.mark.parametrize("fixture", ["gauss_surface_small", "two_atom_surface"])
def test_rescan_reproduces_stop_records(request, fixture):
    surf = request.getfixturevalue(fixture)
    stop_first, flagged, region_nodes, _ = rescan(surf)
    assert np.array_equal(stop_first, surf.stop_first)
    assert np.array_equal(flagged, surf.flagged)
    assert np.array_equal(region_nodes, surf.region_nodes)


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
    vals = rs.tree_oracle(gauss_family, part, depth, dx)
    for j in range(n + 1):
        assert abs(vals[j] - surf.value_at(j, depth * dx * dx, 0.0)) <= 1e-12


def test_tree_oracle_two_atom_by_hand(two_atom_family):
    part = rs.make_partition(1, "uniform")
    vals = rs.tree_oracle(two_atom_family, part, 1, 1.0)
    # stop now: U(0,0) + dU(0) = -1; continue: (U(0,1) + U(0,-1))/2 = -1
    assert vals[1] == -1.0
    assert rs.tree_oracle(two_atom_family, part, 0, 1.0)[1] == 0.0  # forced stop, no bonus


def test_tree_oracle_depth_zero_is_initial(gauss_family):
    part = rs.make_partition(1, "uniform")
    vals = rs.tree_oracle(gauss_family, part, 0, 0.3, x0=0.9)
    assert vals[1] == pytest.approx(rs.potential_eval(gauss_family, 0.0, 0.9), abs=1e-15)


def test_tree_oracle_resource_limits(gauss_family):
    part = rs.make_partition(1, "uniform")
    with pytest.raises(GridBudgetError):
        rs.tree_oracle(gauss_family, part, 6, 0.5)
    with pytest.raises(ValidationError):
        rs.tree_oracle(gauss_family, rs.make_partition(3, "uniform"), 2, 0.5)


# ---------------------------------------------------------------------------
# Monte Carlo lower bounds

def test_lower_bound_rules(gauss_surface_small, gauss_family):
    surf = gauss_surface_small
    t = 1.0
    h = surf.grid.dt

    est, se, ref = rs.lower_bound_mc(surf, gauss_family, rs.rule_stop_now,
                                     2000, seed=5, t=t)
    assert se <= 1e-15    # deterministic payoff up to summation dust
    assert est <= ref + 1e-12
    assert est == pytest.approx(rs.potential_eval(gauss_family, 1.0, 0.0), abs=1e-12)

    est, se, ref = rs.lower_bound_mc(surf, gauss_family, rs.rule_stop_at_horizon,
                                     20_000, seed=6, t=t)
    assert est <= ref + 3.0 * se

    barrier = rs.extract(surf)
    rule = rs.make_barrier_rule(barrier, surf.n, t)
    est, se, ref = rs.lower_bound_mc(surf, gauss_family, rule, 20_000, seed=7, t=t)
    assert est <= ref + 3.0 * se + 2.0 * math.sqrt(h)
    assert abs(est - ref) <= 3.0 * se + 2.0 * math.sqrt(h)


def test_kept_row_stats_use_the_solve_tolerance(gauss_family):
    part = rs.make_partition(2, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.1)
    full = rs.complementarity_check(rs.solve_layers(gauss_family, part, grid, tol=1e-4))
    kept = rs.complementarity_check(
        rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, grid.T], tol=1e-4))
    assert full.tol == kept.tol == 1e-4
    assert kept.frac_both_exceed == full.frac_both_exceed > 0.0
