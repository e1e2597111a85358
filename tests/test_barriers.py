import dataclasses

import numpy as np
import pytest

import rootsep as rs
from oracles import analytic_compare, ordering_check
from rootsep.barriers import BarrierFamily
from rootsep.errors import ExtractionUnstableError


@pytest.fixture(scope="module")
def gauss_barriers(gauss_surface_small):
    return rs.extract(gauss_surface_small)


# ---------------------------------------------------------------------------
# extraction structure

def test_no_monotonicity_flags_on_fixtures(gauss_surface_small, two_atom_surface):
    assert int(gauss_surface_small.flagged.sum()) == 0
    assert int(two_atom_surface.flagged.sum()) == 0


def test_barriers_carry_the_solve_grid(gauss_barriers, gauss_surface_small):
    assert gauss_barriers.grid is gauss_surface_small.grid
    assert np.array_equal(gauss_barriers.x_nodes, gauss_surface_small.x_nodes())
    assert [f.name for f in dataclasses.fields(BarrierFamily)] == ["s_values", "grid", "r"]


def test_gaussian_vertical_barriers(gauss_barriers, gauss_surface_small):
    part = gauss_surface_small.partition
    dt = gauss_surface_small.grid.dt
    xs = gauss_barriers.x_nodes
    win = np.abs(xs) <= 3.0
    for j in range(gauss_barriers.n):
        err = np.abs(gauss_barriers.r[j][win] - part.points[j + 1]).max()
        assert err <= 5 * dt


def test_two_atom_barrier_shape(two_atom_surface):
    b = rs.extract(two_atom_surface)
    xs = b.x_nodes
    outside = np.abs(xs) >= 1.0
    assert np.all(b.r[0][outside] == 0.0)
    assert np.all(np.isinf(b.r[0][~outside]))


def test_unchanged_marginal_full_region(constant_family):
    # equal consecutive marginals make the whole grid a stopping region
    part = rs.make_partition(2, "uniform")
    grid = rs.make_grid(constant_family, 1.0, 0.1)
    surf = rs.solve_layers(constant_family, part, grid)
    b = rs.extract(surf)
    assert np.all(b.r == 0.0)


def test_extraction_deterministic(gauss_surface_small):
    a = rs.extract(gauss_surface_small)
    b = rs.extract(gauss_surface_small)
    assert np.array_equal(a.r, b.r)


def test_flag_fraction_gate(gauss_surface_small):
    # a layer may hold up to 1% of its region nodes flagged as non-monotone;
    # one more and extraction refuses the surface
    region = gauss_surface_small.region_nodes
    flagged = np.zeros_like(gauss_surface_small.flagged)
    flagged[1] = region[1] // 100
    rs.extract(dataclasses.replace(gauss_surface_small, flagged=flagged.copy()))
    flagged[1] += 1
    assert flagged[1] > 0.01 * region[1]
    with pytest.raises(ExtractionUnstableError, match="layer 2"):
        rs.extract(dataclasses.replace(gauss_surface_small, flagged=flagged))


# ---------------------------------------------------------------------------
# ordering

def test_gaussian_ordered(gauss_barriers):
    assert ordering_check(gauss_barriers).ordered


def test_three_point_zero_column_increasing(three_point_family):
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.05)
    surf = rs.solve_layers(three_point_family, part, grid, keep_times=[0.0, 3.0])
    b = rs.extract(surf)
    i0 = int(np.argmin(np.abs(b.x_nodes)))
    r0 = b.r[:, i0]
    assert np.all(np.isfinite(r0))
    assert np.all(np.diff(r0) > 0)
    assert ordering_check(b).ordered


def test_single_layer_vacuously_ordered(two_atom_surface):
    assert ordering_check(rs.extract(two_atom_surface)).ordered


# ---------------------------------------------------------------------------
# analytic comparison

def test_analytic_compare_gaussian(gauss_barriers, gauss_surface_small):
    part = gauss_surface_small.partition
    dt = gauss_surface_small.grid.dt

    def vertical(j, xs):
        return np.full_like(xs, part.points[j])

    dist = analytic_compare(gauss_barriers, vertical, x_window=(-3.0, 3.0))
    assert dist <= 5 * dt


def test_analytic_compare_two_atom(two_atom_surface):
    b = rs.extract(two_atom_surface)

    def exact(j, xs):
        return np.where(np.abs(xs) >= 1.0, 0.0, np.inf)

    assert analytic_compare(b, exact) == 0.0


def test_analytic_compare_identity(gauss_barriers):
    def same(j, xs):
        return gauss_barriers.r[j - 1]

    assert analytic_compare(gauss_barriers, same) == 0.0


# ---------------------------------------------------------------------------
# lookup semantics

def test_lookup_interpolation(gauss_barriers, gauss_surface_small):
    part = gauss_surface_small.partition
    got = gauss_barriers.lookup(2, np.array([0.512, -1.743, 0.0]))
    assert np.allclose(got, part.points[2], atol=5 * gauss_surface_small.grid.dt)


def test_lookup_inf_propagation(two_atom_surface):
    b = rs.extract(two_atom_surface)
    vals = b.lookup(1, np.array([0.0, 0.55, 0.951, 0.999]))
    assert np.all(vals > 1e6)           # effectively never within the horizon
    assert np.all(b.lookup(1, np.array([1.0, 1.013, 2.4])) == 0.0)


def test_lookup_isolated_column(three_point_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.05)
    surf = rs.solve_layers(three_point_family, part, grid, keep_times=[0.0, 3.0])
    b = rs.extract(surf)
    i0 = int(np.argmin(np.abs(b.x_nodes)))
    r0 = b.r[0, i0]
    assert np.isfinite(r0)
    # the isolated column is a level: its node reads its own time, and the
    # infinite cells beside it read effectively +inf right up to the node
    assert b.lookup(1, np.array([0.0]))[0] == r0
    for x in (1e-9 + 1e-12, 0.02, -0.024, 0.03):
        assert b.lookup(1, np.array([x]))[0] > 1e6


def test_lookup_reads_every_node_exactly():
    # finite nodes between +inf neighbours, on a grid where x / dx misses some
    # nodes by an ulp (x = -23.7 at dx = 0.1): every node reads its own time
    grid = rs.SpaceTimeGrid(T=1.0, dt=0.01, L=24.0, dx=0.1)
    xs = grid.x_nodes()
    r = np.where(np.arange(xs.size) % 2 == 0, 0.25, np.inf)[None, :]
    b = BarrierFamily(s_values=np.array([1.0]), grid=grid, r=r)
    assert np.array_equal(b.cell_position(xs[:-1]), np.arange(xs.size - 1))
    assert np.array_equal(b.lookup(1, xs[:-1:2]), r[0, :-1:2])


def test_queries_take_one_layer_per_point(gauss_barriers, three_point_family):
    b = gauss_barriers
    rng = np.random.default_rng(1)
    xs = rng.uniform(-3.0, 3.0, 500)
    j = rng.integers(1, b.n + 1, xs.size)
    lo = rng.integers(0, b.x_nodes.size, xs.size)
    hi = np.minimum(lo + rng.integers(0, 40, xs.size), b.x_nodes.size - 1)
    for layer in range(1, b.n + 1):
        at = j == layer
        assert np.array_equal(b.lookup(j, xs)[at], b.lookup(layer, xs[at]))
        assert np.array_equal(b.node_min(j, lo, hi)[at], b.node_min(layer, lo[at], hi[at]))
    # the first finite node scanned from each node, on the three-point
    # barrier, whose never-hit stretches lie between the column at 0 and +-1
    part = rs.make_partition(2, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.05)
    tp = rs.extract(rs.solve_layers(three_point_family, part, grid, keep_times=[0.0]))
    i = np.arange(-2, tp.x_nodes.size + 2)
    for s in (1, -1):
        for layer in (1, 2):
            finite = np.nonzero(np.isfinite(tp.r[layer - 1]))[0]
            got = tp.first_finite(layer, i, s)
            for k, f in zip(i, got):
                if not 0 <= k < tp.x_nodes.size:
                    assert f == k
                    continue
                ahead = finite[finite >= k] if s > 0 else finite[finite <= k][::-1]
                assert f == (ahead[0] if ahead.size else (tp.x_nodes.size if s > 0 else -1))


def test_range_min_bounds_lookup(gauss_barriers):
    rng = np.random.default_rng(0)
    xs = gauss_barriers.x_nodes
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(xs[2], xs[-3], size=2))
        probes = np.linspace(lo, hi, 50)
        direct = gauss_barriers.lookup(1, probes).min()
        bound = gauss_barriers.range_min(1, np.array([lo]), np.array([hi]))[0]
        assert bound <= direct + 1e-12


def test_barrier_csv_dump(tmp_path, gauss_barriers):
    path = tmp_path / "b.csv"
    from rootsep.barriers import write_barriers_csv
    write_barriers_csv(gauss_barriers, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,s,x,r"
    assert len(lines) == 1 + gauss_barriers.n * gauss_barriers.x_nodes.size
