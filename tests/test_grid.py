import numpy as np
import pytest

import rootsep as rs
from rootsep.errors import GridBudgetError, ValidationError


def test_uniform_partition_examples():
    p = rs.make_partition(2, "uniform")
    assert np.allclose(p.points, [0.0, 0.5, 1.0])
    assert p.mesh == 0.5
    assert rs.make_partition(4, "uniform").mesh == 0.25


def test_geometric_partition():
    p = rs.make_partition(4, "geometric")
    assert p.points[0] == 0.0 and p.points[-1] == 1.0
    assert p.mesh > 0.25
    gaps = p.gaps()
    assert np.allclose(gaps[1:] / gaps[:-1], 1.2)


def test_partition_validation():
    with pytest.raises(ValidationError):
        rs.make_partition(0)
    with pytest.raises(ValidationError):
        rs.Partition(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        rs.Partition(np.array([0.1, 1.0]))


def test_refine_inserts_midpoints():
    p = rs.Partition(np.array([0.0, 1.0]))
    q = rs.refine(p)
    assert np.allclose(q.points, [0.0, 0.5, 1.0])
    r = rs.refine(q)
    assert np.allclose(r.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert set(q.points) <= set(r.points)


@pytest.mark.parametrize("style", ["uniform", "geometric"])
def test_refine_halves_mesh(style):
    p = rs.make_partition(5, style)
    assert rs.refine(p).mesh == pytest.approx(p.mesh / 2, rel=1e-14)


def test_make_grid_normal_target():
    fam = rs.ScaledFamily(0.0)           # point start delta_0 spreading to N(0,1)
    g = rs.make_grid(fam, 2.0, 0.05)
    assert g.L >= 4.75 + 3 * np.sqrt(2.0) - 1e-9
    # the point start is an atom of mu_0, so the damped ratio applies
    assert g.dt == pytest.approx(0.002)
    assert g.lam == pytest.approx(0.8)


def test_make_grid_two_atom(two_atom_family):
    g = rs.make_grid(two_atom_family, 1.0, 0.1)
    assert g.L >= 1.0 + 3.0 - 1e-9
    # atomic marginals default to the damped ratio; lam=1 stays available
    assert g.dt == pytest.approx(0.8 * 0.01)
    assert rs.make_grid(two_atom_family, 1.0, 0.1, lam=1.0).dt == pytest.approx(0.01)


def test_grid_nodes_exact_affine():
    fam = rs.ScaledFamily(0.0)
    g = rs.make_grid(fam, 1.0, 0.05)
    xs = g.x_nodes()
    k = np.arange(xs.size) - g.nx // 2
    assert np.array_equal(xs, k * g.dx)          # exactly integer * step
    assert xs[0] == pytest.approx(-g.L, abs=1e-12)
    assert xs[-1] == pytest.approx(g.L, abs=1e-12)
    # node floats agree across a power-of-two step ladder
    g2 = rs.make_grid(fam, 1.0, 0.1, L=g.L)
    assert np.array_equal(g2.x_nodes(), xs[::2])


def test_binary_steps_snap():
    fam = rs.ScaledFamily(0.0)
    g = rs.make_grid(fam, 1.0, 0.05, binary_steps=True)
    assert g.dx == 0.0625          # nearest power of two
    assert g.lam == 0.8


def test_node_budget():
    fam = rs.ScaledFamily(0.0)
    with pytest.raises(GridBudgetError):
        rs.make_grid(fam, 2.0, 0.002, node_budget=10_000)


def test_grid_validation():
    with pytest.raises(ValidationError):
        rs.SpaceTimeGrid(T=1.0, dt=0.02, L=1.0, dx=0.1)   # lam = 2
    with pytest.raises(ValidationError):
        rs.make_grid(rs.ScaledFamily(0.0), -1.0, 0.1)
