from types import SimpleNamespace

import pytest

import rootsep as rs
from rootsep import simulator as sim


@pytest.fixture(scope="session")
def gauss_family():
    return rs.GaussianShiftFamily(1.0)


@pytest.fixture(scope="session")
def two_atom_family():
    # mu_0 = delta_0, mu_1 = (delta_-1 + delta_1)/2
    return rs.ThreePointFamily(0.0, 0.5)


@pytest.fixture(scope="session")
def three_point_family():
    return rs.ThreePointFamily(0.1, 0.3)


@pytest.fixture(scope="session")
def constant_family():
    return rs.AtomicTableFamily([(0.0, rs.Law([-1.0, 1.0], [0.5, 0.5]))])


@pytest.fixture
def box_work(monkeypatch):
    """The box-step rounds and box steps that `simulate_root` takes while
    the test runs, counted by wrapping `simulator._box`: one round per
    call, one step per path in it."""
    work, real = SimpleNamespace(rounds=0, steps=0), sim._box

    def counted(barrier_family, j, x, *args):
        work.rounds += 1
        work.steps += x.size
        return real(barrier_family, j, x, *args)

    monkeypatch.setattr(sim, "_box", counted)
    return work


@pytest.fixture(scope="session")
def gauss_surface_small(gauss_family):
    """Four-layer Gaussian solve on a modest grid, shared by many tests."""
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.05)
    return rs.solve_layers(gauss_family, part, grid)


@pytest.fixture(scope="session")
def two_atom_surface(two_atom_family):
    part = rs.make_partition(1, "uniform")
    grid = rs.make_grid(two_atom_family, 7.0, 0.1)
    return rs.solve_layers(two_atom_family, part, grid)


@pytest.fixture(scope="session")
def two_atom_million(two_atom_family, two_atom_surface):
    """10^6 paths on the two-atom barrier at h = 5e-5, shared by criterion 5
    and the simulator's mean-stop check."""
    return rs.simulate_root(two_atom_family, rs.extract(two_atom_surface), 1_000_000, 5e-5,
                            101, threads=4)
