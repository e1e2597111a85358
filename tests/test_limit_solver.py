import dataclasses

import numpy as np
import pytest

import rootsep as rs
from rootsep.errors import ValidationError
from rootsep.marginals import gaussian_potential


@pytest.fixture(scope="module")
def gauss_limit(gauss_family):
    # desk-scale ladder: (n, dx) = (2, 0.2), (4, 0.1), (8, 0.05)
    return rs.solve_limit(gauss_family, 1.5, 0.05, 2, 3)


def test_gaussian_limit_closed_form(gauss_limit):
    err = 0.0
    for a, s in enumerate(gauss_limit.lattice_s):
        for b, t in enumerate(gauss_limit.lattice_t):
            exact = gaussian_potential(1.0 + min(s, t), gauss_limit.lattice_x)
            err = max(err, float(np.abs(gauss_limit.values[a, b] - exact).max()))
    assert err <= 5e-3


def test_cauchy_history_decreasing(gauss_limit):
    cauchy = gauss_limit.cauchy_history
    assert len(cauchy) == 2
    assert cauchy[1] < cauchy[0]


def test_boundary_rows_exact(gauss_limit, gauss_family):
    U0 = gauss_family.potential(0.0, gauss_limit.lattice_x)
    assert np.array_equal(gauss_limit.values[0], np.broadcast_to(U0, gauss_limit.values[0].shape))
    ti = list(gauss_limit.lattice_t).index(0.0)
    for a in range(len(gauss_limit.lattice_s)):
        assert np.array_equal(gauss_limit.values[a, ti], U0)


def test_constant_family_shortcut(constant_family):
    lim = rs.solve_limit(constant_family, 1.0, 0.1, 2, 3)
    assert len(lim.history) == 1
    U0 = constant_family.potential(0.0, lim.lattice_x)
    assert np.array_equal(lim.values, np.broadcast_to(U0, lim.values.shape))


def test_pde_residual(gauss_limit):
    rep = rs.pde_residual(gauss_limit)
    assert rep["passed"]
    per = rep["per_level"]
    assert all(b < a for a, b in zip(per, per[1:]))
    # empirical order in dx at least 1/2 under joint refinement
    rates = [np.log2(a / b) for a, b in zip(per, per[1:])]
    assert min(rates) >= 0.5


def test_bounds_check(gauss_limit, gauss_family):
    rep = rs.bounds_check(gauss_limit, gauss_family)
    assert rep["passed"], rep


def test_bounds_check_constant(constant_family):
    lim = rs.solve_limit(constant_family, 1.0, 0.1, 2, 2)
    rep = rs.bounds_check(lim, constant_family)
    assert rep["passed"], rep


def test_pde_residual_constant(constant_family):
    # the obstacle never binds and the heat branch is exact: residual ~ 0
    lim = rs.solve_limit(constant_family, 1.0, 0.1, 2, 2)
    rep = rs.pde_residual(lim)
    assert rep["passed"]
    assert rep["max"] <= 1e-9


def test_regularity(gauss_limit):
    rep = rs.regularity_report(gauss_limit)
    assert rep["x_lipschitz_ratio"] <= 1.0 + 1e-6
    assert rep["t_holder_ratio"] <= 1.0 + gauss_limit.tol
    assert rep["s_increment_max"] <= 1e-9
    assert rep["s_rate_under_envelope"]


def test_gaussian_t_holder_sharp(gauss_limit):
    # the time modulus peaks at the origin where u = -sqrt(2 (1+t) / pi)
    rep = rs.regularity_report(gauss_limit)
    assert rep["t_holder_ratio"] <= np.sqrt(2 / np.pi) + gauss_limit.tol


def test_outside_assumptions_flag():
    lim = rs.solve_limit(rs.ScaledFamily(0.0), 1.0, 0.1, 2, 2)
    assert lim.outside_assumptions
    lim_ok = rs.solve_limit(rs.GaussianShiftFamily(0.5), 1.0, 0.1, 2, 2)
    assert not lim_ok.outside_assumptions


def test_limit_keeps_its_finest_solve(gauss_limit):
    # n0 = 2, levels = 3: the finest level solves 8 layers on dx = 0.05
    finest = gauss_limit.finest
    assert finest.partition.n == 2 * 2 ** (3 - 1)
    assert finest.grid.dx == 0.05
    assert gauss_limit.history[-1]["n"] == finest.partition.n
    assert gauss_limit.tol == finest.tol
    assert np.array_equal(finest.t_kept, gauss_limit.lattice_t)


def test_outside_assumptions_reads_the_assumption_report():
    families = (rs.ScaledFamily(0.0), rs.GaussianShiftFamily(0.5))
    lims = [rs.solve_limit(family, 1.0, 0.1, 2, 2) for family in families]
    assert [lim.outside_assumptions for lim in lims] == [True, False]
    for lim, other, family in zip(lims, lims[::-1], families):
        assert lim.assumption == rs.assumption_check(family)
        assert lim.outside_assumptions == (not lim.assumption.satisfied)
        # derived from the report, not stored beside it
        swapped = dataclasses.replace(lim, assumption=other.assumption)
        assert swapped.outside_assumptions == other.outside_assumptions


def test_partition_independence_small(gauss_family):
    uniform = rs.solve_limit(gauss_family, 1.0, 0.05, 2, 3)
    rep = rs.partition_independence(gauss_family, uniform)
    assert rep["passed"]
    assert rep["sup_distance"] <= 5e-2
    assert rep["uniform"].style == "uniform" and rep["geometric"].style == "geometric"


def test_partition_independence_two_atom(two_atom_family):
    # single substantive marginal: partition choice barely matters
    uniform = rs.solve_limit(two_atom_family, 2.0, 0.1, 2, 2)
    rep = rs.partition_independence(two_atom_family, uniform)
    assert rep["passed"]


def test_partition_independence_needs_a_uniform_ladder(gauss_family):
    geometric = rs.solve_limit(gauss_family, 1.0, 0.1, 2, 1, style="geometric")
    with pytest.raises(ValidationError):
        rs.partition_independence(gauss_family, geometric)


def test_levels_validation(gauss_family):
    with pytest.raises(ValidationError):
        rs.solve_limit(gauss_family, 1.0, 0.1, 2, 0)
