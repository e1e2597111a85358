import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import rootsep as rs
from rootsep.errors import SingularityError, ValidationError
from rootsep.marginals import gaussian_call, gaussian_call_dx, gaussian_potential

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def quad_potential(pdf, x, lo=-40.0, hi=40.0):
    """Independent quadrature oracle for -E|x - Y|, split at the kink."""
    left, _ = integrate.quad(lambda y: abs(x - y) * pdf(y), lo, x, epsabs=1e-13, limit=400)
    right, _ = integrate.quad(lambda y: abs(x - y) * pdf(y), x, hi, epsabs=1e-13, limit=400)
    return -(left + right)


# ---------------------------------------------------------------------------
# potential_eval

def test_point_mass_potential():
    fam = rs.ScaledFamily(0.0)      # mu_0 = delta_0
    assert rs.potential_eval(fam, 0.0, 2.0) == -2.0


def test_two_atom_potential(two_atom_family):
    assert rs.potential_eval(two_atom_family, 1.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_standard_normal_potential_against_quadrature():
    fam = rs.ScaledFamily(0.0)      # mu_1 = N(0,1)
    for x in (0.0, 3.0, -1.7, 0.4):
        oracle = quad_potential(stats.norm.pdf, x)
        assert rs.potential_eval(fam, 1.0, x) == pytest.approx(oracle, abs=1e-10)
    assert rs.potential_eval(fam, 1.0, 0.0) == pytest.approx(-0.7978845608028654, abs=1e-12)
    assert rs.potential_eval(fam, 1.0, 3.0) == pytest.approx(-3.0007643086340955, abs=1e-10)


def test_gaussian_shift_matches_quadrature(gauss_family):
    for s in (0.0, 0.35, 1.0):
        v = 1.0 + s
        pdf = lambda y: stats.norm.pdf(y, scale=math.sqrt(v))
        for x in (0.0, 1.3, -2.6):
            assert rs.potential_eval(gauss_family, s, x) == pytest.approx(
                quad_potential(pdf, x), abs=1e-10)


def test_potential_index_domain(gauss_family):
    with pytest.raises(ValidationError):
        rs.potential_eval(gauss_family, 1.5, 0.0)
    with pytest.raises(ValidationError):
        rs.potential_ds(gauss_family, -0.1, 0.0)


# ---------------------------------------------------------------------------
# potential_ds

def test_gaussian_shift_ds_closed_form(gauss_family):
    assert rs.potential_ds(gauss_family, 0.0, 0.0) == pytest.approx(-0.3989422804014327, abs=1e-12)
    # finite-difference oracle at several points
    for s, x in ((0.25, 0.0), (0.6, 1.1), (1.0 - 1e-6, -2.0)):
        h = 1e-6
        fd = (rs.potential_eval(gauss_family, s + h, x)
              - rs.potential_eval(gauss_family, s - h, x)) / (2 * h)
        assert rs.potential_ds(gauss_family, s, x) == pytest.approx(fd, abs=1e-7)


def test_constant_family_ds_zero(constant_family):
    for s in (0.0, 0.33, 1.0):
        assert rs.potential_ds(constant_family, s, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_scaled_ds_matches_finite_difference():
    fam = rs.ScaledFamily(0.5)
    h = 1e-6
    for s, x in ((0.5, 0.0), (0.2, 1.0), (0.9, -2.3)):
        fd = (rs.potential_eval(fam, s + h, x) - rs.potential_eval(fam, s - h, x)) / (2 * h)
        assert rs.potential_ds(fam, s, x) == pytest.approx(fd, abs=1e-6)


def test_scaled_zero_offset_singular_at_origin():
    fam = rs.ScaledFamily(0.0)
    with pytest.raises(SingularityError):
        rs.potential_ds(fam, 0.0, 1.0)
    # away from the origin the derivative exists
    assert rs.potential_ds(fam, 0.5, 1.0) < 0


def test_ds_nonpositive_everywhere(gauss_family, three_point_family):
    xs = np.linspace(-6, 6, 41)
    for fam in (gauss_family, three_point_family, rs.ScaledFamily(0.3)):
        for s in np.linspace(0, 1, 9):
            assert np.all(rs.potential_ds(fam, float(s), xs) <= 1e-9)


# ---------------------------------------------------------------------------
# call_price

def test_call_price_normal():
    fam = rs.ScaledFamily(0.0)
    oracle, _ = integrate.quad(lambda y: max(y, 0.0) * stats.norm.pdf(y), 0, 40)
    assert rs.call_price(fam, 1.0, 0.0) == pytest.approx(oracle, abs=1e-10)
    assert rs.call_price(fam, 1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_call_price_two_atoms(two_atom_family):
    assert rs.call_price(two_atom_family, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_call_price_vanishes_far_right(gauss_family, three_point_family):
    for fam in (gauss_family, three_point_family):
        assert rs.call_price(fam, 1.0, 60.0) == pytest.approx(0.0, abs=1e-9)


@given(s=st.floats(0.0, 1.0), x=st.floats(-8.0, 8.0))
@settings(max_examples=60, deadline=None)
def test_centred_identity(s, x):
    fam = rs.GaussianShiftFamily(0.7)
    u = rs.potential_eval(fam, s, x)
    v = rs.call_price(fam, s, x)
    assert 2.0 * v + u + x == pytest.approx(0.0, abs=1e-10)


@given(s=st.floats(0.0, 1.0), x1=st.floats(-10.0, 10.0), x2=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_potential_one_lipschitz(s, x1, x2):
    fam = rs.ThreePointFamily(0.05, 0.4)
    a = rs.potential_eval(fam, s, x1)
    b = rs.potential_eval(fam, s, x2)
    assert abs(a - b) <= abs(x1 - x2) + 1e-9


# ---------------------------------------------------------------------------
# convex order

def test_convex_order_gaussian(gauss_family):
    assert rs.convex_order_validate(gauss_family).passed


class _ReversedGauss(rs.MarginalFamily):
    kind = "reversed_gauss"

    def __init__(self, t0):
        self.inner = rs.GaussianShiftFamily(t0)

    def potential(self, s, x):
        return self.inner.potential(1.0 - s, x)

    def support_radius(self, s):
        return self.inner.support_radius(1.0 - s)


def test_convex_order_reversed_fails():
    rep = rs.convex_order_validate(_ReversedGauss(1.0))
    assert not rep.passed
    assert rep.worst_violation < 0


def test_convex_order_constant_equality(constant_family):
    rep = rs.convex_order_validate(constant_family)
    assert rep.passed
    assert rep.worst_violation == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# assumption check

def test_assumption_scaled_positive_offset():
    rep = rs.assumption_check(rs.ScaledFamily(0.5))
    assert rep.continuous
    assert rep.growth_degree is not None and rep.growth_degree <= 1


def test_assumption_scaled_zero_offset_discontinuous():
    rep = rs.assumption_check(rs.ScaledFamily(0.0))
    assert not rep.continuous
    assert 0.0 in rep.detail["singular_anchors"]


def test_assumption_pathological_growth():
    fam = rs.build_pathological_family(lambda x: abs(x) ** 3, pieces=6)
    rep = rs.assumption_check(fam)
    assert rep.growth_degree not in (0, 1, 2)


# ---------------------------------------------------------------------------
# pathological construction

def test_pathological_chord_recursion():
    fam = rs.build_pathological_family(lambda x: abs(x) ** 3, pieces=6)
    # independent oracle: closed-form Gaussian call recursion
    x = 0.0
    xs = [x]
    for _ in range(3):
        x = x - float(gaussian_call(x)) / float(gaussian_call_dx(x))
        xs.append(x)
    assert fam.x_knots[1] == pytest.approx(xs[1], abs=1e-12)
    assert fam.x_knots[2] == pytest.approx(xs[2], abs=1e-12)
    assert xs[1] == pytest.approx(0.7978845608028654, abs=1e-12)
    assert xs[2] == pytest.approx(1.3657612688101155, abs=1e-12)
    # close to the coarser figure usually quoted for this recursion
    assert abs(xs[2] - 1.3663) < 1.5e-3


def test_pathological_pieces_coincide_outside_window():
    fam = rs.build_pathological_family(lambda x: abs(x) ** 3, pieces=6)
    for j in range(len(fam.t_knots) - 1):
        lo, hi = fam.x_knots[j], fam.x_knots[j + 2]
        outside = np.concatenate([np.linspace(lo - 3.0, lo - 1e-9, 7),
                                  np.linspace(hi + 1e-9, hi + 3.0, 7)])
        a = fam._piece_call(j, outside)
        b = fam._piece_call(j + 1, outside)
        assert np.max(np.abs(a - b)) < 1e-12


def test_pathological_convex_order():
    fam = rs.build_pathological_family(lambda x: abs(x) ** 2, pieces=5)
    assert rs.convex_order_validate(fam).passed


# ---------------------------------------------------------------------------
# sampling

def test_sample_point_mass():
    fam = rs.ScaledFamily(0.0)
    assert np.array_equal(rs.sample_initial(fam, 3, seed=1), np.zeros(3))


def test_sample_gaussian_moments(gauss_family):
    x = rs.sample_initial(gauss_family, 1_000_000, seed=2024)
    assert abs(x.mean()) < 0.004
    assert abs(x.var() - 1.0) < 0.01


def test_sample_determinism(gauss_family):
    a = rs.sample_initial(gauss_family, 1000, seed=7, stream=3)
    b = rs.sample_initial(gauss_family, 1000, seed=7, stream=3)
    c = rs.sample_initial(gauss_family, 1000, seed=7, stream=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_count_validation(gauss_family):
    with pytest.raises(ValidationError):
        rs.sample_initial(gauss_family, 0, seed=1)


def test_sample_three_point(three_point_family):
    x = rs.sample_initial(three_point_family, 200_000, seed=5)
    assert set(np.unique(x)) <= {-1.0, 0.0, 1.0}
    assert abs((x == 0.0).mean() - 0.8) < 0.01


def test_pathological_initial_sampling():
    fam = rs.build_pathological_family(lambda x: abs(x), pieces=4)
    x = rs.sample_initial(fam, 200_000, seed=9)
    # half the mass sits at the first chord point, the rest is half-Gaussian
    at_atom = x == fam.x_knots[1]
    assert abs(at_atom.mean() - 0.5) < 0.01
    assert np.all(x[~at_atom] <= 0.0)
    assert abs(x.mean()) < 0.01


# ---------------------------------------------------------------------------
# atomic measures and file input

def test_atomic_measure_validation():
    with pytest.raises(ValidationError):
        rs.AtomicMeasure(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        rs.AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        rs.AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))  # mean 0.5


def test_csv_loader_round_trip(tmp_path):
    p = tmp_path / "fam.csv"
    p.write_text("s,position,weight\n"
                 "0.0,0.0,1.0\n"
                 "1.0,-1.0,0.5\n"
                 "1.0,1.0,0.5\n", encoding="utf-8")
    fam = rs.load_atomic_family_csv(p)
    assert rs.potential_eval(fam, 0.0, 2.0) == -2.0
    assert rs.potential_eval(fam, 1.0, 0.0) == -1.0
    assert rs.convex_order_validate(fam).passed


@pytest.mark.parametrize("body", [
    "s,pos,weight\n0,0,1\n",                              # bad header
    "s,position,weight\n0.0,nan,1.0\n",                   # NaN
    "s,position,weight\n0.0,0.0,0.9\n",                   # weights not 1
    "s,position,weight\n0.0,1.0,0.6\n0.0,-1.0,0.4\n",     # not centred
    "s,position,weight\n0.5,0.0,1.0\n0.0,0.0,1.0\n",      # s decreasing
    "s,position,weight\n0.5,0.0,1.0\n",                   # missing s=0
])
def test_csv_loader_rejects(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(ValidationError):
        rs.load_atomic_family_csv(p)


def test_initial_gaussian_floor(gauss_family, two_atom_family):
    xs = np.linspace(-3, 3, 13)
    # Gaussian start: closed form
    from rootsep.marginals import gaussian_potential
    assert np.allclose(gauss_family.initial_gaussian_floor(0.5, xs),
                       gaussian_potential(1.5, xs), atol=1e-14)
    # point start: plain Gaussian potential
    assert np.allclose(two_atom_family.initial_gaussian_floor(0.7, xs),
                       gaussian_potential(0.7, xs), atol=1e-14)


# ---------------------------------------------------------------------------
# law description

LAW_FAMILIES = {
    "gaussian_shift": lambda: rs.GaussianShiftFamily(0.7),
    "scaled_point_start": lambda: rs.ScaledFamily(0.0),
    "scaled": lambda: rs.ScaledFamily(0.5),
    "three_point": lambda: rs.ThreePointFamily(0.1, 0.3),
    "two_atom": lambda: rs.ThreePointFamily(0.0, 0.5),
    "atomic_table": lambda: rs.AtomicTableFamily([
        (0.0, rs.AtomicMeasure(np.array([0.0]), np.array([1.0]))),
        (0.5, rs.AtomicMeasure(np.array([-1.0, 2.0]), np.array([2.0 / 3.0, 1.0 / 3.0])))]),
    "pathological": lambda: rs.build_pathological_family(lambda x: abs(x) ** 3, pieces=6),
}
LAW_S = (0.0, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0)
LAW_X = np.linspace(-4.0, 4.0, 33)


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_law_reproduces_potential(kind):
    fam = LAW_FAMILIES[kind]()
    checked = 0
    for s in LAW_S:
        law = fam.law(s)
        if law.normal_var is None:
            continue
        rebuilt = (-(np.abs(LAW_X[:, None] - law.positions) @ law.weights)
                   + law.normal_mass * gaussian_potential(law.normal_var, LAW_X))
        assert np.max(np.abs(rebuilt - fam.potential(s, LAW_X))) <= 1e-12, s
        checked += 1
    # the tangent-chord family is Gaussian only at s = 1
    assert checked >= 1


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_atom_masses_are_cdf_jumps(kind):
    fam = LAW_FAMILIES[kind]()
    for s in LAW_S:
        law = fam.law(s)
        assert np.all(law.weights > 0.0) and law.weights.sum() <= 1.0 + 1e-12
        for p, w in zip(law.positions, law.weights):
            jump = fam.cdf(s, [p + 1e-9])[0] - fam.cdf(s, [p - 1e-9])[0]
            assert jump == pytest.approx(w, abs=1e-8), (s, p)


def test_pathological_floor_has_no_closed_form():
    fam = rs.build_pathological_family(lambda x: abs(x) ** 3, pieces=6)
    assert fam.law(0.0).normal_var is None
    with pytest.raises(ValidationError):
        fam.initial_gaussian_floor(0.5, np.zeros(3))
