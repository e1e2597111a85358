import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import rootsep as rs
from oracles import call_price
from rootsep.errors import SingularityError, ValidationError
from rootsep.marginals import WEIGHT_TOL, gaussian_potential, make_stream

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def quad_potential(pdf, x, lo=-40.0, hi=40.0):
    """Independent quadrature oracle for -E|x - Y|, split at the kink."""
    left, _ = integrate.quad(lambda y: abs(x - y) * pdf(y), lo, x, epsabs=1e-13, limit=400)
    right, _ = integrate.quad(lambda y: abs(x - y) * pdf(y), x, hi, epsabs=1e-13, limit=400)
    return -(left + right)


# ---------------------------------------------------------------------------
# potential

def test_point_mass_potential():
    fam = rs.ScaledFamily(0.0)      # mu_0 = delta_0
    assert fam.potential(0.0, 2.0) == -2.0


def test_two_atom_potential(two_atom_family):
    assert two_atom_family.potential(1.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_standard_normal_potential_against_quadrature():
    fam = rs.ScaledFamily(0.0)      # mu_1 = N(0,1)
    for x in (0.0, 3.0, -1.7, 0.4):
        oracle = quad_potential(stats.norm.pdf, x)
        assert fam.potential(1.0, x) == pytest.approx(oracle, abs=1e-10)
    assert fam.potential(1.0, 0.0) == pytest.approx(-0.7978845608028654, abs=1e-12)
    assert fam.potential(1.0, 3.0) == pytest.approx(-3.0007643086340955, abs=1e-10)


def test_gaussian_shift_matches_quadrature(gauss_family):
    for s in (0.0, 0.35, 1.0):
        v = 1.0 + s
        pdf = lambda y: stats.norm.pdf(y, scale=math.sqrt(v))
        for x in (0.0, 1.3, -2.6):
            assert gauss_family.potential(s, x) == pytest.approx(
                quad_potential(pdf, x), abs=1e-10)


def test_potential_index_domain(constant_family):
    # a table family looks mu_s up by its index and refuses s outside [0, 1]
    with pytest.raises(ValidationError):
        constant_family.potential(1.5, 0.0)
    with pytest.raises(ValidationError):
        constant_family.potential_ds(-0.1, 0.0)


# ---------------------------------------------------------------------------
# potential_ds

def test_gaussian_shift_ds_closed_form(gauss_family):
    assert gauss_family.potential_ds(0.0, 0.0) == pytest.approx(-0.3989422804014327, abs=1e-12)
    # finite-difference oracle at several points
    for s, x in ((0.25, 0.0), (0.6, 1.1), (1.0 - 1e-6, -2.0)):
        h = 1e-6
        fd = (gauss_family.potential(s + h, x)
              - gauss_family.potential(s - h, x)) / (2 * h)
        assert gauss_family.potential_ds(s, x) == pytest.approx(fd, abs=1e-7)


def test_constant_family_ds_zero(constant_family):
    for s in (0.0, 0.33, 1.0):
        assert constant_family.potential_ds(s, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_scaled_ds_matches_finite_difference():
    fam = rs.ScaledFamily(0.5)
    h = 1e-6
    for s, x in ((0.5, 0.0), (0.2, 1.0), (0.9, -2.3)):
        fd = (fam.potential(s + h, x) - fam.potential(s - h, x)) / (2 * h)
        assert fam.potential_ds(s, x) == pytest.approx(fd, abs=1e-6)


def test_scaled_zero_offset_singular_at_origin():
    fam = rs.ScaledFamily(0.0)
    with pytest.raises(SingularityError):
        fam.potential_ds(0.0, 1.0)
    # away from the origin the derivative exists
    assert fam.potential_ds(0.5, 1.0) < 0


def test_ds_nonpositive_everywhere(gauss_family, three_point_family):
    xs = np.linspace(-6, 6, 41)
    for fam in (gauss_family, three_point_family, rs.ScaledFamily(0.3)):
        for s in np.linspace(0, 1, 9):
            assert np.all(fam.potential_ds(float(s), xs) <= 1e-9)


# ---------------------------------------------------------------------------
# call_price

def test_call_price_normal():
    fam = rs.ScaledFamily(0.0)
    oracle, _ = integrate.quad(lambda y: max(y, 0.0) * stats.norm.pdf(y), 0, 40)
    assert call_price(fam, 1.0, 0.0) == pytest.approx(oracle, abs=1e-10)
    assert call_price(fam, 1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_call_price_two_atoms(two_atom_family):
    assert call_price(two_atom_family, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_call_price_vanishes_far_right(gauss_family, three_point_family):
    for fam in (gauss_family, three_point_family):
        assert call_price(fam, 1.0, 60.0) == pytest.approx(0.0, abs=1e-9)


@given(s=st.floats(0.0, 1.0), x=st.floats(-8.0, 8.0))
@settings(max_examples=60, deadline=None)
def test_centred_identity(s, x):
    fam = rs.GaussianShiftFamily(0.7)
    u = fam.potential(s, x)
    v = call_price(fam, s, x)
    assert 2.0 * v + u + x == pytest.approx(0.0, abs=1e-10)


@given(s=st.floats(0.0, 1.0), x1=st.floats(-10.0, 10.0), x2=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_potential_one_lipschitz(s, x1, x2):
    fam = rs.ThreePointFamily(0.05, 0.4)
    a = fam.potential(s, x1)
    b = fam.potential(s, x2)
    assert abs(a - b) <= abs(x1 - x2) + 1e-9


# ---------------------------------------------------------------------------
# convex order

S_PROBES = np.linspace(0.0, 1.0, 21)


def probe_x(family):
    """41 points across the support of mu_1, at least [-1, 1]."""
    r = max(family.support_radius(1.0), 1.0)
    return np.linspace(-r, r, 41)


def test_convex_order_gaussian(gauss_family):
    assert rs.convex_order_validate(gauss_family, S_PROBES, probe_x(gauss_family)).passed


class _ReversedGauss(rs.MarginalFamily):
    kind = "reversed_gauss"

    def __init__(self, t0):
        self.inner = rs.GaussianShiftFamily(t0)

    def law(self, s):
        return self.inner.law(1.0 - s)


def test_convex_order_reversed_fails():
    fam = _ReversedGauss(1.0)
    rep = rs.convex_order_validate(fam, S_PROBES, probe_x(fam))
    assert not rep.passed
    assert rep.worst_violation < 0


def test_convex_order_constant_equality(constant_family):
    rep = rs.convex_order_validate(constant_family, S_PROBES, probe_x(constant_family))
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


class _CubicGrowth(rs.MarginalFamily):
    """Stub whose index derivative grows like |x|^3; assumption_check reads
    nothing else."""

    def potential_ds(self, s, x):
        return -np.abs(np.asarray(x, dtype=float)) ** 3


def test_assumption_pathological_growth():
    rep = rs.assumption_check(_CubicGrowth())
    assert rep.continuous
    assert rep.growth_degree == 3


# ---------------------------------------------------------------------------
# sampling

def test_sample_point_mass():
    fam = rs.ScaledFamily(0.0)
    assert np.array_equal(fam.sample_initial_rng(make_stream(1), 3), np.zeros(3))


def test_sample_gaussian_moments(gauss_family):
    x = gauss_family.sample_initial_rng(make_stream(2024), 1_000_000)
    assert abs(x.mean()) < 0.004
    assert abs(x.var() - 1.0) < 0.01


def test_sample_determinism(gauss_family):
    a = gauss_family.sample_initial_rng(make_stream(7, 3), 1000)
    b = gauss_family.sample_initial_rng(make_stream(7, 3), 1000)
    c = gauss_family.sample_initial_rng(make_stream(7, 4), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_three_point(three_point_family):
    x = three_point_family.sample_initial_rng(make_stream(5), 200_000)
    assert set(np.unique(x)) <= {-1.0, 0.0, 1.0}
    assert abs((x == 0.0).mean() - 0.8) < 0.01


# ---------------------------------------------------------------------------
# atomic measures and file input

def test_atomic_measure_validation():
    # each law breaks one rule only, so each rejection names its own rule
    bad = [
        ([], [], "non-empty"),
        ([-1.0, 1.0], [1.0], "non-empty"),                     # shapes differ
        ([np.nan, 0.0], [0.5, 0.5], "non-finite"),
        ([-1.0, 1.0], [0.5, np.inf], "non-finite"),
        ([1.0, -1.0], [0.5, 0.5], "strictly increasing"),
        ([0.0, 0.0], [0.5, 0.5], "strictly increasing"),
        ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5], "positive"),
        ([-1.0, 0.0, 1.0], [0.6, -0.2, 0.6], "positive"),
        ([-1.0, 1.0], [0.7, 0.7], "sum to"),
        ([0.0, 1.0], [0.5, 0.5], "not centred"),              # mean 0.5
    ]
    for positions, weights, rule in bad:
        with pytest.raises(ValidationError, match=rule):
            rs.AtomicTableFamily([(0.0, rs.Law(positions, weights))])
        # a bad law later in the table is rejected as well
        with pytest.raises(ValidationError, match=rule):
            rs.AtomicTableFamily([(0.0, rs.Law([0.0], [1.0])),
                                  (0.5, rs.Law(positions, weights))])
        # the law itself refuses bad atoms; the empty law is N(0, 0), and
        # only the atomic table refuses it
        if positions or weights:
            with pytest.raises(ValidationError, match=rule):
                rs.Law(positions, weights)


def test_law_checks_its_atoms():
    # half an atom is not a law: unchecked, its potential would be -0.5 |x|
    with pytest.raises(ValidationError, match="sum to"):
        rs.Law([0.0], [0.5])
    empty = rs.Law([], [])
    assert empty.normal_var == 0.0 and not empty.positions.size
    assert empty.support_radius() == 0.0


def test_csv_loader_round_trip(tmp_path):
    p = tmp_path / "fam.csv"
    p.write_text("s,position,weight\n"
                 "0.0,0.0,1.0\n"
                 "1.0,-1.0,0.5\n"
                 "1.0,1.0,0.5\n", encoding="utf-8")
    fam = rs.load_atomic_family_csv(p)
    assert fam.potential(0.0, 2.0) == -2.0
    assert fam.potential(1.0, 0.0) == -1.0
    assert rs.convex_order_validate(fam, S_PROBES, probe_x(fam)).passed


@pytest.mark.parametrize("body", [
    "s,pos,weight\n0,0,1\n",                              # bad header
    "s,position,weight\n0.0,nan,1.0\n",                   # NaN
    "s,position,weight\n0.0,0.0,0.9\n",                   # weights not 1
    "s,position,weight\n0.0,1.0,0.6\n0.0,-1.0,0.4\n",     # not centred
    "s,position,weight\n0.5,0.0,1.0\n0.0,0.0,1.0\n",      # s decreasing
    "s,position,weight\n0.5,0.0,1.0\n",                   # missing s=0
    "s,position,weight\n0.0,0.0,1.0\n0.0,2.0,0.0\n",      # zero weight
    "s,position,weight\n0.0,0.0,0.5\n0.0,0.0,0.5\n",      # duplicate position
    "s,position,weight\n0.0,1.0,0.5\n0.0,-1.0,0.5\n",     # unsorted positions
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
        (0.0, rs.Law([0.0], [1.0])),
        (0.5, rs.Law([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0]))]),
}
LAW_S = (0.0, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0)
LAW_X = np.linspace(-4.0, 4.0, 33)
NORMAL_RADIUS = stats.norm.ppf(1.0 - 1e-6)


def _three_point_closed_form(p0, p1):
    def potential(s, x):
        p = p0 + p1 * s
        return -((1.0 - 2.0 * p) * np.abs(x) + p * (np.abs(x - 1.0) + np.abs(x + 1.0)))
    return potential, lambda s: 1.0


def _scaled_closed_form(s0):
    def potential(s, x):
        c = s0 + s
        return -np.abs(x) if c == 0.0 else c * gaussian_potential(1.0, x / c)
    return potential, lambda s: (s0 + s) * NORMAL_RADIUS


def _table_closed_form(s, x):
    if s < 0.5:
        return -np.abs(x)
    return -(2.0 / 3.0 * np.abs(x + 1.0) + 1.0 / 3.0 * np.abs(x - 2.0))


# the closed forms each family once stated beside its law, kept as oracles
CLOSED_FORMS = {
    "gaussian_shift": (lambda s, x: gaussian_potential(0.7 + s, x),
                       lambda s: math.sqrt(0.7 + s) * NORMAL_RADIUS),
    "scaled_point_start": _scaled_closed_form(0.0),
    "scaled": _scaled_closed_form(0.5),
    "three_point": _three_point_closed_form(0.1, 0.3),
    "two_atom": _three_point_closed_form(0.0, 0.5),
    "atomic_table": (_table_closed_form, lambda s: 0.0 if s < 0.5 else 2.0),
}


def test_law_is_atoms_or_a_normal_law():
    with pytest.raises(ValidationError, match="atoms or a normal law"):
        rs.Law([0.0], [1.0], normal_var=1.0)


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_every_family_law_is_atoms_or_a_normal_law(kind):
    fam = LAW_FAMILIES[kind]()
    for s in LAW_S:
        law = fam.law(s)
        if law.positions.size:
            assert abs(float(law.weights.sum()) - 1.0) <= WEIGHT_TOL, s
            assert law.normal_var == 0.0, s
        else:
            assert law.weights.size == 0 and law.normal_var > 0.0, s


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_law_reproduces_potential(kind):
    fam = LAW_FAMILIES[kind]()
    potential, radius = CLOSED_FORMS[kind]
    for s in LAW_S:
        assert np.max(np.abs(fam.potential(s, LAW_X) - potential(s, LAW_X))) <= 1e-12, s
        if kind == "two_atom" and s == 0.0:
            # mu_0 = delta_0 has radius 0; the closed form said 1 at every s,
            # and make_grid takes the max over s, which s = 1 sets to 1
            assert fam.support_radius(s) == 0.0
        else:
            assert fam.support_radius(s) == radius(s), s


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_stacked_potentials_are_the_per_s_potentials(kind):
    # one stacked evaluation over all s, as convex_order_validate and
    # solve_layers make it, gives every row bit for bit
    fam = LAW_FAMILIES[kind]()
    for x in (LAW_X, np.linspace(-10.0, 10.0, 401)):
        rows = fam.potentials(LAW_S, x)
        assert rows.shape == (len(LAW_S), x.size)
        for s, row in zip(LAW_S, rows):
            assert np.array_equal(row, fam.potential(s, x)), s


@pytest.mark.parametrize("kind", sorted(LAW_FAMILIES))
def test_atom_masses_are_cdf_jumps(kind):
    fam = LAW_FAMILIES[kind]()
    for s in LAW_S:
        law = fam.law(s)
        assert np.all(law.weights > 0.0) and law.weights.sum() <= 1.0 + 1e-12
        for p, w in zip(law.positions, law.weights):
            jump = fam.cdf(s, [p + 1e-9])[0] - fam.cdf(s, [p - 1e-9])[0]
            assert jump == pytest.approx(w, abs=1e-8), (s, p)
