"""Acceptance criteria, one test per criterion, each printing a PASS line.

Heavy artifacts (refinement ladders, million-path ensembles) are built once
in module fixtures and shared.  Monte Carlo checks run on pinned seeds at
the stated sample sizes and tolerances.
"""

import json
import math

import numpy as np
import pytest

import rootsep as rs
from oracles import ordering_check, tree_oracle
from rootsep.barriers import BarrierFamily
from rootsep.cli import main
from rootsep.marginals import gaussian_potential

SEED = 20260811


def _announce(num, text):
    print(f"PASS criterion {num}: {text}")


def _barrier_of(run):
    return run[1]


# ---------------------------------------------------------------------------
# shared artifacts

@pytest.fixture(scope="module")
def gauss_family():
    return rs.GaussianShiftFamily(1.0)


@pytest.fixture(scope="module")
def gauss_independence(gauss_family):
    # uniform and geometric ladders to (n, dx) = (32, 0.02) on T = 2
    return rs.partition_independence(gauss_family,
                                     rs.solve_limit(gauss_family, 2.0, 0.02, 4, 4))


@pytest.fixture(scope="module")
def gauss_fine(gauss_family):
    part = rs.make_partition(32, "uniform")
    grid = rs.make_grid(gauss_family, 2.0, 0.02)
    surf = rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, grid.T])
    return surf, rs.extract(surf)


@pytest.fixture(scope="module")
def gauss_mc(gauss_family):
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.05)
    surf = rs.solve_layers(gauss_family, part, grid,
                           keep_times=[0.0, 0.25, 0.5, 1.0, 1.25])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(gauss_family, barrier, 1_000_000, grid.dt, SEED,
                           snapshot_times=[0.25, 0.5, 1.0], threads=4)
    return surf, barrier, ens


@pytest.fixture(scope="module")
def root_ensemble():
    # embedding N(0,1) from a point start: the barrier is the vertical line
    # t = 1 and every path stops there deterministically
    fam = rs.ScaledFamily(0.0)
    h = 0.0025
    grid = rs.SpaceTimeGrid(T=1.5, dt=h, L=10.0, dx=0.05)
    barrier = BarrierFamily(s_values=np.array([1.0]), grid=grid, r=np.ones((1, grid.nx + 1)))
    return fam, rs.simulate_root(fam, barrier, 100_000, h, SEED)


@pytest.fixture(scope="module")
def alternative_ensemble():
    # at 4e6 paths the 0.05 gate on E sigma^2/2 is about 5.4 stderr and the
    # 0.01 gate on E sigma about 10; at 1e5 the first was 0.9 stderr
    return rs.alternative_embedding(4_000_000, 12, h_sim=5e-5, horizon=120.0)


@pytest.fixture(scope="module")
def two_atom_run(two_atom_family, two_atom_million):
    # 10^6 paths: stops are exact, so the mean-stop gate 0.01 sits about 12
    # standard errors (0.0008) from E sigma = 1
    return two_atom_family, two_atom_million


@pytest.fixture(scope="module")
def three_point_run():
    fam = rs.ThreePointFamily(0.1, 0.3)
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(fam, 3.0, 0.025)
    surf = rs.solve_layers(fam, part, grid, keep_times=[0.0, grid.T])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(fam, barrier, 100_000, grid.dt, 11, threads=4)
    return fam, surf, barrier, ens


@pytest.fixture(scope="module")
def three_point_independence():
    fam = rs.ThreePointFamily(0.1, 0.3)
    return rs.partition_independence(fam, rs.solve_limit(fam, 3.0, 0.05, 4, 3))


@pytest.fixture(scope="module")
def two_atom_limit():
    fam = rs.ThreePointFamily(0.0, 0.5)
    return fam, rs.solve_limit(fam, 7.0, 0.1, 2, 2)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_gaussian_closed_form(gauss_independence):
    lim = gauss_independence["uniform"]
    assert lim.history[-1]["n"] == 32
    assert lim.finest.grid.dx == pytest.approx(0.02)
    err = 0.0
    for a, s in enumerate(lim.lattice_s):
        for b, t in enumerate(lim.lattice_t):
            exact = gaussian_potential(1.0 + min(s, t), lim.lattice_x)
            err = max(err, float(np.abs(lim.values[a, b] - exact).max()))
    runtime = sum(h["runtime_ms"] for h in lim.history) / 1e3
    assert err <= 1e-2
    assert runtime <= 600.0
    _announce(1, f"limit surface vs closed form: sup error {err:.2e} <= 1e-2 "
                 f"(n=32, dx=0.02, {runtime:.1f}s)")


def test_criterion_2_vertical_barriers(gauss_fine):
    surf, barrier = gauss_fine
    dt = surf.grid.dt
    xs = barrier.x_nodes
    win = np.abs(xs) <= 3.0
    worst = 0.0
    for j in range(barrier.n):
        worst = max(worst, float(np.abs(barrier.r[j][win]
                                        - surf.partition.points[j + 1]).max()))
    assert worst <= 5 * dt
    _announce(2, f"extracted barriers within {worst:.2e} of vertical lines "
                 f"(5*dt = {5 * dt:.2e})")


def test_criterion_3_representation(gauss_mc):
    surf, _, ens = gauss_mc
    bias = ens.allowance
    probes = np.array([-1.0, 0.0, 1.0])
    worst_margin = np.inf
    for j in (1, surf.n):
        for t in (0.25, 0.5, 1.0):
            emp, se = rs.empirical_potential(ens, j, t, probes)
            ref = np.array([surf.value_at(j, t, x) for x in probes])
            gap = np.abs(emp - ref)
            tol = 3.0 * se + bias
            assert np.all(gap <= tol), (j, t, gap, tol)
            worst_margin = min(worst_margin, float((tol - gap).min()))
    _announce(3, f"MC potential representation at M=1e6: worst spare margin "
                 f"{worst_margin:.3f} against 3 stderr + 2 sqrt(h)")


def test_criterion_4_optimality(root_ensemble, alternative_ensemble):
    fam, root = root_ensemble
    alt = alternative_ensemble
    weights = {"one": rs.MonotonePiecewisePoly.poly(1.0),
               "t": rs.MonotonePiecewisePoly.poly(0.0, 1.0),
               "t_sq": rs.MonotonePiecewisePoly.poly(0.0, 0.0, 1.0)}
    root_t, root_se = rs.optimality_functional(root, weights["t"])
    assert root_t == 0.5 and root_se == 0.0
    alt_t, alt_se = rs.optimality_functional(alt, weights["t"])
    assert abs(alt_t - 2.5) <= 0.05
    for name, f in weights.items():
        re_, rs_ = rs.optimality_functional(root, f)
        ae, ase = rs.optimality_functional(alt, f)
        assert re_ <= ae + 3.0 * (ase + rs_)
        if name != "one":       # the true values differ for strictly increasing f
            assert ae - re_ >= 3.0 * (ase + rs_)
    alt_sigma, alt_sigma_se = rs.optimality_functional(alt, weights["one"])
    assert abs(alt_sigma - 1.0) <= 0.01
    fit = rs.marginal_fit(alt, fam)
    assert fit.marginals[0]["ks"] <= 0.01
    _announce(4, f"Root time functional 0.5 exactly vs randomized alternative "
                 f"{alt_t:.3f} +- {alt_se:.3f}; direction holds for all tested weights")


def test_criterion_5_embedded_marginals(gauss_mc, two_atom_run, three_point_run):
    _, _, gens = gauss_mc
    gfit = rs.marginal_fit(gens, rs.GaussianShiftFamily(1.0))
    ks_worst = max(m["ks"] for m in gfit.marginals)
    assert ks_worst <= 0.01

    fam2, ens2 = two_atom_run
    fit2 = rs.marginal_fit(ens2, fam2)
    err2 = max(m["atom_mass_error"] for m in fit2.marginals)
    assert err2 <= 0.01
    mean_sigma = ens2.sigma[1][~ens2.censored].mean()
    assert abs(mean_sigma - 1.0) <= 0.01

    fam3, _, _, ens3 = three_point_run
    fit3 = rs.marginal_fit(ens3, fam3)
    err3 = max(m["atom_mass_error"] for m in fit3.marginals)
    for m in fit3.marginals:
        p = fam3.p(m["s"])
        assert abs(m["atom_masses"][1] - (1.0 - 2.0 * p)) <= 0.01
    assert err3 <= 0.01
    _announce(5, f"embedded marginals: Gaussian KS {ks_worst:.4f} <= 0.01; atom "
                 f"masses within {max(err2, err3):.4f} <= 0.01 "
                 f"(two-atom mean stop {mean_sigma:.4f})")


def test_criterion_6_bounds(gauss_independence, three_point_independence, two_atom_limit):
    worst = 0.0
    for lim, fam in ((gauss_independence["uniform"], rs.GaussianShiftFamily(1.0)),
                     (three_point_independence["uniform"], rs.ThreePointFamily(0.1, 0.3)),
                     (two_atom_limit[1], two_atom_limit[0])):
        rep = rs.bounds_check(lim, fam)
        assert rep["passed"], rep
        worst = max(worst, rep["max_violation"])
    _announce(6, f"linear-growth sandwich: zero violations beyond tolerance "
                 f"on all fixtures (worst excess {worst:.1e})")


def test_criterion_7_regularity(gauss_independence, three_point_independence,
                                two_atom_limit):
    worst_x = 0.0
    for lim in (gauss_independence["uniform"], three_point_independence["uniform"],
                two_atom_limit[1]):
        rep = rs.regularity_report(lim)
        assert rep["x_lipschitz_ratio"] <= 1.0 + 1e-6
        assert rep["t_holder_ratio"] <= 1.0 + lim.tol
        assert rep["s_increment_max"] <= 1e-9
        assert rep["s_rate_under_envelope"] in (True, None)
        worst_x = max(worst_x, rep["x_lipschitz_ratio"])
    _announce(7, f"regularity: x-Lipschitz ratio <= {worst_x:.8f}, t-Hoelder and "
                 f"s-monotonicity within tolerance on all fixtures")


def test_criterion_8_complementarity(gauss_independence, three_point_independence,
                                     two_atom_limit):
    worst_ratio = 0.0
    for lim in (gauss_independence["uniform"], three_point_independence["uniform"],
                two_atom_limit[1]):
        rep = rs.pde_residual(lim)
        assert rep["passed"], rep
        worst_ratio = max(worst_ratio, rep["max"] / rep["bound"])
    per = rs.pde_residual(gauss_independence["uniform"])["per_level"]
    orders = [math.log2(a / b) for a, b in zip(per, per[1:])]
    assert min(orders) >= 0.5
    _announce(8, f"discrete residual <= calibrated bound on all fixtures (worst "
                 f"ratio {worst_ratio:.2f}); refinement order {min(orders):.2f} >= 0.5")


def test_criterion_9_partition_independence(gauss_independence, three_point_independence):
    g = gauss_independence
    assert g["sup_distance"] <= 2e-2
    assert g["passed"]
    t = three_point_independence
    assert t["passed"], (t["sup_distance"], t["bound"])
    _announce(9, f"uniform vs geometric limits agree: Gaussian {g['sup_distance']:.3e} "
                 f"<= 2e-2, three-point {t['sup_distance']:.3e} <= contract "
                 f"{t['bound']:.3e}")


def test_criterion_10_tree_oracle(gauss_family):
    worst = 0.0
    for n in (1, 2):
        part = rs.make_partition(n, "uniform")
        dx = 0.5
        for depth in (1, 3, 5):
            grid = rs.SpaceTimeGrid(T=depth * dx * dx, dt=dx * dx, L=8.0, dx=dx)
            surf = rs.solve_layers(gauss_family, part, grid)
            vals = tree_oracle(gauss_family, part, depth, dx)
            for j in range(n + 1):
                worst = max(worst, abs(vals[j] - surf.value_at(j, grid.T, 0.0)))
    assert worst <= 1e-12
    _announce(10, f"exhaustive stopping-rule enumeration equals the solver to "
                  f"{worst:.1e} (<= 1e-12) for n in {{1,2}}, depth <= 5")


def test_criterion_11_ordered_barriers(gauss_fine, gauss_mc, three_point_run):
    # coarse partition: ordered over the whole domain; fine partition:
    # ordered wherever the layer increments are numerically resolvable
    _, _, ens = gauss_mc
    assert ordering_check(_barrier_of(gauss_mc)).ordered
    _, barrier = gauss_fine
    assert ordering_check(barrier, x_window=(-3.0, 3.0)).ordered
    _, _, b3, _ = three_point_run
    i0 = int(np.argmin(np.abs(b3.x_nodes)))
    r0 = b3.r[:, i0]
    assert np.all(np.isfinite(r0)) and np.all(np.diff(r0) > 0)
    _announce(11, f"barriers ordered on the Gaussian family; three-point zero-column "
                  f"onsets increasing: {np.round(r0, 4).tolist()}")


def test_criterion_12_determinism(tmp_path):
    # 10^5 paths, so that the verdict both runs must reach is not left to the
    # seed: on this grid the library's KS gate 0.01 passed 7 seeds in 10 at
    # 20000 paths and 10 in 10 at 10^5
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[family]
kind = gaussian_shift
t0 = 1.0

[grid]
t_horizon = 1.25
dx = 0.1

[partition]
n0 = 2
levels = 2

[simulation]
paths = 100000
h_sim = 0.01
seed = 32
probe_times = 0.25,1.0
probe_x = -1.0,0.0,1.0
""", encoding="utf-8")
    out1, out2 = tmp_path / "t1", tmp_path / "t8"
    assert main(["all", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["all", "--config", str(cfg), "--out", str(out2), "--threads", "8"]) == 0
    for sub in ("solve", "limit", "verify"):
        h1 = json.loads((out1 / sub / "hashes.json").read_text())
        h2 = json.loads((out2 / sub / "hashes.json").read_text())
        assert h1 == h2, sub
    _announce(12, "identical artifact hashes with --threads 1 and --threads 8")
