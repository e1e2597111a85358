import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr

import rootsep as rs
from oracles import exit_time_cdf, reflection_cdf, theta_cdf
from rootsep import simulator as sim
from rootsep.barriers import BarrierFamily
from rootsep.errors import HorizonError, ValidationError
from rootsep.marginals import make_stream
from rootsep.tolerances import CENSOR_FRACTION, LATTICE_TOL


@pytest.fixture(scope="module")
def gauss_run(gauss_family):
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.05)
    surf = rs.solve_layers(gauss_family, part, grid,
                           keep_times=[0.0, 0.25, 0.5, 1.0, 1.25])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(gauss_family, barrier, 40_000, grid.dt, seed=7,
                           snapshot_times=[0.0, 0.25, 0.5, 1.0])
    return surf, barrier, ens


def analytic_vertical_barrier(level_time: float, h: float, horizon: float,
                              layers: int = 1) -> BarrierFamily:
    grid = rs.SpaceTimeGrid(T=horizon, dt=h, L=10.0, dx=0.05)
    return BarrierFamily(s_values=np.arange(1, layers + 1) / layers, grid=grid,
                         r=np.full((layers, grid.nx + 1), level_time))


# ---------------------------------------------------------------------------
# stopping times

def test_vertical_barrier_hits(gauss_run):
    surf, _, ens = gauss_run
    dt = surf.grid.dt
    for j in range(1, 5):
        s_j = surf.partition.points[j]
        assert np.abs(ens.sigma[j] - s_j).max() <= 5 * dt + ens.h_sim
    assert np.all(np.diff(ens.sigma[1:], axis=0) >= 0.0)
    assert ens.censored_fraction == 0.0


def test_equal_layers_stop_together():
    # layer 2 is tried at layer 1's stop, so equal barriers stop together
    h = 0.0025
    ens = rs.simulate_root(rs.ScaledFamily(0.0), analytic_vertical_barrier(0.3, h, 1.5, 2),
                           5000, h, seed=5, snapshot_times=[0.25, 0.5])
    assert np.all(ens.sigma[1] == 0.3) and np.array_equal(ens.sigma[1], ens.sigma[2])
    assert np.array_equal(ens.b_sigma[1], ens.b_sigma[2])
    assert np.array_equal(ens.snapshots[0.5], ens.b_sigma[2])


@pytest.fixture(scope="module")
def three_point_barrier(three_point_family):
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.025)
    return rs.extract(rs.solve_layers(three_point_family, part, grid, keep_times=[0.0]))


@pytest.fixture(scope="module")
def three_point_run(three_point_family, three_point_barrier):
    return rs.simulate_root(three_point_family, three_point_barrier, 20_000,
                            three_point_barrier.grid.dt, seed=2)


@pytest.mark.parametrize("atom", [1.0, -1.0])
def test_atoms_inside_every_barrier_stop_at_time_zero(three_point_run, atom):
    # three-point paths that start on the wing atoms sit in every layer's
    # region at t = 0, so every layer stops them there
    ens = three_point_run
    wing = ens.x0 == atom
    assert wing.any()
    for j in range(1, ens.n + 1):
        assert np.all(ens.sigma[j][wing] == 0.0)
        assert np.array_equal(ens.b_sigma[j][wing], ens.x0[wing])


def test_snapshots_hold_the_stopped_value(gauss_run):
    _, _, ens = gauss_run
    checked = 0
    for t, snap in ens.snapshots.items():
        stopped = ens.sigma[ens.n] <= t + 1e-12
        assert np.array_equal(snap[stopped], ens.b_sigma[ens.n][stopped])
        checked += np.count_nonzero(stopped)
    assert checked


def test_two_atom_stop_values(two_atom_family, two_atom_surface):
    barrier = rs.extract(two_atom_surface)
    ens = rs.simulate_root(two_atom_family, barrier, 30_000, 1e-3, seed=3)
    vals = ens.b_sigma[1][~ens.censored]
    assert np.abs(vals).min() >= 1.0            # stop only at or beyond the atoms
    assert np.abs(vals).max() <= 1.0 + 0.2      # overshoot stays near the level
    mean_sigma = ens.sigma[1][~ens.censored].mean()
    assert mean_sigma == pytest.approx(1.0, abs=0.05)


@pytest.fixture
def many_cores(monkeypatch):
    """Eight cores for `_run_blocks`, whatever the host has, so the thread
    tests start the runs they ask for."""
    monkeypatch.setattr(sim, "_cores", lambda: 8)


def test_determinism_and_threads(gauss_family, gauss_run, many_cores):
    surf, barrier, ens = gauss_run
    again = rs.simulate_root(gauss_family, barrier, 40_000, surf.grid.dt, seed=7,
                             snapshot_times=[0.0, 0.25, 0.5, 1.0])
    threaded = rs.simulate_root(gauss_family, barrier, 40_000, surf.grid.dt, seed=7,
                                snapshot_times=[0.0, 0.25, 0.5, 1.0], threads=8)
    for other in (again, threaded):
        assert np.array_equal(ens.sigma, other.sigma)
        assert np.array_equal(ens.b_sigma[1:], other.b_sigma[1:])
        assert np.array_equal(ens.x0, other.x0)
        for k in ens.snapshots:
            assert np.array_equal(ens.snapshots[k], other.snapshots[k])
    different = rs.simulate_root(gauss_family, barrier, 40_000, surf.grid.dt, seed=8)
    assert not np.array_equal(ens.sigma, different.sigma)


def test_determinism_across_the_handoff(gauss_family, gauss_run, monkeypatch, many_cores):
    # five blocks: every run of 2 or 3 threads starts with at least
    # BLOCK_SIZE live paths and hands its narrow tail to the calling thread
    surf, barrier, _ = gauss_run
    M = 4 * sim.BLOCK_SIZE + 123
    real, tails = sim._run_blocks, []

    def spy(run, M, seed, threads):
        def spied(*args):
            if len(args) == 5:      # the calling thread finishes the joined tails
                tails.append(args[4][0].size)
            return run(*args)
        return real(spied, M, seed, threads)

    monkeypatch.setattr(sim, "_run_blocks", spy)
    ens = {threads: rs.simulate_root(gauss_family, barrier, M, surf.grid.dt, seed=13,
                                     snapshot_times=[0.0, 0.25, 0.5, 1.0], threads=threads)
           for threads in (1, 2, 3)}
    assert len(tails) == 2 and all(0 < k < sim.BLOCK_SIZE * 3 for k in tails)
    for other in (ens[2], ens[3]):
        assert np.array_equal(ens[1].x0, other.x0)
        assert np.array_equal(ens[1].sigma, other.sigma)
        assert np.array_equal(ens[1].b_sigma, other.b_sigma, equal_nan=True)
        assert list(ens[1].snapshots) == list(other.snapshots)
        for k in ens[1].snapshots:
            assert np.array_equal(ens[1].snapshots[k], other.snapshots[k])


@pytest.mark.parametrize("M", [1, sim.BLOCK_SIZE, 100_000, 1_000_000])
def test_runs_cover_the_blocks_balanced_by_paths(M):
    blocks = -(-M // sim.BLOCK_SIZE)
    for threads in range(1, 9):
        runs = sim._runs(M, threads)
        assert len(runs) == min(threads, blocks)
        assert runs[0][0] == 0 and runs[-1][1] == blocks
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert all(first < last for first, last in runs)
        paths = [min(last * sim.BLOCK_SIZE, M) - first * sim.BLOCK_SIZE for first, last in runs]
        assert sum(paths) == M and max(paths) - min(paths) <= sim.BLOCK_SIZE, (threads, paths)
    # 49,152 and 50,848 paths, not 65,536 and 34,464
    assert sim._runs(100_000, 2) == [(0, 3), (3, 7)]


def test_one_run_starts_no_pool(monkeypatch, many_cores):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single run started a thread pool")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    h = 0.0025
    barrier = analytic_vertical_barrier(0.3, h, 1.5)
    rs.simulate_root(rs.ScaledFamily(0.0), barrier, 2 * sim.BLOCK_SIZE, h, seed=5, threads=1)
    rs.simulate_root(rs.ScaledFamily(0.0), barrier, sim.BLOCK_SIZE, h, seed=5, threads=4)
    rs.alternative_embedding(2 * sim.BLOCK_SIZE, seed=5, h_sim=h)
    with pytest.raises(AssertionError, match="thread pool"):
        rs.simulate_root(rs.ScaledFamily(0.0), barrier, sim.BLOCK_SIZE + 1, h, seed=5, threads=2)


def test_runs_never_outnumber_the_cores(monkeypatch):
    # --threads 8 on two cores starts two runs, and on one core none on a
    # pool; the paths are the same, since every block has its own stream
    pools, real = [], sim.ThreadPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", pool)
    barrier = linear_ramp(-0.2, 20.0, 1.0)
    ens = {}
    for cores in (2, 1):
        monkeypatch.setattr(sim, "_cores", lambda c=cores: c)
        ens[cores] = rs.simulate_root(rs.ScaledFamily(0.0), barrier, 5 * sim.BLOCK_SIZE, 0.0025,
                                      seed=3, threads=8)
    assert pools == [2]
    assert np.array_equal(ens[1].sigma, ens[2].sigma)
    assert np.array_equal(ens[1].b_sigma, ens[2].b_sigma, equal_nan=True)


# ---------------------------------------------------------------------------
# exact laws of continuous-time stopping

def test_gaussian_stops_lie_on_the_region_boundary(gauss_run):
    # every stop is in the region, and on its boundary: either the region
    # reached B_sigma at sigma itself (a window ending on a face, or an exit
    # through a moving edge), or a position beside B_sigma is still outside
    # it (an edge on a node that had just switched on).  Beside means
    # 2 LATTICE_TOL away: `cell_position` reads a position within LATTICE_TOL
    # of a node as the node, so an exit through a moving edge that close to
    # a node stops on the node
    _, barrier, ens = gauss_run
    r, beside = barrier.r, 2.0 * LATTICE_TOL / barrier.grid.dx
    moving = 0
    for j in range(1, ens.n + 1):
        b, stop = ens.b_sigma[j], ens.sigma[j]
        pos = barrier.cell_position(b)
        reach = barrier.lookup(j, b, pos=pos)
        assert np.all(stop + 1e-12 >= reach), j
        on_face = stop <= reach + 1e-12
        near_edge = ((barrier.lookup(j, b, pos=pos - beside) > stop)
                     | (barrier.lookup(j, b, pos=pos + beside) > stop))
        assert np.all(on_face | near_edge), j
        # inside a sloped cell the boundary moves, and a stop there, through
        # a moving edge or on the face at a window's end, is on b(sigma)
        i = pos.astype(np.int64)
        ends = r[j - 1, i], r[j - 1, i + 1]
        sloped = (pos != i) & np.isfinite(ends[0]) & np.isfinite(ends[1]) & (ends[0] != ends[1])
        assert np.all(np.abs(reach[sloped] - stop[sloped]) <= 1e-12), j
        moving += np.count_nonzero(sloped & (stop > np.minimum(*ends)) & (stop < np.maximum(*ends)))
    assert moving > 1000


def linear_ramp(x0: float, c: float, horizon: float) -> BarrierFamily:
    """One layer whose region at time t is x <= x0 + c t: r = (x - x0) / c
    right of x0, 0 left of it, linear across every cell on the right."""
    grid = rs.SpaceTimeGrid(T=horizon, dt=0.0025, L=10.0, dx=0.05)
    return BarrierFamily(s_values=np.array([1.0]), grid=grid,
                         r=np.maximum((grid.x_nodes() - x0) / c, 0.0)[None, :])


def test_linear_ramp_stop_follows_the_drifted_first_passage_law():
    # from 0 the boundary b(t) = x0 + c t reaches the path when c t - B_t,
    # a Brownian motion with drift c, first hits a = -x0: the Bachelier-Levy
    # law P(sigma <= t) = N((c t - a) / sqrt t) + exp(2 c a) N(-(c t + a) / sqrt t).
    # Moving boxes stop the paths on the moving edge; KS over the
    # uncensored stops with the censored ones above the horizon
    x0, c = -0.2, 20.0
    ens = rs.simulate_root(rs.ScaledFamily(0.0), linear_ramp(x0, c, 1.0), 100_000, 0.0025,
                           seed=1)
    done = ~ens.censored
    stops, values = ens.sigma[1][done], ens.b_sigma[1][done]
    assert np.all(np.abs(values - (x0 + c * stops)) <= 1e-12)
    a = -x0
    t = np.sort(stops)
    cdf = ndtr((c * t - a) / np.sqrt(t)) + np.exp(2.0 * c * a) * ndtr(-(c * t + a) / np.sqrt(t))
    rank = np.arange(1, t.size + 1) / ens.M
    ks = max(float(np.max(rank - cdf)), float(np.max(cdf - rank + 1.0 / ens.M)))
    assert stats.kstwo.sf(ks, ens.M) > 1e-3, ks


def test_gaussian_box_work_stays_bounded(gauss_family, gauss_surface_small, box_work):
    # the paths next to the one-dt ramps of the Gaussian barrier stop in a
    # few moving-box steps: 20 box-step rounds and 5.53 box steps per path
    # here (a rejected moving-box proposal counts as a step), against 51 and
    # 6.54 for a walk on moving spheres that stops paths within 1e-6 dx of
    # the moving boundary
    M = 20_000
    rs.simulate_root(gauss_family, rs.extract(gauss_surface_small), M,
                     gauss_surface_small.grid.dt, seed=3)
    assert box_work.rounds <= 25, box_work.rounds
    assert box_work.steps / M <= 6.0, box_work.steps / M


def _exit_law_ks(ens):
    """One-sample KS distance of sigma_1 from the exit-time law over the
    uncensored stops, with the censored paths counted above the horizon;
    the sup then runs over t <= T only, so kstwo is conservative."""
    stops = np.sort(ens.sigma[1][~ens.censored])
    cdf = exit_time_cdf(stops)
    rank = np.arange(1, stops.size + 1) / ens.M
    return max(float(np.max(rank - cdf)), float(np.max(cdf - rank + 1.0 / ens.M)))


def test_two_atom_stop_time_follows_the_exit_law(two_atom_million):
    # sigma is the exit time of [-1, 1]
    ks = _exit_law_ks(two_atom_million)
    assert stats.kstwo.sf(ks, two_atom_million.M) > 1e-3, ks


def test_two_atom_paths_stop_in_one_round(two_atom_family, two_atom_surface, box_work):
    # the box (-1, 1) between the two levels is free until the horizon, so
    # each path takes one box step: it stops on a level at its exit time, or
    # is censored at T = 7.  sigma follows the exit law, and the censored
    # share is P(tau_1 > 7) = 2.26e-4 within 3 standard errors
    M = 100_000
    ens = rs.simulate_root(two_atom_family, rs.extract(two_atom_surface), M, 1e-3, seed=11)
    assert (box_work.rounds, box_work.steps) == (1, M)
    ks = _exit_law_ks(ens)
    assert stats.kstwo.sf(ks, M) > 1e-3, ks
    tail = 1.0 - exit_time_cdf(ens.horizon)[0]
    assert abs(ens.censored_fraction - tail) <= 3.0 * math.sqrt(tail * (1.0 - tail) / M), \
        (ens.censored_fraction, tail)


def test_two_atom_stops_exactly_on_the_atoms(two_atom_million):
    ens = two_atom_million
    assert np.all(np.abs(ens.b_sigma[1][~ens.censored]) == 1.0)


def test_vertical_barrier_stops_at_its_level():
    # a level off the h_sim grid: every path stops at it, not at a multiple of h
    ens = rs.simulate_root(rs.ScaledFamily(0.0), analytic_vertical_barrier(0.3005, 1e-3, 1.0),
                           5000, 1e-3, seed=5, snapshot_times=[0.3])
    assert np.all(ens.sigma[1] == 0.3005)
    assert not np.array_equal(ens.snapshots[0.3], ens.b_sigma[1])


def test_three_point_stops_sit_on_the_atoms(three_point_run):
    ens = three_point_run
    for j in range(1, ens.n + 1):
        vals = ens.b_sigma[j][~ens.censored]
        assert np.all((vals == -1.0) | (vals == 0.0) | (vals == 1.0)), j


def test_two_atom_mean_stop_is_siegmund_corrected(two_atom_million):
    # with continuous-time stopping the Siegmund correction vanishes:
    # E sigma = E tau_1 = 1 exactly; the paths still running at the horizon
    # T add T plus the mean residual time 8 / pi^2 of the exit time's
    # exponential tail
    ens = two_atom_million
    stops = ens.sigma[1][~ens.censored]
    mean = (stops.sum() + np.count_nonzero(ens.censored)
            * (ens.horizon + 8.0 / math.pi ** 2)) / ens.M
    se = float(stops.std(ddof=1)) / math.sqrt(ens.M)
    assert abs(mean - 1.0) <= 4.0 * se, (mean, se)


# ---------------------------------------------------------------------------
# the exact box step

def test_bridge_survival_matches_fine_monte_carlo():
    # fine bridges from 0 to z, each step weighted by the probability that
    # its own bridge stays inside, (1 - exp(-2 (d - u)(d - v) / dt)) on each
    # side; the two-sided interplay within one step is negligible
    rng = make_stream(3, 0)
    paths, fine = 20_000, 400
    for d, t, z in ((1.0, 1.0, 0.0), (1.0, 1.0, 0.7), (0.5, 0.2, -0.3), (2.0, 1.5, 1.9)):
        dt = t / fine
        grid = np.arange(1, fine) / fine
        walk = np.cumsum(math.sqrt(dt) * rng.standard_normal((paths, fine - 1)), axis=1)
        tail = walk[:, -1:] + math.sqrt(dt) * rng.standard_normal((paths, 1))
        bridge = np.hstack([np.zeros((paths, 1)), walk - grid * tail + grid * z,
                            np.full((paths, 1), z)])
        u, v = bridge[:, :-1], bridge[:, 1:]
        inside = np.all(np.abs(bridge) < d, axis=1)
        stay = np.prod((1.0 - np.exp(-2.0 * np.clip((d - u) * (d - v), 0, None) / dt))
                       * (1.0 - np.exp(-2.0 * np.clip((d + u) * (d + v), 0, None) / dt)),
                       axis=1) * inside
        est, se = stay.mean(), stay.std(ddof=1) / math.sqrt(paths)
        exact = sim._bridge_survival(np.array([z]), np.array([d]), np.array([t]))[0]
        assert abs(est - exact) <= 4.0 * se + 1e-3, (d, t, z, est, exact)


def _killed_cdf(z, d, t):
    """CDF of B_t given no exit from (-d, d) by t, from B_0 = 0 (image series).
    Images up to +-20 keep it within 1e-11 of the eigenfunction series, as a
    share of the surviving mass, for t <= 8 d^2; +-6 missed by 6% at 8 d^2."""
    k = np.arange(-20, 21)[:, None]
    sign = (-1.0) ** k
    mass = (sign * (ndtr((z - 2 * k * d) / math.sqrt(t))
                    - ndtr((-d - 2 * k * d) / math.sqrt(t)))).sum(axis=0)
    return mass / (1.0 - exit_time_cdf(t / d ** 2)[0])


@pytest.mark.parametrize("d, t", [(1.0, 1.0), (1.0, 0.3), (0.2, 0.01), (0.5, 1.0), (0.5, 2.0)])
def test_box_endpoints_follow_the_killed_density(d, t):
    # t = 4 d^2 (0.5, 1.0) is the longest window of a moving box; a fixed
    # box between levels may run longer, t = 8 d^2 (0.5, 2.0)
    z = sim._endpoint_in_box(sim._Streams(8, 1), np.arange(50_000), np.full(50_000, d),
                             np.full(50_000, t))
    assert np.all(np.abs(z) < d)
    assert stats.kstest(z, lambda v: _killed_cdf(np.atleast_1d(v), d, t)).pvalue > 1e-3


def test_box_endpoint_without_time_returns():
    # a row with t = 0 does not move; with d = 0 as well, its acceptance
    # would be nan and reject every proposal.  The call runs on a daemon
    # thread, so a sampler that never returns fails this test, not the suite
    result = []
    worker = threading.Thread(daemon=True, target=lambda: result.append(sim._endpoint_in_box(
        sim._Streams(1, 1), np.array([0, 1]), np.array([0.0, 1.0]), np.array([0.0, 0.5]))))
    worker.start()
    worker.join(timeout=10.0)
    assert result, "_endpoint_in_box did not return within 10 s"
    assert result[0][0] == 0.0 and abs(result[0][1]) < 1.0


def test_box_steps_stop_exactly_on_the_levels(two_atom_family, two_atom_surface):
    # exits through a level edge stop on the level, at a time off the h grid
    h = 1e-3
    ens = rs.simulate_root(two_atom_family, rs.extract(two_atom_surface), 5000, h, 2,
                           snapshot_times=[0.5, 1.5])
    done = np.isfinite(ens.sigma[1])
    assert np.all(np.abs(ens.b_sigma[1][done]) == 1.0)
    steps = ens.sigma[1][done] / h
    assert np.mean(np.abs(steps - np.round(steps)) > 1e-6) > 0.9
    for t, snap in ens.snapshots.items():
        assert np.array_equal(snap[ens.sigma[1] <= t], ens.b_sigma[1][ens.sigma[1] <= t])
        assert np.all(np.abs(snap[ens.sigma[1] > t]) < 1.0)


def _former_onto_nodes(barrier_family, x):
    """The former node snap, which tested the distance to the nearest node
    again and clipped the position again: the reference for `_onto_nodes`."""
    nodes = barrier_family.x_nodes
    pos = barrier_family.cell_position(x)
    i = np.rint(pos)
    near = nodes[i.astype(np.int64)]
    on = np.abs(x - near) <= 1e-9
    return (np.where(on, near, x),
            np.where(on, np.minimum(i, nodes.size - 1.000001), pos))


def test_onto_nodes_matches_the_former_rule():
    # the grid of dx = 0.1, L = 25 that holds x = -23.7, whose quotient
    # x / dx misses its node by an ulp
    grid = rs.SpaceTimeGrid(T=1.0, dt=0.01, L=25.0, dx=0.1)
    xs = grid.x_nodes()
    barrier = BarrierFamily(s_values=np.array([1.0]), grid=grid, r=np.ones((1, xs.size)))
    inner = xs[1:-1]
    cases = [inner + 0.5e-9, inner - 0.5e-9, xs + 2e-9, xs - 2e-9, np.array([-23.7]),
             xs[[0, -1]], np.array([xs[0] - 5.3, xs[-1] + 5.3]),
             np.random.default_rng(5).uniform(xs[0], xs[-1], 100_000)]
    for x in cases:
        got, want = sim._onto_nodes(barrier, x), _former_onto_nodes(barrier, x)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
    # within 1e-9 of an edge node, where `cell_position` clips, the path
    # keeps its place; the former rule moved it onto the node
    x = np.array([xs[0] - 0.5e-9, xs[0] + 0.5e-9, xs[-1] - 0.5e-9, xs[-1] + 0.5e-9])
    got, want = sim._onto_nodes(barrier, x), _former_onto_nodes(barrier, x)
    assert np.array_equal(got[0], x) and np.array_equal(want[0], xs[[0, 0, -1, -1]])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


# ---------------------------------------------------------------------------
# the squeeze bounds of the box step, and the box step without them

def reference_cross_boxes(streams, rows, x, t, d, u, w):
    """`_cross_boxes` on fixed boxes, by masks, with every stay's endpoint
    from `reference_endpoint_in_box`."""
    tau1 = streams.draw(rows, sim._exit_within, u / (d * d))
    left = np.isfinite(tau1)
    new_t = w.copy()
    new_t[left] = np.minimum(t[left] + d[left] ** 2 * tau1[left], w[left])
    side = streams.draw(rows[left], sim._uniforms)
    new_x = np.empty_like(x)
    new_x[left] = x[left] + np.where(side < 0.5, -d[left], d[left])
    stay = ~left
    new_x[stay] = x[stay] + reference_endpoint_in_box(streams, rows[stay], d[stay], u[stay])
    return new_x, new_t


def reference_endpoint_in_box(streams, rows, d, t):
    """`_endpoint_in_box` evaluating its acceptance series on every proposal."""
    z = np.zeros(d.size)
    todo = np.nonzero(t > 0.0)[0]
    while todo.size:
        g = streams.draw(rows[todo], sim._normals)
        v = streams.draw(rows[todo], lambda rng, k: rng.random((2, k)))
        dd, tt = d[todo], t[todo]
        prop, keep = np.sqrt(tt) * g, np.empty(todo.size)
        short = tt < sim._EIGEN_FROM * dd * dd
        keep[short] = sim._bridge_survival(prop[short], dd[short], tt[short])
        long = ~short
        theta = np.arcsin(2.0 * v[0, long] - 1.0)
        prop[long] = (2.0 / math.pi) * dd[long] * theta
        keep[long] = sim._eigen_acceptance(theta, tt[long] / (dd[long] * dd[long]))
        ok = v[1] < keep
        z[todo[ok]] = prop[ok]
        todo = todo[~ok]
    return z


def _survival_cases(d):
    """(z, t) over |z| < d, with |z| up to within 1e-12 of d, and t up to
    d^2 / 2 inclusive."""
    frac_t = np.concatenate([np.linspace(0.0, 0.5, 401)[1:], np.logspace(-4.0, -0.30103, 200)])
    frac_z = np.concatenate([np.linspace(-1.0, 1.0, 2001)[1:-1], 1.0 - np.logspace(-12, -1, 200),
                             -(1.0 - np.logspace(-12, -1, 200)), [0.0]])
    z, t = np.meshgrid(d * frac_z, d * d * frac_t)
    near = np.nextafter(np.full(4, d), 0.0) * np.array([1.0, -1.0, 1.0, -1.0])
    tz = d * d * np.array([0.5, 0.5, 0.01, 0.01])
    return np.concatenate([z.ravel(), near]), np.concatenate([t.ravel(), tz])


@pytest.mark.parametrize("d", [1.0, 0.37, 2.5e-3, 3.1])
def test_survival_floor_is_below_the_bridge_survival(d):
    z, t = _survival_cases(d)
    assert np.all(np.abs(z) < d) and np.all(t <= d * d / 2.0)
    dd = np.full(z.size, d)
    assert np.all(sim._survival_floor(z, dd, t) <= sim._bridge_survival(z, dd, t))
    # at |z| >= d the survival is 0 and the floor decides nothing
    assert np.all(sim._survival_floor(np.array([d, -d, 2 * d]), np.full(3, d),
                                      np.full(3, d * d / 4)) < -1.0)


@given(d=st.floats(1e-3, 10.0), fz=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       ft=st.floats(0.0, 0.5, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_survival_floor_is_below_the_bridge_survival_anywhere(d, fz, ft):
    z, dd, t = np.array([fz * d]), np.array([d]), np.array([ft * d * d])
    if abs(z[0]) < d and t[0] <= d * d / 2.0:
        with np.errstate(all="ignore"):
            assert sim._survival_floor(z, dd, t)[0] <= sim._bridge_survival(z, dd, t)[0]


# window lengths u / d^2 of the box row sets.  mixed: fast boxes (u = d^2 /
# 16), u = 0, u = d^2, windows at and just below d^2 / 2 (where proposals fall
# near +-d), long windows and windows short enough to underflow; fast: fast
# boxes only, every window positive and short, so the box step's rounds read
# their arrays whole; long: long windows only; static: the windows past d^2
# of a box between levels or free ends, up to one whose exit CDF rounds to 1
BOX_ROW_SETS = {"mixed": [1.0 / 16.0, 0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), 0.75, 1e-4,
                          1.0 / 1600.0],
                "fast": [1.0 / 16.0],
                "long": [0.5, 0.75, 1.0],
                "static": [2.0, 8.0, 64.0]}


def _adversarial_box_rows(seed, row_set="mixed"):
    """Rows of a run of three blocks and their fixed boxes (velocity 0),
    with the window lengths of BOX_ROW_SETS[row_set]."""
    rng = make_stream(seed, 99)
    rows = np.sort(rng.choice(3 * sim.BLOCK_SIZE, 12_000, replace=False))
    d = 10.0 ** rng.uniform(-3.0, 0.5, rows.size)
    frac = np.array(BOX_ROW_SETS[row_set])
    u = d * d * frac[np.arange(rows.size) % frac.size]
    x, t = rng.uniform(-3.0, 3.0, rows.size), rng.uniform(0.0, 2.0, rows.size)
    return rows, x, t, d, u, t + u, np.zeros(rows.size)


@pytest.mark.parametrize("seed", [3, 17])
def test_survival_floor_leaves_few_tests_to_the_series(seed, monkeypatch):
    # the floor keeps the box step cheap: on fast boxes it leaves about 1e-4
    # of the proposals to `_bridge_survival` (configs/gaussian.ini: 0.4%)
    rows, _, _, d, u, _, _ = _adversarial_box_rows(seed, "fast")
    proposals, series = [], []
    normals, survival = sim._normals, sim._bridge_survival

    def count_normals(rng, k):
        proposals.append(k)
        return normals(rng, k)

    def count_survival(z, dd, t):
        series.append(z.size)
        return survival(z, dd, t)

    monkeypatch.setattr(sim, "_normals", count_normals)
    monkeypatch.setattr(sim, "_bridge_survival", count_survival)
    sim._endpoint_in_box(sim._Streams(seed, 3), rows, d, u)
    assert sum(proposals) >= rows.size
    assert 0 < sum(series) <= 0.01 * sum(proposals)


def _next_draws(streams):
    # one uniform from every block's stream
    return streams.draw(np.arange(3) * sim.BLOCK_SIZE, sim._uniforms)


@pytest.mark.parametrize("seed", [3, 17])
def test_squeezed_box_step_matches_the_reference(seed):
    for row_set in ("mixed", "static"):
        rows, x, t, d, u, w, v = _adversarial_box_rows(seed, row_set)
        mine, ref = sim._Streams(seed, 3), sim._Streams(seed, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = sim._cross_boxes(mine, rows, x, t, d, u, w, v)
            want = reference_cross_boxes(ref, rows, x, t, d, u, w)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), row_set
        assert np.array_equal(_next_draws(mine), _next_draws(ref)), row_set


@pytest.mark.parametrize("seed", [3, 17])
def test_squeezed_endpoints_match_the_reference(seed):
    rows, _, _, d, u, _, _ = _adversarial_box_rows(seed)
    mine, ref = sim._Streams(seed, 3), sim._Streams(seed, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = sim._endpoint_in_box(mine, rows, d, u)
        want = reference_endpoint_in_box(ref, rows, d, u)
    assert np.array_equal(got, want)
    assert np.array_equal(_next_draws(mine), _next_draws(ref))


# seed 7 draws no exit among the 12,000 fast boxes (P(none) is about 0.2)
@pytest.mark.parametrize("row_set, seed", [("fast", 7), ("long", 3), ("long", 17)])
def test_whole_array_box_rounds_match_the_reference(row_set, seed):
    rows, x, t, d, u, w, v = _adversarial_box_rows(seed, row_set)
    if row_set == "fast":
        # the precondition of the whole-array rounds: no path leaves its box,
        # and every endpoint window is positive and short
        tau1 = sim._Streams(seed, 3).draw(rows, sim._exit_within, u / (d * d))
        assert not np.any(np.isfinite(tau1))
        assert np.all((u > 0.0) & (u < sim._EIGEN_FROM * d * d))
    for step, reference, args in (
            (lambda *a: sim._cross_boxes(*a, v), reference_cross_boxes, (rows, x, t, d, u, w)),
            (sim._endpoint_in_box, reference_endpoint_in_box, (rows, d, u))):
        mine, ref = sim._Streams(seed, 3), sim._Streams(seed, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = step(mine, *args), reference(ref, *args)
        assert np.array_equal(np.asarray(got), np.asarray(want))
        assert np.array_equal(_next_draws(mine), _next_draws(ref))


@pytest.mark.parametrize("row_set", sorted(BOX_ROW_SETS))
def test_fixed_boxes_match_the_reference(row_set):
    # v = 0 on every row: no acceptance draw, a fair exit side, and the
    # driftless step of the reference, bit for bit and draw for draw
    rows, x, t, d, u, w, v = _adversarial_box_rows(5, row_set)
    mine, ref = sim._Streams(5, 3), sim._Streams(5, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = sim._cross_boxes(mine, rows, x, t, d, u, w, v)
        want = reference_cross_boxes(ref, rows, x, t, d, u, w)
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    assert np.array_equal(_next_draws(mine), _next_draws(ref))


def test_negative_snapshot_times_rejected():
    barrier = analytic_vertical_barrier(0.8, 1e-3, 1.0)
    with pytest.raises(ValidationError, match="negative"):
        rs.simulate_root(rs.ScaledFamily(0.0), barrier, 100, 1e-3, seed=1,
                         snapshot_times=[0.5, -0.5])


def test_h_sim_gate(gauss_family, gauss_run):
    _, barrier, _ = gauss_run
    with pytest.raises(ValidationError):
        rs.simulate_root(gauss_family, barrier, 100, 1.0, seed=1)


@pytest.mark.parametrize("h_sim", [0.0, -1e-3], ids=["h_sim zero", "h_sim negative"])
def test_non_positive_monitoring_rejected(h_sim):
    barrier = analytic_vertical_barrier(0.3, 1e-3, 1.0)
    with pytest.raises(ValidationError):
        rs.simulate_root(rs.ScaledFamily(0.0), barrier, 100, h_sim, seed=1)


@pytest.fixture(scope="module")
def off_lattice_snapshot():
    # 0.3337 is a multiple of neither h_sim nor the solver step 1e-3
    barrier = analytic_vertical_barrier(0.8, 1e-3, 1.0)
    return rs.simulate_root(rs.ScaledFamily(0.0), barrier, 20_000, 1e-3, seed=9,
                            snapshot_times=[0.3337])


def test_snapshot_at_the_requested_time(off_lattice_snapshot):
    # every path still runs at 0.3337 < 0.8, so the snapshot is B_0.3337
    ens = off_lattice_snapshot
    snap = ens.snapshots[0.3337]
    assert np.all(ens.sigma[1] == 0.8)
    result = stats.kstest(snap, stats.norm(scale=math.sqrt(0.3337)).cdf)
    assert result.pvalue > 1e-3, result


def test_values_at_reads_only_recorded_times(off_lattice_snapshot):
    ens = off_lattice_snapshot
    assert np.array_equal(ens.values_at(1, 0.3337), ens.snapshots[0.3337])
    with pytest.raises(ValidationError, match="no snapshot recorded at t=0.3"):
        ens.values_at(1, 0.3)


@pytest.mark.parametrize("times, message", [
    ([np.nan], "not a number"), ([1.0 + 1e-6], "beyond the horizon")])
def test_bad_snapshot_times_rejected(times, message):
    barrier = analytic_vertical_barrier(0.8, 1e-3, 1.0)
    with pytest.raises(ValidationError, match=message):
        rs.simulate_root(rs.ScaledFamily(0.0), barrier, 100, 1e-3, seed=1,
                         snapshot_times=times)


def test_snapshot_just_past_the_horizon_reads_it():
    # a time within LATTICE_TOL past T is taken at T, under its own key
    barrier = analytic_vertical_barrier(0.8, 1e-3, 1.0)
    ens = rs.simulate_root(rs.ScaledFamily(0.0), barrier, 100, 1e-3, seed=1,
                           snapshot_times=[1.0, 1.0 + 5e-10])
    assert list(ens.snapshots) == [1.0, 1.0 + 5e-10]
    assert np.array_equal(ens.snapshots[1.0 + 5e-10], ens.b_sigma[1])
    assert np.array_equal(ens.values_at(1, 1.0 + 5e-10), ens.snapshots[1.0])


def test_empty_root_ensemble_rejected():
    # a standard error needs two paths
    barrier = analytic_vertical_barrier(0.3, 1e-3, 1.0)
    for M in (0, 1):
        message = f"M={M} paths; a standard error needs at least 2"
        with pytest.raises(ValidationError, match=message):
            rs.simulate_root(rs.ScaledFamily(0.0), barrier, M, 1e-3, seed=1)


def test_empty_alternative_ensemble_rejected():
    for M in (0, 1):
        message = f"M={M} paths; a standard error needs at least 2"
        with pytest.raises(ValidationError, match=message):
            rs.alternative_embedding(M, seed=1, h_sim=1e-3)


def test_censoring_error(two_atom_family):
    grid = rs.make_grid(two_atom_family, 0.5, 0.1)
    surface = rs.solve_layers(two_atom_family, rs.make_partition(1, "uniform"), grid)
    with pytest.raises(HorizonError, match=f"Root embedding: .* censored at T={grid.T}"):
        rs.simulate_root(two_atom_family, rs.extract(surface), 5000, 1e-3, seed=1)


# ---------------------------------------------------------------------------
# empirical potentials

def test_empirical_potential_time_zero(gauss_run, gauss_family):
    _, _, ens = gauss_run
    probes = np.array([-1.0, 0.0, 2.0])
    emp, se = rs.empirical_potential(ens, 1, 0.0, probes)
    exact = gauss_family.potential(0.0, probes)
    assert np.all(np.abs(emp - exact) <= 4.0 * se)


def test_empirical_potential_matches_solver(gauss_run):
    surf, _, ens = gauss_run
    bias = ens.allowance
    for j in (1, 4):
        for t in (0.25, 0.5, 1.0):
            probes = np.array([-1.0, 0.0, 1.0])
            emp, se = rs.empirical_potential(ens, j, t, probes)
            ref = np.array([surf.value_at(j, t, x) for x in probes])
            assert np.all(np.abs(emp - ref) <= 3.0 * se + bias)


def test_empirical_potential_far_probe(gauss_run):
    _, _, ens = gauss_run
    x_far = 12.0
    emp, se = rs.empirical_potential(ens, 4, 1.0, np.array([x_far]))
    mean_b = ens.values_at(4, 1.0).mean()
    assert emp[0] == pytest.approx(-(x_far - mean_b), abs=1e-9)


def test_empirical_potential_needs_snapshot(gauss_run):
    _, _, ens = gauss_run
    with pytest.raises(ValidationError):
        rs.empirical_potential(ens, 1, 0.1234, np.array([0.0]))


# ---------------------------------------------------------------------------
# marginal fit

def test_marginal_fit_gaussian(gauss_run, gauss_family):
    _, _, ens = gauss_run
    fit = rs.marginal_fit(ens, gauss_family)
    assert fit.passed
    for m in fit.marginals:
        assert m["ks"] <= 0.015
        assert m["potential_distance"] <= 0.02
    assert fit.ui_proxy["passed"]


def test_marginal_fit_three_point(three_point_family):
    part = rs.make_partition(4, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.025)
    surf = rs.solve_layers(three_point_family, part, grid, keep_times=[0.0, grid.T])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(three_point_family, barrier, 50_000, grid.dt, seed=11, threads=2)
    fit = rs.marginal_fit(ens, three_point_family)
    for m in fit.marginals:
        p = three_point_family.p(m["s"])
        assert abs(m["atom_masses"][1] - (1 - 2 * p)) <= 0.01
        assert m["atom_mass_error"] <= 0.01
        assert m["passed"]


# ---------------------------------------------------------------------------
# optimality functional

def test_monotone_poly_validation():
    with pytest.raises(ValidationError):
        rs.MonotonePiecewisePoly.poly(1.0, -1.0)      # decreasing
    with pytest.raises(ValidationError):
        rs.MonotonePiecewisePoly.poly(-0.5)           # negative
    f = rs.MonotonePiecewisePoly.poly(0.5, 1.0)
    assert np.array_equal(f(np.array([0.5, 2.0])), [1.0, 2.5])


def test_antiderivative_against_quadrature():
    f = rs.MonotonePiecewisePoly.poly(0.5, 1.0, 2.0)
    for t in (0.3, 1.0, 2.7):
        oracle, _ = integrate.quad(lambda u: f(np.array([u]))[0], 0.0, t, epsabs=1e-12)
        assert f.antiderivative(np.array([t]))[0] == pytest.approx(oracle, abs=1e-10)


def test_root_functional_exact(gauss_family):
    fam = rs.ScaledFamily(0.0)
    h = 0.0025
    barrier = analytic_vertical_barrier(1.0, h, 1.5)
    ens = rs.simulate_root(fam, barrier, 5000, h, seed=3)
    assert np.all(ens.sigma[1] == 1.0)
    est, se = rs.optimality_functional(ens, rs.MonotonePiecewisePoly.poly(0.0, 1.0))
    assert est == 0.5 and se == 0.0


def test_functional_rejects_non_poly(gauss_run):
    _, _, ens = gauss_run
    with pytest.raises(ValidationError):
        rs.optimality_functional(ens, lambda t: t)


def _ensemble_with_censored(M: int, censored: int, horizon: float) -> rs.PathEnsemble:
    stops = np.linspace(0.1, 0.9 * horizon, M)
    stops[:censored] = np.inf
    return rs.PathEnsemble(h_sim=1e-3, horizon=horizon,
                           s_values=np.array([1.0]), x0=np.zeros(M),
                           sigma=np.vstack([np.full(M, np.inf), stops]),
                           b_sigma=np.vstack([np.full(M, np.nan), np.zeros(M)]),
                           snapshots={})


def test_functional_counts_censored_paths_at_the_horizon():
    # 5 of 10^4 censored, under the tolerated fraction: each contributes
    # the integral of f up to the horizon, a lower bound of its own value
    ens = _ensemble_with_censored(10_000, 5, horizon=2.0)
    assert 0.0 < ens.censored_fraction <= CENSOR_FRACTION
    est, se = rs.optimality_functional(ens, rs.MonotonePiecewisePoly.poly(0.0, 1.0))
    clipped = np.minimum(ens.sigma[1], 2.0)
    assert est == pytest.approx(float((clipped ** 2 / 2).mean()), rel=1e-14)
    assert se == pytest.approx(float((clipped ** 2 / 2).std(ddof=1)) / 100.0, rel=1e-12)


def test_functional_rejects_censoring_above_tolerance():
    ens = _ensemble_with_censored(10_000, 11, horizon=2.0)
    assert ens.censored_fraction > CENSOR_FRACTION
    with pytest.raises(HorizonError, match="optimality functional: .* censored at T=2.0"):
        rs.optimality_functional(ens, rs.MonotonePiecewisePoly.poly(1.0))


# ---------------------------------------------------------------------------
# alternative embedding (smoke scale; pinned-scale checks live in acceptance)

def test_alternative_embedding_smoke():
    ens = rs.alternative_embedding(4000, seed=21, h_sim=1e-3, horizon=120.0)
    est, se = rs.optimality_functional(ens, rs.MonotonePiecewisePoly.poly(1.0))
    assert est == pytest.approx(1.0, abs=5 * se + 0.1)
    est_t, se_t = rs.optimality_functional(ens, rs.MonotonePiecewisePoly.poly(0.0, 1.0))
    assert est_t == pytest.approx(2.5, abs=5 * se_t + 0.3)
    again = rs.alternative_embedding(4000, seed=21, h_sim=1e-3, horizon=120.0)
    assert np.array_equal(ens.sigma, again.sigma)
    assert np.array_equal(ens.b_sigma, again.b_sigma, equal_nan=True)


def test_alternative_stops_at_the_drawn_level():
    # block b draws its levels G and then its exit times from stream (seed,
    # b); sigma = G^2 tau_1 and B_sigma = G on every uncensored path
    M, block, seed, horizon = 20_000, sim.BLOCK_SIZE, 4, 25.0
    ens = rs.alternative_embedding(M, seed, h_sim=1e-3, horizon=horizon)
    level, tau = np.empty(M), np.empty(M)
    for b, lo in enumerate(range(0, M, block)):
        rng = make_stream(seed, b)
        hi = min(lo + block, M)
        level[lo:hi] = rng.standard_normal(hi - lo)
        tau[lo:hi] = sim._exit_time(rng, hi - lo)
    done = ~ens.censored
    assert 0 < np.count_nonzero(ens.censored) <= CENSOR_FRACTION * M
    assert np.array_equal(ens.b_sigma[1][done], level[done])
    assert np.array_equal(ens.sigma[1][done], (level * level * tau)[done])
    assert np.all((level * level * tau)[ens.censored] > horizon)


# ---------------------------------------------------------------------------
# exact exit times

def test_exit_time_series_agree_at_the_switch():
    # the oracle's two routes to the exit-time CDF, around t = 1 where it
    # switches from one to the other
    t = np.linspace(0.5, 2.0, 301)
    assert np.abs(reflection_cdf(t) - theta_cdf(t)).max() <= 1e-14


@pytest.fixture(scope="module")
def exit_times():
    return sim._exit_time(make_stream(5, 0), 1_000_000)


def test_exit_time_draws_follow_the_exit_law(exit_times):
    # a rejected proposal goes back to the choice of envelope piece, so the
    # draws follow the law itself, tail and head alike
    ks = sim.ks_statistic(exit_time_cdf(np.sort(exit_times)))
    assert stats.kstwo.sf(ks, exit_times.size) > 1e-3, ks


def test_exit_time_moments(exit_times):
    # E tau_1 = 1 and E tau_1^2 = 5/3 for the exit time of [-1, 1]
    for k, exact in ((1, 1.0), (2, 5.0 / 3.0)):
        moment = exit_times ** k
        se = float(moment.std(ddof=1)) / math.sqrt(exit_times.size)
        assert abs(float(moment.mean()) - exact) <= 4.0 * se, k


# short windows (one uniform per row, a Levy proposal under its mass), up to
# the split 0.64, and long windows (a whole draw)
@pytest.mark.parametrize("r", [1.0 / 16.0, 0.3, 0.55, 0.64, 0.65, 2.0, 7.0])
def test_exit_within_leaves_with_the_exit_probability(r):
    # the share of rows that leave is P(tau_1 < r) within 4 standard errors,
    # and the exit times given a leave follow the law conditioned on it
    M = 1_000_000
    tau = sim._exit_within(make_stream(11, 0), M, np.full(M, r))
    leave = np.isfinite(tau)
    p = float(exit_time_cdf(r)[0])
    assert abs(leave.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / M), (leave.mean(), p)
    assert np.all(tau[leave] < r)
    ks = sim.ks_statistic(exit_time_cdf(np.sort(tau[leave])) / p)
    assert stats.kstwo.sf(ks, np.count_nonzero(leave)) > 1e-3, ks


def test_exit_within_stays_without_a_window():
    # r = 0 (no time) and r = nan (a box of radius 0 and no time) stay, and
    # so does a window too short to leave in as a float
    tau = sim._exit_within(make_stream(3, 0), 4, np.array([0.0, np.nan, 5e-324, 1e-300]))
    assert np.all(np.isinf(tau))


# ---------------------------------------------------------------------------
# continuity of the stopping clock

def continuity_check(family, ensemble, s_anchor: float = 0.5,
                     deltas=(1 / 8, 1 / 16, 1 / 32)) -> dict:
    """Estimate E[sigma_s - sigma_(s-delta)] for shrinking delta.

    The anchor and every s - delta must be layer indices of the ensemble.
    The differences must head to zero: each estimate should drop below its
    predecessor plus joint noise.
    """
    svals = ensemble.s_values
    assumption = rs.assumption_check(family)

    def layer_of(s):
        idx = np.nonzero(np.abs(svals - s) <= 1e-12)[0]
        if idx.size == 0:
            raise ValidationError(f"s={s} is not a simulated layer index")
        return int(idx[0]) + 1

    j_hi = layer_of(s_anchor)
    rows = []
    for d in deltas:
        j_lo = layer_of(s_anchor - d)
        diff = ensemble.sigma[j_hi] - ensemble.sigma[j_lo]
        diff = diff[~ensemble.censored]
        est = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(diff.size)) if diff.size > 1 else 0.0
        rows.append({"delta": float(d), "mean": est, "stderr": se})
    decreasing = all(rows[i + 1]["mean"] <= rows[i]["mean"]
                     + 3.0 * (rows[i]["stderr"] + rows[i + 1]["stderr"]) + 1e-12
                     for i in range(len(rows) - 1))
    toward_zero = rows[-1]["mean"] <= rows[0]["mean"] + 3.0 * (
        rows[0]["stderr"] + rows[-1]["stderr"]) and rows[-1]["mean"] >= -3.0 * rows[-1]["stderr"]
    return {"anchor": s_anchor, "rows": rows, "decreasing": decreasing,
            "toward_zero": toward_zero,
            "assumption_satisfied": assumption.satisfied}


def test_continuity_gaussian(gauss_family):
    part = rs.make_partition(32, "uniform")
    grid = rs.make_grid(gauss_family, 1.25, 0.1)
    surf = rs.solve_layers(gauss_family, part, grid, keep_times=[0.0, 1.25])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(gauss_family, barrier, 20_000, grid.dt, seed=13)
    rep = continuity_check(gauss_family, ens)
    assert rep["assumption_satisfied"]
    assert rep["decreasing"] and rep["toward_zero"]
    for row in rep["rows"]:
        # vertical barriers: the increment equals delta up to the barrier's dt steps
        assert row["mean"] == pytest.approx(row["delta"], abs=5 * grid.dt + 0.01)


def test_continuity_constant(constant_family):
    part = rs.make_partition(32, "uniform")
    grid = rs.make_grid(constant_family, 1.0, 0.1)
    surf = rs.solve_layers(constant_family, part, grid, keep_times=[0.0, 1.0])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(constant_family, barrier, 2000, grid.dt, seed=2)
    rep = continuity_check(constant_family, ens)
    for row in rep["rows"]:
        assert row["mean"] == 0.0


def test_continuity_three_point(three_point_family):
    part = rs.make_partition(32, "uniform")
    grid = rs.make_grid(three_point_family, 3.0, 0.05)
    surf = rs.solve_layers(three_point_family, part, grid, keep_times=[0.0, 3.0])
    barrier = rs.extract(surf)
    ens = rs.simulate_root(three_point_family, barrier, 20_000, 1e-3, seed=17)
    rep = continuity_check(three_point_family, ens)
    assert rep["decreasing"]
