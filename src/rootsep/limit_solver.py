"""Full-marginal potential surface as a refinement limit of layer solves.

The layered solver runs on a ladder of partitions (n0, 2 n0, 4 n0, ...) with
the space step halved alongside, each level evaluated on one fixed (s, t, x)
lattice chosen from the coarsest grid so that every level shares the lattice
nodes exactly.  Values at lattice s between partition
points use the piecewise-constant extension u(s) := u(s_j) for
s in (s_{j-1}, s_j].  Cauchy differences between consecutive levels gate the
refinement; they must decrease or the run aborts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .grid import SpaceTimeGrid, lattice_index, make_grid, make_partition, refine
from .marginals import AssumptionReport, MarginalFamily, assumption_check
from .stop_solver import ValueSurface, solve_layers
from .tolerances import PDE_C

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass
class LimitSurface:
    lattice_s: np.ndarray
    lattice_t: np.ndarray
    lattice_x: np.ndarray
    values: np.ndarray              # (ns, nt, nx) finest-level values
    history: list                   # per-level refinement records
    style: str
    family_desc: dict
    ladder: dict                    # solve_limit arguments that fix the levels
    finest: ValueSurface            # the finest level's solve
    assumption: AssumptionReport

    @property
    def outside_assumptions(self) -> bool:
        return not self.assumption.satisfied

    @property
    def cauchy_history(self) -> list:
        return [h["cauchy_diff"] for h in self.history if h["cauchy_diff"] is not None]

    @property
    def tol(self) -> float:
        return self.finest.tol


def _extension_index(points: np.ndarray, s: float) -> int:
    """Layer index of the piecewise-constant extension at index s."""
    return int(np.searchsorted(points, s, side="left"))


def _lattice_values(surface: ValueSurface, lattice_s, lattice_x) -> np.ndarray:
    pts = surface.partition.points
    grid = surface.grid
    xi = lattice_index(lattice_x, grid.dx, surface.x_nodes()[0], grid.nx, "lattice x")
    out = np.empty((len(lattice_s), surface.t_kept.size, len(lattice_x)))
    for a, s in enumerate(lattice_s):
        j = _extension_index(pts, float(s))
        out[a] = surface.layers[j][:, xi]
    return out


def default_lattice(grid_coarse: SpaceTimeGrid, n0: int):
    """Evaluation lattice sliced from the coarsest grid: uniform s values,
    roughly eighth-of-horizon t values, x nodes with |x| <= 4."""
    lattice_t = grid_coarse.t_nodes()[grid_coarse.eighth_rows()]
    xs = grid_coarse.x_nodes()
    lattice_x = xs[np.abs(xs) <= 4.0 + 1e-12]
    lattice_s = np.linspace(0.0, 1.0, n0 + 1)
    return lattice_s, lattice_t, lattice_x


def ladder_levels(family: MarginalFamily, T: float, dx: float, n0: int, levels: int,
                  style: str = "uniform"):
    """The coarsest grid and the (partition, grid) pair of each ladder level.

    Level k solves n0 2^k layers on the space step dx 2^(levels-1-k), with
    the coarsest grid's horizon and domain, so the partition and the space
    step refine together.  A family whose marginals never change gets one
    level on dx: the obstacle never binds and every level reproduces U(0, .).
    """
    if levels < 1:
        raise ValidationError("need at least one refinement level")
    dx_steps = [dx * 2 ** (levels - 1 - k) for k in range(levels)]
    coarse = make_grid(family, T, dx_steps[0])
    x_probe = np.linspace(-coarse.L, coarse.L, 33)
    du_total = float(np.abs(family.potential(1.0, x_probe)
                            - family.potential(0.0, x_probe)).max())
    if du_total < 1e-14:
        dx_steps = dx_steps[-1:]
    parts = [make_partition(n0, style)]
    while len(parts) < len(dx_steps):
        parts.append(refine(parts[-1]))
    # share the coarse level's rounded horizon so kept rows exist everywhere
    return coarse, [(part, make_grid(family, coarse.T, dx_k, L=coarse.L))
                    for part, dx_k in zip(parts, dx_steps)]


def solve_limit(family: MarginalFamily, T: float, dx: float, n0: int, levels: int,
                style: str = "uniform") -> LimitSurface:
    """Refine the layered solve until the finest level (n0 2^(levels-1), dx).

    dx is the finest space step; coarser levels use dx 2^(levels-1-k), so
    the Cauchy contraction reflects the joint limit (`ladder_levels`).  Every
    level is read on `default_lattice` of the coarsest grid, which does not
    depend on the partition style.
    """
    grid_coarse, ladder = ladder_levels(family, T, dx, n0, levels, style)
    report = assumption_check(family)
    lattice_s, lattice_t, lattice_x = default_lattice(grid_coarse, n0)

    history = []
    prev_vals = None

    for part, grid_k in ladder:
        t0 = time.perf_counter()
        surface = solve_layers(family, part, grid_k, keep_times=lattice_t)
        vals = _lattice_values(surface, lattice_s, lattice_x)
        ms = (time.perf_counter() - t0) * 1e3
        cauchy = None if prev_vals is None else float(np.abs(vals - prev_vals).max())
        # the sign of refinement increments is recorded, never asserted:
        # nothing guarantees nested-partition monotonicity of the layers
        sign_lo = None if prev_vals is None else float((vals - prev_vals).min())
        sign_hi = None if prev_vals is None else float((vals - prev_vals).max())
        entry = {"n": part.n, "mesh": part.mesh, "dx": grid_k.dx, "dt": grid_k.dt,
                 "cauchy_diff": cauchy, "increment_min": sign_lo,
                 "increment_max": sign_hi,
                 "pde_residual_max": max((st.pde_max for st in surface.layer_stats),
                                         default=0.0),
                 "runtime_ms": ms}
        history.append(entry)
        if cauchy is not None and len(history) >= 3:
            prev_c = history[-2]["cauchy_diff"]
            if prev_c is not None and cauchy >= prev_c and cauchy > 1e-12:
                raise NonConvergenceError(
                    f"cauchy difference stalled: {prev_c:.3e} -> {cauchy:.3e} at n={part.n}")
        prev_vals = vals

    return LimitSurface(lattice_s=lattice_s, lattice_t=lattice_t, lattice_x=lattice_x,
                        values=prev_vals, history=history, style=style,
                        family_desc=family.descriptor(),
                        ladder={"T": T, "dx": dx, "n0": n0, "levels": levels},
                        finest=surface, assumption=report)


def pde_residual(limit: LimitSurface) -> dict:
    """Largest discrete residual of the variational inequality on the finest
    level: min(backward-time heat residual, backward-s obstacle rate)."""
    per_level = [h["pde_residual_max"] for h in limit.history]
    worst = 0.0
    loc = (0.0, 0.0, 0.0)
    finest = limit.finest
    for st in finest.layer_stats:
        if st.pde_max > worst:
            worst = st.pde_max
            loc = (st.s_val, *st.pde_loc)
    g = finest.grid
    bound = PDE_C * (g.dx + g.dt + finest.partition.mesh)
    return {"max": worst, "location": loc, "per_level": per_level,
            "bound": bound, "passed": worst <= bound}


def bounds_check(limit: LimitSurface, family: MarginalFamily) -> dict:
    """Linear-growth sandwich on every lattice node.

    The running value dominates the potential of (mu_0 convolved with a
    t-variance Gaussian), which itself sits above the linear floor
    U(0,0) - |x| - sqrt(t) E|N(0,1)|.  For a point-mass start the middle
    term is the plain Gaussian potential of variance t.  From above, values
    never exceed the initial potential, and layers fall with s.  Both
    one-sided checks allow twice the finest scheme tolerance.
    """
    tol = 2.0 * limit.tol
    t = limit.lattice_t
    x = limit.lattice_x
    u = limit.values
    U0 = family.potential(0.0, x)
    u00 = float(np.asarray(family.potential(0.0, np.array([0.0])))[0])
    conv = np.stack([family.initial_gaussian_floor(float(tv), x) for tv in t])
    analytic_floor = u00 - np.abs(x)[None, :] - np.sqrt(t)[:, None] * _SQRT_2_OVER_PI
    viol_floor = float(np.maximum(analytic_floor - conv, 0.0).max())
    viol_lower = float(np.maximum(conv[None, :, :] - tol - u, 0.0).max())
    viol_mono = float(np.maximum(u[1:] - u[:-1] - 1e-9, 0.0).max()) if u.shape[0] > 1 else 0.0
    viol_upper = float(np.maximum(u - U0[None, None, :] - tol, 0.0).max())
    worst = max(viol_floor, viol_lower, viol_mono, viol_upper)
    return {"passed": worst <= 0.0, "tol": tol,
            "floor_violation": viol_floor, "lower_violation": viol_lower,
            "monotonicity_violation": viol_mono, "upper_violation": viol_upper,
            "max_violation": worst}


def regularity_report(limit: LimitSurface) -> dict:
    """Lattice Lipschitz/Hoelder diagnostics of the limit surface."""
    u = limit.values
    s, t, x = limit.lattice_s, limit.lattice_t, limit.lattice_x
    dx = np.diff(x)
    x_ratio = float((np.abs(np.diff(u, axis=2)) / dx[None, None, :]).max())

    t_ratio = 0.0
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            gap = math.sqrt(t[b] - t[a])
            if gap == 0.0:
                continue
            t_ratio = max(t_ratio, float(np.abs(u[:, b, :] - u[:, a, :]).max()) / gap)

    if len(s) > 1:
        ds = np.diff(s)
        s_inc = float((u[1:] - u[:-1]).max())
        s_rate = np.abs(u[1:] - u[:-1]) / ds[:, None, None]
        s_rate_max = float(s_rate.max())
        report = limit.assumption
        if report.growth_degree is not None:
            envelope = report.envelope_constant * (1.0 + np.abs(x) ** report.growth_degree)
            env_ok = bool(np.all(s_rate.max(axis=(0, 1)) <= envelope + 1e-9))
        else:
            env_ok = None
    else:
        s_inc, s_rate_max, env_ok = 0.0, 0.0, True

    return {"x_lipschitz_ratio": x_ratio, "t_holder_ratio": t_ratio,
            "s_increment_max": s_inc, "s_rate_max": s_rate_max,
            "s_rate_under_envelope": env_ok, "tol": limit.tol}


def partition_independence(family: MarginalFamily, uniform: LimitSurface) -> dict:
    """Compare a solved uniform-seeded refinement limit with the
    geometric-seeded one.

    Only the geometric ladder is solved, with the uniform ladder's arguments
    (horizon, space step, n0, levels).  Both ladders share their coarsest
    grid, hence their lattice.  The limits must agree up to the two finest
    Cauchy differences plus twice the finest scheme tolerance.
    """
    if uniform.style != "uniform":
        raise ValidationError("partition independence compares against a uniform ladder")
    if family.descriptor() != uniform.family_desc:
        raise ValidationError("family does not match the solved surface")
    geo = solve_limit(family, **uniform.ladder, style="geometric")
    dist = float(np.abs(uniform.values - geo.values).max())
    cauchy_u = uniform.cauchy_history[-1] if uniform.cauchy_history else 0.0
    cauchy_g = geo.cauchy_history[-1] if geo.cauchy_history else 0.0
    bound = cauchy_u + cauchy_g + 2.0 * uniform.tol
    return {"sup_distance": dist, "bound": bound, "passed": dist <= bound,
            "uniform": uniform, "geometric": geo}
