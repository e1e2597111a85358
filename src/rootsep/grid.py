"""Partitions of the marginal index interval and space-time solver grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetError, ValidationError
from .tolerances import LATTICE_TOL

NODE_BUDGET = 50_000_000
GEOMETRIC_RATIO = 1.2


@dataclass(frozen=True)
class Partition:
    """Ordered mesh 0 = s_0 < ... < s_n = 1 of the marginal index interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("partition needs at least the two endpoints")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValidationError("partition endpoints must be exactly 0 and 1")
        if np.any(np.diff(pts) <= 0):
            raise ValidationError("partition points must be strictly increasing")

    @property
    def n(self) -> int:
        return self.points.size - 1

    @property
    def mesh(self) -> float:
        return float(np.diff(self.points).max())


def lattice_index(values, step: float, origin: float, count: int, what: str,
                  step_name: str = "dx") -> np.ndarray:
    """Index k in 0..count of each value on the lattice origin + k * step.

    The one rule for reading values as grid points: a value within
    LATTICE_TOL of its lattice point reads as that point.  Raises
    ValidationError for a value that is not finite, lies farther off the
    lattice, or whose index is negative or above count.
    """
    v = np.asarray(values, dtype=float)
    k = np.round((v - origin) / step)
    for bad, why in ((~(np.abs(origin + k * step - v) <= LATTICE_TOL),
                      f"off the grid ({step_name}={step:g})"),
                     (k < 0, "outside the grid: its index is negative"),
                     (k > count, f"outside the grid: its index is above {count}")):
        if bad.any():
            raise ValidationError(f"{what}={v[bad].flat[0]:.12g} is {why}")
    return k.astype(np.int64)


def make_partition(n: int, style: str = "uniform") -> Partition:
    """Uniform points j/n, or gaps proportional to 1.2^j for `geometric`."""
    if n < 1:
        raise ValidationError("partition size must be >= 1")
    if style == "uniform":
        return Partition(np.linspace(0.0, 1.0, n + 1))
    if style == "geometric":
        gaps = GEOMETRIC_RATIO ** np.arange(n, dtype=float)
        pts = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
        pts[-1] = 1.0
        return Partition(pts)
    raise ValidationError(f"unknown partition style {style!r}")


def refine(partition: Partition) -> Partition:
    """Insert the midpoint of every gap; the mesh halves exactly."""
    pts = partition.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    return Partition(np.sort(np.concatenate([pts, mids])))


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Explicit-scheme grid: time step dt = lam * dx^2 with lam <= 1."""

    T: float
    dt: float
    L: float
    dx: float

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0 or self.L <= 0 or self.dx <= 0:
            raise ValidationError("grid parameters must be positive")
        if self.lam > 1.0 + 1e-12:
            raise ValidationError(f"parabolic ratio {self.lam} exceeds 1; scheme not monotone")

    @property
    def lam(self) -> float:
        return self.dt / self.dx ** 2

    @property
    def nt(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def nx(self) -> int:
        return int(round(2.0 * self.L / self.dx))

    def t_nodes(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def eighth_rows(self) -> np.ndarray:
        """Time-row indices nearest to 0, T/8, ..., T, without repeats."""
        return np.unique(np.round(np.linspace(0.0, self.T, 9) / self.dt).astype(int))

    def x_nodes(self) -> np.ndarray:
        # (k - center) * dx keeps node floats identical across ladders whose
        # steps differ by powers of two
        return (np.arange(self.nx + 1) - self.nx // 2) * self.dx

    def descriptor(self) -> dict:
        return {"T": self.T, "dt": self.dt, "L": self.L, "dx": self.dx, "lam": self.lam}


DAMPED_LAMBDA = 0.8


def make_grid(family, T: float, dx: float, *, L: float | None = None) -> SpaceTimeGrid:
    """Grid wide enough for the family plus a 3 sqrt(T) diffusion margin.

    L defaults to max_s support_radius(s) + 3 sqrt(T), rounded up to a grid
    node.  dt = lam * dx^2 with lam = 1 (symmetric random-walk average),
    except when the initial law mu_0 has atoms (a point start included): its
    kinked data would keep an undamped checkerboard mode at lam = 1, so lam
    is the damped ratio 0.8.  A grid with any other lam <= 1 is built
    directly as a `SpaceTimeGrid`.
    """
    if not (0.0 < T < math.inf and 0.0 < dx < math.inf):
        raise ValidationError("grid requires finite T > 0 and dx > 0")
    lam = DAMPED_LAMBDA if family.law(0.0).positions.size else 1.0
    if L is None:
        radius = max(family.support_radius(s) for s in np.linspace(0.0, 1.0, 21))
        L = radius + 3.0 * math.sqrt(T)
    L = math.ceil(L / dx - 1e-12) * dx
    dt = lam * dx * dx
    nt = math.ceil(T / dt - 1e-12)
    grid = SpaceTimeGrid(T=nt * dt, dt=dt, L=L, dx=dx)
    nodes = (grid.nt + 1) * (grid.nx + 1)
    if nodes > NODE_BUDGET:
        raise GridBudgetError(
            f"grid has {grid.nt + 1} x {grid.nx + 1} = {nodes} nodes, budget {NODE_BUDGET}")
    return grid
