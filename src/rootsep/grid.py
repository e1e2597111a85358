"""Partitions of the marginal index interval and space-time solver grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetError, ValidationError

DEFAULT_NODE_BUDGET = 50_000_000
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

    def gaps(self) -> np.ndarray:
        return np.diff(self.points)


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

    def x_nodes(self) -> np.ndarray:
        # (k - center) * dx keeps node floats identical across ladders whose
        # steps differ by powers of two
        return (np.arange(self.nx + 1) - self.nx // 2) * self.dx

    def descriptor(self) -> dict:
        return {"T": self.T, "dt": self.dt, "L": self.L, "dx": self.dx, "lam": self.lam}


DAMPED_LAMBDA = 0.8


def make_grid(family, T: float, dx: float, *, L: float | None = None,
              lam: float | None = None, binary_steps: bool = False,
              node_budget: int = DEFAULT_NODE_BUDGET) -> SpaceTimeGrid:
    """Grid wide enough for the family plus a 3 sqrt(T) diffusion margin.

    L defaults to max_s support_radius(s) + 3 sqrt(T), rounded up to a grid
    node.  dt = lam * dx^2; lam defaults to 1 (symmetric random-walk
    average), except when the initial law mu_0 has atoms (a point start
    included): its kinked data would keep an undamped checkerboard mode at
    lam = 1, so it defaults to the damped ratio 0.8.  With binary_steps the
    space step is snapped to the nearest power of two so every node is an
    exact binary fraction.
    """
    if T <= 0 or dx <= 0:
        raise ValidationError("grid requires T > 0 and dx > 0")
    if binary_steps:
        dx = 2.0 ** round(math.log2(dx))
    if lam is None:
        lam = DAMPED_LAMBDA if family.law(0.0).positions.size else 1.0
    if not 0.0 < lam <= 1.0:
        raise ValidationError("parabolic ratio must lie in (0, 1]")
    if L is None:
        radius = max(family.support_radius(s) for s in np.linspace(0.0, 1.0, 21))
        L = radius + 3.0 * math.sqrt(T)
    L = math.ceil(L / dx - 1e-12) * dx
    dt = lam * dx * dx
    nt = math.ceil(T / dt - 1e-12)
    grid = SpaceTimeGrid(T=nt * dt, dt=dt, L=L, dx=dx)
    nodes = (grid.nt + 1) * (grid.nx + 1)
    if nodes > node_budget:
        raise GridBudgetError(
            f"grid has {grid.nt + 1} x {grid.nx + 1} = {nodes} nodes, budget {node_budget}")
    return grid
