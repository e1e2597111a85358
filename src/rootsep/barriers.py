"""Barrier extraction from solved layer surfaces.

A discrete stopping region is summarized by the first-hit curve
r_j(x) = first time the node column x is stopped in layer j, with a +inf
sentinel for columns never stopped before the horizon.  First-hit curves are
right-barriers by construction; nodes that leave the region again after the
first hit are numerical noise, counted and overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtractionUnstableError
from .grid import SpaceTimeGrid
from .io import _fmt_all
from .stop_solver import SENTINEL, ValueSurface
from .tolerances import EXTRACT_FLAG_FRACTION, LATTICE_TOL


@dataclass
class BarrierFamily:
    """Per-layer first-stopped times r_j on the space nodes of the solve's
    grid (inf: beyond horizon)."""

    s_values: np.ndarray          # layer indices s_1..s_n
    grid: SpaceTimeGrid
    r: np.ndarray                 # (n, nx+1), +inf sentinel

    _HUGE = 1e18   # stands in for the +inf sentinel during interpolation

    @property
    def n(self) -> int:
        return len(self.s_values)

    def __post_init__(self):
        self.x_nodes = self.grid.x_nodes()      # the nodes r is given on
        self._dx = self.grid.dx
        self._center = self.grid.nx // 2
        # the sparse range-min tables T[j - 1, k, i] = min of layer j's
        # clamped times over nodes i .. i + 2^k - 1, whose rows k = 0 are the
        # interpolation tables, flattened; and per layer the nearest finite
        # node at or after and at or before each node (n and -1 for none),
        # flattened the same way, so that every query takes a layer array
        fin = np.isfinite(self.r)
        clamped = np.where(fin, self.r, self._HUGE)
        n = clamped.shape[1]
        self._levels = max(1, int(np.log2(max(n, 2))) + 1)
        T = np.full((clamped.shape[0], self._levels, n), self._HUGE)
        T[:, 0] = clamped
        for k in range(1, self._levels):
            span, half = 1 << k, 1 << (k - 1)
            m = n - span + 1
            if m <= 0:
                break
            T[:, k, :m] = np.minimum(T[:, k - 1, :m], T[:, k - 1, half:half + m])
        self._table = T.ravel()
        idx = np.arange(n)
        self._finite = {
            1: np.minimum.accumulate(np.where(fin, idx, n)[:, ::-1], axis=1)[:, ::-1].ravel(),
            -1: np.maximum.accumulate(np.where(fin, idx, -1), axis=1).ravel()}

    def cell_position(self, x) -> np.ndarray:
        """Position of x in node units, node i at i.

        x / dx + nx // 2, as `SpaceTimeGrid.x_nodes` places the nodes.  That
        quotient can miss a node by an ulp (x = -23.7 at dx = 0.1 lands
        2.8e-14 below it), so a position within LATTICE_TOL of a node, the
        tolerance of `grid.lattice_index`, is put on it.  Clipped to
        [0, nx - 1e-6], so that positions past the grid read its edge cell.
        """
        # in place: this runs on every box step
        pos = np.divide(x, self._dx, out=np.empty(np.shape(x)))
        pos += self._center
        off = np.rint(pos, out=np.empty_like(pos))
        off -= pos
        np.abs(off, out=off)
        np.rint(pos, out=pos, where=off <= LATTICE_TOL / self._dx)
        np.maximum(pos, 0.0, out=pos)
        return np.minimum(pos, len(self.x_nodes) - 1.000001, out=pos)

    def node_min(self, j, lo, hi) -> np.ndarray:
        """Minimum of layer j's barrier times over the nodes lo..hi (j may be
        an array, one layer per span).

        Node indices past either end of the grid read its edge node."""
        n = self.r.shape[1]
        lo = np.minimum(np.maximum(lo, 0), n - 1)
        hi = np.minimum(np.maximum(hi, 0), n - 1)
        k = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1      # floor(log2(length))
        k = np.minimum(np.maximum(k, 0), self._levels - 1)
        base = ((np.asarray(j) - 1) * self._levels + k) * n
        left = np.take(self._table, base + lo)
        right = np.take(self._table, base + hi - (1 << k) + 1)
        return np.minimum(left, right)

    def first_finite(self, j, i, s: int) -> np.ndarray:
        """First node from index i on, in direction s (+1 or -1), whose layer-j
        barrier time is finite; n or -1 when none is.  Indices off the grid
        are returned as they are."""
        n = self.r.shape[1]
        on = (i >= 0) & (i < n)
        at = (np.asarray(j) - 1) * n + np.minimum(np.maximum(i, 0), n - 1)
        return np.where(on, np.take(self._finite[s], at), i)

    def range_min(self, j, x_lo, x_hi) -> np.ndarray:
        """Lower bound of the barrier time over position spans [x_lo, x_hi].

        Exact minimum over the grid nodes touching the span, which bounds the
        interpolated barrier from below; used to find boxes that the region
        does not reach before a given time."""
        return self.node_min(j, np.floor(self.cell_position(x_lo)).astype(np.int64),
                             np.ceil(self.cell_position(x_hi)).astype(np.int64))

    def lookup(self, j, x, pos=None) -> np.ndarray:
        """Barrier time at arbitrary x for layer j (1-based; an array gives
        one layer per point).  `pos`, when given, is cell_position(x).

        Linear interpolation between nodes.  A cell with an infinite endpoint
        interpolates to effectively +inf, so only its finite node can stop a
        path there: a level, such as an atom of the target, that a
        continuous path reaches exactly.
        """
        if pos is None:
            pos = self.cell_position(x)
        i0 = pos.astype(np.int64)
        frac = pos - i0                                 # weight of node i0 + 1
        i0 += (np.asarray(j) - 1) * self._levels * self.r.shape[1]
        r0 = np.take(self._table, i0)
        i0 += 1
        out = np.take(self._table, i0)
        out -= r0
        out *= frac
        out += r0
        return out


def extract(surface: ValueSurface) -> BarrierFamily:
    """Extract the per-layer stopping regions from a solved surface.

    A node belongs to the region exactly when the scheme's own update chose
    the obstacle branch (ties stop), as the solve recorded it; this matches
    the region definition without a resolution-dependent threshold.
    """
    ts = surface.grid.t_nodes()
    first = surface.stop_first
    flagged, region = surface.flagged, surface.region_nodes
    r = np.where(first == SENTINEL, np.inf, ts[np.minimum(first, len(ts) - 1)])
    # boundary columns inherit their interior neighbour: the Dirichlet rows
    # are prescribed data, not a stopping decision
    r[:, 0] = r[:, 1]
    r[:, -1] = r[:, -2]
    frac = flagged / np.maximum(region, 1)
    if np.any(frac > EXTRACT_FLAG_FRACTION):
        worst = int(np.argmax(frac))
        raise ExtractionUnstableError(
            f"layer {worst + 1}: {flagged[worst]} non-monotone nodes over "
            f"{region[worst]} region nodes ({frac[worst]:.2%}); grid too coarse")
    return BarrierFamily(s_values=surface.partition.points[1:].copy(),
                         grid=surface.grid, r=r)


def write_barriers_csv(barrier_family: BarrierFamily, path) -> None:
    """Dump `j,s,x,r` rows; the sentinel is written as `inf`."""
    xs = _fmt_all(barrier_family.x_nodes)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,s,x,r\n")
        for j, s in enumerate(_fmt_all(barrier_family.s_values), start=1):
            fh.writelines(f"{j},{s},{x},{r}\n"
                          for x, r in zip(xs, _fmt_all(barrier_family.r[j - 1])))
