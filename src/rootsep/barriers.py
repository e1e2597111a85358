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
from .io import _fmt_all
from .stop_solver import SENTINEL, ValueSurface
from .tolerances import EXTRACT_FLAG_FRACTION


@dataclass
class BarrierFamily:
    """Per-layer first-stopped times r_j on the space nodes (inf: beyond horizon)."""

    s_values: np.ndarray          # layer indices s_1..s_n
    x_nodes: np.ndarray
    r: np.ndarray                 # (n, nx+1), +inf sentinel
    flagged: np.ndarray
    region_nodes: np.ndarray
    grid_desc: dict

    _HUGE = 1e18   # stands in for the +inf sentinel during interpolation

    @property
    def n(self) -> int:
        return len(self.s_values)

    def __post_init__(self):
        self._dx = float(self.grid_desc["dx"])
        self._center = (len(self.x_nodes) - 1) // 2
        # per layer: the isolated finite columns, and the sparse range-min
        # table T[k, i] = min of clamped[i : i + 2^k], whose row 0 is the
        # clamped interpolation table
        self._iso, self._tables = [], []
        for r in self.r:
            fin = np.isfinite(r)
            clamped = np.where(fin, r, self._HUGE)
            inner = fin[1:-1] & ~fin[:-2] & ~fin[2:]
            self._iso.append([(float(self.x_nodes[i + 1]), float(r[i + 1]))
                              for i in np.nonzero(inner)[0]])
            n = clamped.size
            T = np.full((max(1, int(np.log2(max(n, 2))) + 1), n), self._HUGE)
            T[0] = clamped
            for k in range(1, T.shape[0]):
                span, half = 1 << k, 1 << (k - 1)
                m = n - span + 1
                if m <= 0:
                    break
                T[k, :m] = np.minimum(T[k - 1, :m], T[k - 1, half:half + m])
            self._tables.append(T)

    def cell_position(self, x) -> np.ndarray:
        """Position of x in node units, node i at i.

        x / dx + nx // 2, as `SpaceTimeGrid.x_nodes` places the nodes.  That
        quotient can miss a node by an ulp (x = -23.7 at dx = 0.1 lands
        2.8e-14 below it), so a position within 1e-9 of a node, the tolerance
        atoms are held to, is put on it.  Clipped to [0, nx - 1e-6], so
        that positions past the grid read its edge cell.
        """
        # in place: this runs on every monitored position
        pos = np.divide(x, self._dx, out=np.empty(np.shape(x)))
        pos += self._center
        off = np.rint(pos, out=np.empty_like(pos))
        off -= pos
        np.abs(off, out=off)
        np.rint(pos, out=pos, where=off <= 1e-9 / self._dx)
        np.maximum(pos, 0.0, out=pos)
        return np.minimum(pos, len(self.x_nodes) - 1.000001, out=pos)

    def node_min(self, j: int, lo, hi) -> np.ndarray:
        """Minimum of layer j's barrier times over the nodes lo..hi.

        Node indices past either end of the grid read its edge node."""
        T = self._tables[j - 1]
        n = T.shape[1]
        lo = np.clip(lo, 0, n - 1)
        hi = np.clip(hi, 0, n - 1)
        length = hi - lo + 1
        k = np.frexp(length.astype(np.float64))[1] - 1      # floor(log2(length))
        k = np.clip(k, 0, T.shape[0] - 1)
        left = np.take(T.ravel(), k * n + lo)
        right = np.take(T.ravel(), k * n + hi - (1 << k) + 1)
        return np.minimum(left, right)

    def range_min(self, j: int, x_lo, x_hi) -> np.ndarray:
        """Lower bound of the barrier time over position spans [x_lo, x_hi].

        Exact minimum over the grid nodes touching the span, which bounds the
        interpolated barrier from below; used to prune hit tests."""
        return self.node_min(j, np.floor(self.cell_position(x_lo)).astype(np.int64),
                             np.ceil(self.cell_position(x_hi)).astype(np.int64))

    def lookup(self, j: int, x) -> np.ndarray:
        """Barrier time at arbitrary x for layer j (1-based).

        Linear interpolation between nodes; a cell with an infinite endpoint
        interpolates to effectively +inf, except within dx/2 of an isolated
        finite column (a single-node stopping line, e.g. an atom of the
        target), which keeps its own finite value so paths can reach it.
        """
        clamped, iso = self._tables[j - 1][0], self._iso[j - 1]
        x = np.asarray(x, dtype=float)
        pos = self.cell_position(x)
        i0 = pos.astype(np.int64)
        pos -= i0                                       # weight of node i0 + 1
        r0 = np.take(clamped, i0)
        i0 += 1
        out = np.take(clamped, i0)
        out -= r0
        out *= pos
        out += r0
        for xv, rv in iso:
            close = np.abs(x - xv) <= self._dx / 2.0
            if close.any():
                out = np.where(close, np.minimum(out, rv), out)
        return out

    def descriptor(self) -> dict:
        return {"flagged": self.flagged.tolist(),
                "region_nodes": self.region_nodes.tolist()}


def extract(surface: ValueSurface) -> BarrierFamily:
    """Extract the per-layer stopping regions from a solved surface.

    A node belongs to the region exactly when the scheme's own update chose
    the obstacle branch (ties stop), as the solve recorded it; this matches
    the region definition without a resolution-dependent threshold.
    """
    grid = surface.grid
    ts = grid.t_nodes()
    first = surface.stop_first
    flagged = surface.flagged.copy()
    region = surface.region_nodes.copy()
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
                         x_nodes=surface.x_nodes(), r=r, flagged=flagged,
                         region_nodes=region, grid_desc=grid.descriptor())


@dataclass
class OrderingReport:
    ordered: bool
    violations: list

    def __bool__(self):
        return self.ordered


def ordering_check(barrier_family: BarrierFamily, x_window=None) -> OrderingReport:
    """Regions shrink with the layer index iff r_j <= r_{j+1} everywhere.

    An x_window restricts the check to columns where the layer increments
    are resolvable; far outside the support the first-hit times ride on
    float-scale obstacle differences and carry no ordering information.
    """
    viol = []
    r = barrier_family.r
    xs = barrier_family.x_nodes
    mask = np.ones_like(xs, dtype=bool) if x_window is None \
        else (xs >= x_window[0]) & (xs <= x_window[1])
    for j in range(barrier_family.n - 1):
        a, b = r[j], r[j + 1]
        bad = (a > b) & ~(np.isinf(a) & np.isinf(b)) & mask
        for i in np.nonzero(bad)[0]:
            viol.append((j + 1, float(xs[i])))
    return OrderingReport(ordered=not viol, violations=viol)


def analytic_compare(barrier_family: BarrierFamily, analytic, x_window=None) -> float:
    """Sup distance between extracted and analytic barrier curves.

    `analytic` maps (j, x_nodes) to barrier times; inf-vs-inf counts as 0.
    """
    xs = barrier_family.x_nodes
    mask = np.ones_like(xs, dtype=bool) if x_window is None \
        else (xs >= x_window[0]) & (xs <= x_window[1])
    worst = 0.0
    for j in range(1, barrier_family.n + 1):
        ref = np.asarray(analytic(j, xs), dtype=float)
        got = barrier_family.r[j - 1]
        both_inf = np.isinf(ref) & np.isinf(got)
        d = np.abs(np.where(both_inf, 0.0, got) - np.where(both_inf, 0.0, ref))
        d = np.where(np.isnan(d), np.inf, d)
        worst = max(worst, float(d[mask].max()))
    return worst


def write_barriers_csv(barrier_family: BarrierFamily, path) -> None:
    """Dump `j,s,x,r` rows; the sentinel is written as `inf`."""
    xs = _fmt_all(barrier_family.x_nodes)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,s,x,r\n")
        for j, s in enumerate(_fmt_all(barrier_family.s_values), start=1):
            fh.writelines(f"{j},{s},{x},{r}\n"
                          for x, r in zip(xs, _fmt_all(barrier_family.r[j - 1])))
