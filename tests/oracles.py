"""Independent oracles the tests check the package against.

None of these runs in a `rootsep` pipeline: each recomputes a quantity by
a route the package does not take (exhaustive enumeration of stopping
rules, barrier ordering and analytic comparisons, the call price of a
centred law, the exit-time CDF from its two series with scipy's erfc),
so agreement is evidence rather than a restatement.
Test modules import it as `from oracles import ...`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from rootsep.barriers import BarrierFamily
from rootsep.errors import GridBudgetError, ValidationError
from rootsep.grid import Partition
from rootsep.marginals import MarginalFamily


# ---------------------------------------------------------------------------
# call price

def call_price(family: MarginalFamily, s: float, x) -> np.ndarray:
    """E (Y - x)+ for Y ~ mu_s; equals -(potential + x)/2 for centred laws."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return -(family.potential(s, x) + x) / 2.0


# ---------------------------------------------------------------------------
# exit-time law

# Ten terms of each series: the first omitted one is below 1e-40 for t <= 2
# (reflection) and for t >= 1/2 (theta).
_EXIT_TERMS = np.arange(10.0)


def reflection_cdf(t) -> np.ndarray:
    """P(tau_1 <= t), tau_1 the exit time of [-1, 1] from 0, by the
    reflection series 2 sum_k (-1)^k erfc((2k+1) / sqrt(2t)), with scipy's
    erfc, for t <= 2."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    odd = 2.0 * _EXIT_TERMS[:, None] + 1.0
    return 2.0 * ((-1.0) ** _EXIT_TERMS[:, None] * erfc(odd / np.sqrt(2.0 * t))).sum(axis=0)


def theta_cdf(t) -> np.ndarray:
    """The same CDF by the theta series 1 - (4/pi) sum_k (-1)^k / (2k+1)
    exp(-(2k+1)^2 pi^2 t / 8), for t >= 1/2."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    odd = 2.0 * _EXIT_TERMS[:, None] + 1.0
    terms = (-1.0) ** _EXIT_TERMS[:, None] / odd * np.exp(-odd * odd * (np.pi ** 2 / 8.0) * t)
    return 1.0 - (4.0 / np.pi) * terms.sum(axis=0)


def exit_time_cdf(t) -> np.ndarray:
    """P(tau_1 <= t): the reflection series up to t = 1, the theta series
    above."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.where(t <= 1.0, reflection_cdf(np.minimum(t, 1.0)), theta_cdf(np.maximum(t, 1.0)))


# ---------------------------------------------------------------------------
# barrier ordering and analytic comparison

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


# ---------------------------------------------------------------------------
# exhaustive tree oracle

_RULE_COUNT_CAP_DEPTH = 5


def rule_count(depth: int) -> int:
    """Number of adapted stopping rules on a binary tree: S(d) = 1 + S(d-1)^2."""
    c = 1
    for _ in range(depth):
        c = 1 + c * c
    return c


def tree_oracle(family: MarginalFamily, partition: Partition, depth: int,
                dx: float, x0: float = 0.0):
    """Independent oracle: enumerate every adapted stopping rule on the
    non-recombining +-dx walk and take the best expected payoff.

    Returns the per-layer values at (s_j, t = depth * dt, x0), j = 0..n.
    Layer j treats the exhaustively-maximized layer j-1 values as payoff
    data, mirroring the layered problem definition rather than the solver's
    sweep, and every rule's value is materialized before the max.
    """
    if partition.n > 2:
        raise ValidationError("tree oracle supports at most two marginal layers")
    if depth > _RULE_COUNT_CAP_DEPTH:
        raise GridBudgetError(
            f"depth {depth} enumerates {rule_count(depth)} rules per node; cap is "
            f"{_RULE_COUNT_CAP_DEPTH} ({rule_count(_RULE_COUNT_CAP_DEPTH)} rules)")
    svals = partition.points
    n = partition.n

    def pot(s, x):
        return float(family.potential(float(s), np.array([x]))[0])

    du = {j: (lambda x, j=j: pot(svals[j], x) - pot(svals[j - 1], x)) for j in range(1, n + 1)}

    value_memo: dict = {}

    def value(j: int, m: int, x: float) -> float:
        key = (j, m, round((x - x0) / dx))
        if key in value_memo:
            return value_memo[key]
        if j == 0:
            out = pot(svals[0], x)
        else:
            out = float(np.max(rule_values(j, m, x)))
        value_memo[key] = out
        return out

    def rule_values(j: int, m: int, x: float) -> np.ndarray:
        stop = value(j - 1, m, x) + (du[j](x) if m > 0 else 0.0)
        if m == 0:
            return np.array([stop])
        left = rule_values(j, m - 1, x - dx)
        right = rule_values(j, m - 1, x + dx)
        cont = 0.5 * (left[:, None] + right[None, :]).ravel()
        return np.concatenate([[stop], cont])

    return [value(j, depth, x0) for j in range(n + 1)]
