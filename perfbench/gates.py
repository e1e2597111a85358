"""Monte Carlo acceptance gates derived from the sample size.

Every gate bounds the sampling noise of M independent paths, plus an
allowance for the bias of discrete monitoring.  Through that noise alone,
a correct program exceeds a gate with probability at most ALPHA, so a
different seed flips a verdict about once in a million checks.  The
rootsep library uses fixed gates (KS and atom masses 0.01) whatever the
path count M; these gates shrink with M and are no looser than 0.01 at the
acceptance sizes (M = 1e5 and 1e6).

- KS distance: the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's
  constant, P(sup|F_M - F| > eps) <= 2 exp(-2 M eps^2).
- Atom masses: each empirical mass is Binomial(M, p)/M; the noise bound is
  the normal quantile at ALPHA / (2 K) times the binomial standard
  deviation, Bonferroni-corrected over the K atoms.
- Both add the 2 sqrt(h) monitoring allowance the library applies to its
  mean-type checks, since paths monitored every h stop late by O(sqrt(h))
  and that shifts the stopped law, but capped at the library's 0.01
  whenever the noise bound alone fits under it.  Uncapped, the allowance
  (0.014 at h = 5e-5, 0.1 at the pipeline's h = 0.0025) would make the
  gates looser than 0.01 at the acceptance sizes.  Capped, the noise bound
  keeps 0.01 minus itself for the bias, 0.0015 at M = 1e5; where the cap
  leaves the bias less room than that, ALPHA holds only to the extent the
  bias is small, and `report.py --runs 10` prints the smallest margin each
  gate kept over ten seeds.
- Means (stop times, E sigma): the normal quantile times the standard
  error, plus the 2 sqrt(h) allowance.
- Heavy-tailed nonnegative means (the t and t^2 time functionals of the
  randomized embedding): a one-sided Hoeffding bound on the truncated mean,
  used to show that the functional lies above Root's optimum.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

ALPHA = 1e-6
LIBRARY_GATE = 0.01  # rootsep.simulator.KS_THRESHOLD and ATOM_MASS_THRESHOLD


def z_two_sided(alpha: float = ALPHA, comparisons: int = 1) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * comparisons))


def with_allowance(noise: float, h_sim: float) -> float:
    """A noise bound plus 2 sqrt(h), capped at the library's gate unless the
    noise bound alone exceeds it."""
    return min(noise + 2.0 * math.sqrt(h_sim), max(LIBRARY_GATE, noise))


def ks_gate(m: int, h_sim: float, alpha: float = ALPHA) -> float:
    """Gate on the KS distance of m paths monitored every h_sim."""
    return with_allowance(math.sqrt(math.log(2.0 / alpha) / (2.0 * m)), h_sim)


def atom_mass_gate(p: float, m: int, atoms: int, h_sim: float, alpha: float = ALPHA) -> float:
    """Gate on |empirical mass - p| for one of `atoms` atoms, m paths monitored every h_sim."""
    return with_allowance(z_two_sided(alpha, atoms) * math.sqrt(p * (1.0 - p) / m), h_sim)


def mean_gate(stderr: float, h_sim: float, comparisons: int = 1,
              alpha: float = ALPHA) -> float:
    """Bound on |estimate - exact| for a Monte Carlo mean of monitored paths."""
    return z_two_sided(alpha, comparisons) * stderr + 2.0 * math.sqrt(h_sim)


def lower_bound(values, cap: float, alpha: float = ALPHA) -> float:
    """One-sided lower confidence bound on E[X] for X >= 0.

    The mean of min(X, cap) less Hoeffding's deviation for [0, cap]-valued
    draws.  Unlike the normal bound it holds for heavy-tailed X such as the
    time functionals of the randomized embedding, whose sample standard
    error one long path can inflate tenfold.
    """
    clipped = np.minimum(np.asarray(values, dtype=float), cap)
    return float(clipped.mean()) - cap * math.sqrt(math.log(1.0 / alpha) / (2.0 * clipped.size))
