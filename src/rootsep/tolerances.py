"""Frozen numerical tolerances shared across modules.

SCHEME_C and PDE_C were calibrated once on the variance-shifted Gaussian
fixture (dx = 0.02, single layer / refined ladder respectively) and are kept
fixed: no run config overrides them, so no run can loosen a verdict.
"""

# complementarity tolerance is SCHEME_C * (dx + dt)
SCHEME_C = 0.25

# full-marginal residual tolerance is PDE_C * (dx + dt + partition mesh)
PDE_C = 0.2

# a value within LATTICE_TOL of a grid point reads as it (`grid.lattice_index`)
LATTICE_TOL = 1e-9

# convex-order slack on potentials
CONVEX_TOL = 1e-9

# largest admissible fraction of non-monotone nodes during barrier extraction
EXTRACT_FLAG_FRACTION = 0.01

# largest admissible fraction of paths censored by the simulation horizon
CENSOR_FRACTION = 1e-3

# residual maxima are taken over the parabolic interior, staying this
# fraction of the horizon away from the t = 0 face; kinked initial data
# (atomic starts) keep O(1/sqrt(t)) discrete residuals near that face
INTERIOR_T_FRACTION = 0.05

# guard band (space units) around atom columns of the marginals: the value
# surface has genuine x-kinks there and onset transients of node-scale
# width, where centred stencils are pointwise inconsistent
KINK_GUARD = 0.3
