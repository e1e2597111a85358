"""Numerical laboratory for Root-type Skorokhod embeddings of peacock families.

Pipeline: marginal families (potential functions) -> layered optimal-stopping
solves on monotone grids -> barrier extraction -> partition-refinement limits
of the full-marginal variational inequality -> Monte Carlo verification of
the embedded laws, the potential representation, and the time-functional
optimality.
"""

from .barriers import BarrierFamily, extract
from .errors import (CheckError, ConfigError, ConvexOrderError,
                     ExtractionUnstableError, GridBudgetError, HorizonError,
                     NonConvergenceError, RootSepError, SingularityError,
                     ValidationError)
from .grid import Partition, SpaceTimeGrid, make_grid, make_partition, refine
from .limit_solver import (LimitSurface, bounds_check, partition_independence,
                           pde_residual, regularity_report, solve_limit)
from .marginals import (AtomicTableFamily, GaussianShiftFamily, Law, MarginalFamily,
                        ScaledFamily, ThreePointFamily, assumption_check,
                        convex_order_validate, load_atomic_family_csv)
from .simulator import (EmbeddingResult, MonotonePiecewisePoly, PathEnsemble,
                        alternative_embedding, empirical_potential, marginal_fit,
                        optimality_functional, simulate_root)
from .stop_solver import (ComplementarityReport, ValueSurface, complementarity_check,
                          solve_layers)

__version__ = "0.1.0"
