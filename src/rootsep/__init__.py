"""Numerical laboratory for Root-type Skorokhod embeddings of peacock families.

Pipeline: marginal families (potential functions) -> layered optimal-stopping
solves on monotone grids -> barrier extraction -> partition-refinement limits
of the full-marginal variational inequality -> Monte Carlo verification of
the embedded laws, the potential representation, and the time-functional
optimality.
"""

from .barriers import BarrierFamily, analytic_compare, extract, ordering_check
from .errors import (CheckError, ConfigError, ConvexOrderError,
                     ExtractionUnstableError, GridBudgetError, HorizonError,
                     NonConvergenceError, RootSepError, SingularityError,
                     ValidationError)
from .grid import Partition, SpaceTimeGrid, make_grid, make_partition, refine
from .limit_solver import (LimitSurface, bounds_check, partition_independence,
                           pde_residual, regularity_report, solve_limit)
from .marginals import (AtomicMeasure, AtomicTableFamily, GaussianShiftFamily, Law,
                        MarginalFamily, PathologicalGrowthFamily, ScaledFamily,
                        ThreePointFamily, assumption_check, build_pathological_family,
                        call_price, convex_order_validate, load_atomic_family_csv,
                        potential_ds, potential_eval, sample_initial)
from .simulator import (EmbeddingResult, MonotonePiecewisePoly, PathEnsemble,
                        alternative_embedding, continuity_check, empirical_potential,
                        marginal_fit, optimality_functional, simulate_root)
from .stop_solver import (ComplementarityReport, ValueSurface, complementarity_check,
                          lower_bound_mc, make_barrier_rule, rule_stop_at_horizon,
                          rule_stop_now, solve_layers, tree_oracle)

__version__ = "0.1.0"
