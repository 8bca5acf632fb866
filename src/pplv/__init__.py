"""Analysis of T-periodic planar predator-prey Lotka-Volterra systems.

The package decides existence of coexistence states, evaluates the
classical and region-based uniqueness/stability criteria over the whole
exponent range p in [1, inf], and verifies predictions numerically via
period-map fixed points and Floquet multipliers.
"""

from .coeffs import (
    CoeffStats,
    PeriodicCoefficient,
    RegionBounds,
    SystemSpec,
    compute_uv,
    lp_norm,
    ratio_extrema,
    stats,
)
from .constant_case import (
    SingularSystem,
    check25,
    demo_constants,
    equilibrium,
    linear_term,
    sign_scan,
)
from .criteria import (
    StabilityReport,
    TestResult,
    condition18,
    condition19,
    intertwined_test,
    scan_p,
    unified_lp_test,
    weak_intertwined_test,
)
from .existence import BoundaryClassification, classify_boundary
from .jfunc import INF, angular_integral, conjugate, threshold_p, threshold_q
from .logistic import (
    GridTooLarge,
    NoPositiveSolution,
    PeriodicOrbit1D,
    periodic_logistic,
    weighted_average,
)
from .region import (
    RegionSpec,
    SupResult,
    boundary_points,
    cp_slack,
    region_spec,
    sup_linear,
    sup_xy,
)
from .simulate import (
    FloquetData,
    NoConvergence,
    NonPositive,
    PeriodicOrbit2D,
    PredictionReport,
    StepFailure,
    find_coexistence,
    find_coexistence_multistart,
    floquet,
    orbit_averages,
    poincare_map,
    verify_predictions,
)

__version__ = "0.1.0"
