"""Reach-set overapproximation for linear systems by decomposition of the
state space into two-dimensional blocks, with support-function set
arithmetic, dense/discrete time discretization, safety checking, and
reference oracles for validation."""

from .approx import (
    BlockStructure,
    BoxDirections,
    EpsilonClose,
    approximate,
    decompose,
    overapproximate_box,
    overapproximate_eps,
)
from .discretize import (
    DENSE,
    DISCRETE,
    ContinuousSystem,
    DiscreteSystem,
    discretize,
    discretize_dense,
    discretize_discrete,
)
from .errors import (
    ApproximationError,
    ContainmentError,
    DegeneratePolygonError,
    DimensionError,
    EngineError,
    InputError,
    InvalidSetError,
    NonFiniteError,
    UnboundedSetError,
)
from .linalg import (
    BlockMatrix,
    MatrixPowerState,
    discretization_matrices,
    exp_action,
    exp_matrix,
    phi2_action,
    read_matrix_market,
    write_matrix_market,
)
from .oracle import (
    DecompositionErrorReport,
    decomposed_image,
    decomposed_map_error_bound,
    dual_exponent,
    hausdorff_estimate,
    make_error_report,
    reach_nondecomposed,
    recurrence_error_bound,
    recurrence_error_bound_uniform,
    sample_directions,
    set_diameter,
    simulate,
    support_membership,
)
from .reach import (
    And,
    Atom,
    CheckResult,
    Or,
    ReachTube,
    SafetyProperty,
    check_property,
    project_output,
    reach_decomposed,
    reach_decomposed_varying,
)
from .scenario import Scenario, parse_property, parse_scenario, parse_scheme
from .sets import (
    BallP,
    CartesianProduct,
    ConvexHullPair,
    HPolygon,
    Hyperrectangle,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Scaled,
    Singleton,
    minkowski_sum_all,
    polygon_support_vector,
    support_function,
    support_vector,
    symmetric_interval_hull,
    zero_set,
)

__version__ = "0.1.0"
