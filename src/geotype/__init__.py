"""Combinatorics of geometric types of Markov partitions and their refinements."""

from .core import (
    GeoTypeError,
    GeometricType,
    HLabel,
    InvalidTypeError,
    ParseError,
    VLabel,
    ValidationReport,
    alpha,
    invert,
    parse,
    serialize,
    validate,
)
from .shift import (
    AdmissibilityError,
    CodeOrbit,
    EventuallyPeriodicCode,
    IncidenceMatrix,
    NonBinaryError,
    PeriodicCode,
    count_periodic_points,
    enumerate_orbits,
    incidence_matrix,
    is_admissible_cycle,
    is_binary,
    is_mixing,
)
from .boundary import (
    BoundaryCodeError,
    BoundaryOrbitSummary,
    BoundarySets,
    DuplicateOrbitError,
    SULabel,
    boundary_orbits,
    boundary_sets,
    classify_code,
    gamma_step,
    has_corner_property,
    per_s_codes,
    per_u_codes,
    s_boundary_positive_code,
    theta,
    u_boundary_negative_code,
    upsilon_step,
)
from .refine import (
    BinRefinement,
    IntervalRef,
    InvariantError,
    OrderTable,
    PeriodBoundError,
    RefinementResult,
    ShiftEqualError,
    bin_refine,
    build_order,
    corner_refine,
    corner_refine_along,
    interchange_delta,
    interval_less,
    j_index,
    mismatch_M,
    s_refine,
    serialize_result,
    u_refine,
    wp_refine,
)
from .oracle import (
    AffineModel,
    OracleRefinement,
    RationalPoint,
    TieError,
    model_svg,
    oracle_s_refine,
    periodic_point,
    realize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
