"""Circumcenter and simultaneous-projection solvers for best approximation
onto intersections of affine subspaces."""

from .affine import (
    AffineSubspace,
    intersection_subspace,
    project_intersection,
    residual,
)
from .analysis import (
    AngleReport,
    angle_report,
    error_bound_constant,
    estimate_regularity,
    friedrichs_cosine,
    principal_cosines,
    verify_error_bound,
)
from .circumcenters import circumcenter
from .errors import (
    CircumprojError,
    DegenerateSystem,
    DimensionMismatch,
    EmptyIntersection,
    InconsistentSystem,
    InsufficientData,
    InvalidCoherence,
    InvalidWeights,
    MissingReference,
    NumericalBreakdown,
)
from .problems import (
    GENERATOR_ID,
    GenerationDescriptor,
    ProblemInstance,
    block_count,
    build_instance,
    build_underdetermined_instance,
    gaussian_matrix,
    instance_from_descriptor,
)
from .solvers import (
    IterationTrace,
    Method,
    SolveResult,
    SolverConfig,
    Status,
    StopRule,
    cimmino_weights,
    crm_step,
    estimate_rate,
    fspm_step,
    pcrm_step,
    solve,
    uniform_weights,
    validate_weights,
)

__version__ = "0.1.0"
