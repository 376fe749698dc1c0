"""Subgradient projection operators, their calculus, and a convex feasibility solver."""

from .analysis import (
    MonotonicityReport,
    SeqLabReport,
    SeqVerdict,
    dist_bound_check,
    lipschitz_bound,
    monotonicity_probe,
    seq_lab,
    sproj_deriv_1d,
    sproj_jacobian,
)
from .calculus import (
    acceleration_gap,
    sproj_convexcomb,
    sproj_infconv,
    sproj_leftcompose,
    sproj_power,
    sproj_rightlinear,
    sproj_scale,
    sproj_sum,
)
from .core import EPS_NORM, FD_STEP, as_vector, fd_gradient, fd_jacobian, inv, inv_jacobian
from .errors import *  # noqa: F401,F403 -- the error module defines __all__-free plain names
from .feasibility import (
    ControlSequence,
    ControlViolation,
    Cyclic,
    Explicit,
    Problem,
    QuasiCyclic,
    SolveTrace,
    TraceRow,
    residual,
    solve,
    validate_control,
)
from .functions import (
    CENTROID,
    LEAST_INDEX,
    AffineMax,
    CentroidActive,
    ConvexComb,
    Dist,
    EndpointK,
    FunctionSpec,
    Hyperbolic,
    Indicator,
    InfConv,
    LeastIndexActive,
    LeftCompose,
    Linear,
    NegLog,
    NormPow,
    PowerComp,
    RightLinear,
    Scale,
    SelectionStrategy,
    SqDist,
    SqrtShift,
    SumPair,
    concentric_ball_pair,
    evaluate,
    hessian,
    scaled_orthogonal_factor,
    subdifferential_sample,
    subgradient,
)
from .projector import (
    ProjOutcome,
    ProjStatus,
    class_t_witness,
    fejer_gap,
    halfspace_project,
    relax,
    sproj,
    sproj_set,
)
from .prox import MoreauEnv, is_prox_friendly, moreau_value, prox, sproj_moreau
from .sets import Ball, Box, ConvexSet, Halfspace, Point, project_set

__version__ = "0.1.0"
