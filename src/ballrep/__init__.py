"""Volumes of polynomial sublevel sets and extremal ball representations.

The package computes Lebesgue volumes and moments of sets
G = {x : g(x) <= 1} for homogeneous and generalized polynomials g, and
solves and certifies three convex problems over representations of unit
balls of fixed volume: minimal coefficient l1 norm, minimal weighted l2
norm, and minimal Gram-matrix trace.
"""

from .certificates import (
    Certificate,
    CertificatePreconditionError,
    MomentCoverageError,
    RefutationReport,
    certify,
    certify_p1,
    certify_p2,
    certify_p3,
    minimal_trace_axis_gram,
    refute_ld_for_p3,
)
from .jacobi import jacobi_eigh
from .polynomials import (
    MONOMIAL,
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
    NormReport,
    coefficient_vector,
    count_indices,
    enumerate_indices,
    expand_gram,
    from_coefficient_vector,
    ld_polynomial,
    multinomial_coefficient,
    norms,
)
from .projections import (
    project_l1_ball,
    project_psd_trace,
    project_simplex,
    project_weighted_l2_ball,
)
from .serialize import (
    SchemaError,
    gram_from_dict,
    gram_to_dict,
    moment_rows_from_csv,
    moment_rows_to_csv,
    parse_candidate,
    parse_gram,
    parse_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    region_hash,
    serialize_gram,
    serialize_polynomial,
)
from .solvers import (
    SolveConfig,
    SolveResult,
    scale_to_target_volume,
    solve_p1,
    solve_p2,
    solve_p3,
)
from .volume import (
    DEFAULT_BUDGETS,
    GRID_ORACLE,
    MONTE_CARLO,
    SPHERICAL,
    EffectiveSampleSizeWarning,
    FeasibilityVerdict,
    InfiniteVolumeError,
    MomentMatrix,
    MomentTable,
    VolumeEstimate,
    closed_form_ball_moment,
    closed_form_ball_volume,
    euler_residual,
    finite_volume_test,
    grad_volume,
    moment,
    moment_matrix,
    moment_table,
    volume,
)

__version__ = "0.1.0"
