"""Numerics for discrete reproducing-kernel Hilbert spaces.

Decide (at desk scale) whether point masses have finite norm in the Hilbert
space of a positive-definite kernel on a countable set, compute the norms by
Gram solves and closed forms, and work the concrete models: Brownian and
bridge restrictions, the binomial kernel, resistor networks with their
resistance metrics, Gaussian free fields, and dyadic trees.
"""

from .builtin import (
    BinomialKernel,
    BridgeKernel,
    BrownianKernel,
    PascalMatrix,
    binomial_basis_eval,
    binomial_eval,
    binomial_partial_norm,
    bm_delta_norm_sq,
    bm_det,
    bm_log_det,
    bridge_delta_norm_sq,
    bridge_det,
    bridge_log_det,
    pascal_factorization,
)
from .core import (
    CoefficientVector,
    GramMatrix,
    Kernel,
    NotPSD,
    PDResult,
    PointSet,
    SemiDefinite,
    StrictlyPD,
    TableKernel,
    assemble_gram,
    check_pd,
    dual_basis,
    log_det,
    projection_norm_sq,
    solve_delta,
)
from .diagnostics import (
    ClassifyPolicy,
    Converging,
    Diverging,
    Filtration,
    FiltrationTrace,
    Inconclusive,
    Membership,
    Stabilized,
    classify,
    trace,
)
from .errors import (
    BoundaryIndex,
    BoundaryWord,
    Disconnected,
    DomainMismatch,
    MissingNeighbor,
    MonotonicityViolation,
    NotInRange,
    NotPositiveSemidefinite,
    RKHSKitError,
    SingularGram,
    TooFewStages,
    WeightUndefined,
)
from .gff import (
    GFFSampleSet,
    TriangleCheck,
    covariance_standard_error,
    covariance_triangle_check,
    delta_realization,
    empirical_covariance,
    empirical_mean,
    sample,
)
from .network import (
    Dipole,
    GreenKernel,
    Network,
    delta_expand,
    delta_norm_sq,
    dipole,
    energy_inner,
    green_kernel,
    is_interior,
    kernel_from_resistance,
    laplacian_apply,
    resistance,
)
from .tree import (
    BoundaryResistance,
    HistogramRow,
    LevelWeights,
    boundary_resistance,
    build_tree,
    energy_histogram,
    meet_level,
    parse_word,
    tree_delta_norm_closed,
    word_str,
)

__version__ = "0.1.0"
