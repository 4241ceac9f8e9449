"""Non-colliding Laguerre diffusions, interlacing kernels, and their
verification suite."""

from .numerics import (
    RngStream,
    gauss_rule,
    pochhammer,
)
from .diffusion import (
    BoundaryKind,
    backward_generator_residual,
    dual_transition_density,
    dual_transition_density_exit,
    htransform_residual_32a,
    speed_measure_dual,
    transition_density,
    transition_density_absorbed,
    transition_sample,
)
from .kernels import (
    DegenerateAnchorError,
    KernelSpec,
    UnsupportedDimensionError,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
    checked_chamber,
    kernel_density,
    sample_alpha_corner,
    sample_alpha_corner_rows,
    sample_alpha_square,
    sample_corner_many,
    vandermonde,
)
from .process import (
    SdeConfig,
    SemigroupParams,
    lambda_eigen,
    semigroup_apply,
    semigroup_apply_rows,
    simulate_matrix_ou,
    simulate_sde,
)
from .rmt import (
    radial_part,
    sample_ginibre,
    sample_haar_unitary,
    sample_invariant_rectangular,
    sample_laguerre_ensemble,
    sample_wishart_radial,
    truncate,
)
from .stats import (
    BonferroniFamily,
    ComparisonReport,
    EmpiricalSample,
    ks_one_sample,
    ks_two_sample,
)

__version__ = "0.1.0"
