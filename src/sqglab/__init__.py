"""Spectral laboratory for the generalized SQG family as geodesic flow.

Importing the package loads numpy and the top-level ``scipy`` package only;
each scipy submodule is imported inside the function that uses it, so a
command loads only what it runs.
"""

from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorFieldExact,
    frac_laplacian,
    gradient_perp,
    grid,
    inner_product_beta,
    interpolate,
    poisson_bracket,
)
from .flow import FlowMap, jacobian, transport_check
from .group_ops import (
    DiffeoSample,
    ad_bracket,
    adjoint,
    coadjoint_algebra,
    coadjoint_group,
    lambda_apply,
    lambda_inverse_apply,
)
from .euler_arnold import GeodesicRecord, SolverConfig, rhs, simulate, step_rk4
from .jacobi import (
    ConjugateReport,
    GalerkinBasis,
    OperatorSample,
    detect_conjugate,
    evolve_phi,
    k0_matrix,
    lambda_matrix,
    make_basis,
    omega_gamma_split,
)
from .sphere import SphereMode, closed_form, cluster_scan, conjugate_time, integrate_mode
from .morse import MorseInput, Spectrum, c_constant, delta_inf, index_form, morse_bound, weyl_count

__version__ = "0.1.0"
