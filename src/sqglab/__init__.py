"""Spectral laboratory for the generalized SQG family as geodesic flow.

Importing the package loads numpy alone, and no module imports a scipy
submodule: the command-line interface imports the top-level ``scipy``
package, where it is installed, only to record its version in the run
manifest (``null`` without it; scipy is a dependency of the tests alone).
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
from .morse import MorseInput, Spectrum, c_constant, delta_inf, morse_bound, morse_index, weyl_count

__version__ = "0.1.0"
