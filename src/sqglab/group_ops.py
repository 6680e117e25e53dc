"""Adjoint and coadjoint actions of the exact diffeomorphism group.

Compositions with gamma and gamma^-1 are computed by interpolation at the
mapped grid points followed by re-projection onto the truncated spectral
space (dealias mask, mean forced to zero).  The Lambda operator family
from the Jacobi analysis,

    Lambda(t) w = Ad*_gamma Ad_gamma w,

is applied as a single multiplier/composition chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import INVERSE_TOL, FlowMap, NumericalAbort
from .spectral import (
    ScalarField,
    VectorFieldExact,
    check_beta,
    frac_laplacian,
    gradient_perp,
    interpolate,
    poisson_bracket,
)


@dataclass(frozen=True)
class DiffeoSample:
    """Forward and inverse flow maps at a fixed geodesic time.

    ``residual`` is the largest |gamma(gamma^-1(y)) - y| over the grid
    points y that ``flow.invert`` left; ``check_invertible`` refuses a
    sample whose residual exceeds ``INVERSE_TOL``.
    """

    forward: FlowMap
    inverse: FlowMap
    t: float
    residual: float = 0.0

    @classmethod
    def identity(cls, g):
        return cls(FlowMap.identity(g), FlowMap.identity(g), 0.0)

    def check_invertible(self):
        """Raise NumericalAbort if the inverse's residual exceeds INVERSE_TOL."""
        if not self.residual <= INVERSE_TOL:
            raise NumericalAbort(
                f"gamma^-1 at t = {self.t:.6g} (N = {self.inverse.grid.n}) has residual "
                f"{self.residual:.3e} > {INVERSE_TOL:g}: gamma is not invertible on "
                f"the grid there")


def compose_stream(psi: ScalarField, fm: FlowMap) -> ScalarField:
    """psi o fm, re-projected: dealiased and mean-zeroed."""
    px, py = fm.points()
    vals = interpolate(psi, np.column_stack([px.ravel(), py.ravel()])).reshape(px.shape)
    return ScalarField.from_values(fm.grid, vals).dealiased()


def adjoint(eta: DiffeoSample, v: VectorFieldExact) -> VectorFieldExact:
    """Ad_eta v: stream function pushed forward, psi_v o eta^-1.

    Raises NumericalAbort if eta's inverse did not converge.
    """
    eta.check_invertible()
    return gradient_perp(compose_stream(v.stream, eta.inverse))


def ad_bracket(u: VectorFieldExact, v: VectorFieldExact) -> VectorFieldExact:
    """ad_u v = -[u, v], an exact field with stream {psi_u, psi_v}."""
    return gradient_perp(poisson_bracket(u.stream, v.stream))


def coadjoint_algebra(u: VectorFieldExact, v: VectorFieldExact, beta: float) -> VectorFieldExact:
    """ad*_u v with respect to the beta metric."""
    check_beta(beta)
    br = poisson_bracket(frac_laplacian(v.stream, 1.0 - beta / 2.0), u.stream)
    return gradient_perp(frac_laplacian(br, beta / 2.0 - 1.0))


def coadjoint_group(eta: DiffeoSample, u: VectorFieldExact, beta: float) -> VectorFieldExact:
    """Ad*_eta u with respect to the beta metric."""
    check_beta(beta)
    if eta.forward is None:
        raise ValueError("coadjoint_group needs the forward map")
    s = frac_laplacian(u.stream, 1.0 - beta / 2.0)
    s = compose_stream(s, eta.forward)
    return gradient_perp(frac_laplacian(s, beta / 2.0 - 1.0))


def lambda_apply(d: DiffeoSample, v: VectorFieldExact, beta: float) -> VectorFieldExact:
    """Lambda(t) v = Ad*_gamma Ad_gamma v as one multiplier/composition chain.

    Raises NumericalAbort if the inverse map of d did not converge.
    """
    check_beta(beta)
    d.check_invertible()
    s = compose_stream(v.stream, d.inverse)
    s = frac_laplacian(s, 1.0 - beta / 2.0)
    s = compose_stream(s, d.forward)
    return gradient_perp(frac_laplacian(s, beta / 2.0 - 1.0))


def lambda_inverse_apply(d: DiffeoSample, v: VectorFieldExact, beta: float) -> VectorFieldExact:
    """Lambda(t)^-1 v = Ad_{gamma^-1} Ad*_{gamma^-1} v.

    Raises NumericalAbort if the inverse map of d did not converge.
    """
    check_beta(beta)
    d.check_invertible()
    s = frac_laplacian(v.stream, 1.0 - beta / 2.0)
    s = compose_stream(s, d.inverse)
    s = frac_laplacian(s, beta / 2.0 - 1.0)
    s = compose_stream(s, d.forward)
    return gradient_perp(s)
