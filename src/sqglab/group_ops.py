"""Adjoint and coadjoint actions of the exact diffeomorphism group.

Compositions with gamma and gamma^-1 are computed by interpolation at the
mapped grid points followed by re-projection onto the truncated spectral
space (dealias mask, mean forced to zero).  A ``DiffeoSample`` stores
gamma only; gamma^-1, which only Ad_gamma and through it the Jacobi
operator Lambda(t) = Ad*_gamma Ad_gamma read, is built by Newton inversion
the first time it is read and kept on the sample, which refuses it where
gamma is not invertible on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import INVERSE_TOL, FlowMap, NumericalAbort, _jacobian_det, invert
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
    """The flow map gamma at a fixed geodesic time t, with gamma^-1 built on first read.

    ``min_det``, the smallest det D gamma on the grid, comes from
    ``flow.jacobian`` alone; ``check_unfolded`` refuses a sample where it is
    not positive.  x + d(x) with d periodic has degree 1, so det D gamma > 0
    alone makes gamma a diffeomorphism: this test needs no Newton.  The
    first read of ``inverse`` or ``residual`` runs ``flow.invert`` on
    ``forward`` (Newton from x = y) once and the sample keeps both;
    ``residual`` is the largest |gamma(gamma^-1(y)) - y| over the grid
    points y.  ``inverse`` refuses itself, residual first, so its readers
    run no check.
    """

    forward: FlowMap
    t: float

    @classmethod
    def identity(cls, g):
        return cls(FlowMap.identity(g), 0.0)

    @cached_property
    def min_det(self) -> float:
        return float(np.min(_jacobian_det(self.forward)))

    @cached_property
    def _inversion(self) -> tuple[FlowMap, float]:
        return invert(self.forward)

    @property
    def residual(self) -> float:
        return self._inversion[1]

    @property
    def inverse(self) -> FlowMap:
        """gamma^-1; NumericalAbort unless it converged and gamma is unfolded on the grid."""
        if not self.residual <= INVERSE_TOL:
            raise NumericalAbort(
                f"gamma^-1 at t = {self.t:.6g} (N = {self.forward.grid.n}) has residual "
                f"{self.residual:.3e} > {INVERSE_TOL:g}: gamma is not invertible on the grid there")
        self.check_unfolded()
        return self._inversion[0]

    def check_unfolded(self):
        """Raise NumericalAbort unless det D gamma > 0 on the grid; builds no gamma^-1."""
        if not self.min_det > 0.0:
            raise NumericalAbort(
                f"gamma at t = {self.t:.6g} (N = {self.forward.grid.n}) has min det D gamma = "
                f"{self.min_det:.3e} <= 0: gamma is not invertible on the grid there")


def compose_stream(psi: ScalarField, fm: FlowMap) -> ScalarField:
    """psi o fm, re-projected: dealiased and mean-zeroed."""
    px, py = fm.points()
    vals = interpolate(psi, np.column_stack([px.ravel(), py.ravel()])).reshape(px.shape)
    return ScalarField.from_values(fm.grid, vals).dealiased()


def adjoint(eta: DiffeoSample, v: VectorFieldExact) -> VectorFieldExact:
    """Ad_eta v: stream function pushed forward, psi_v o eta^-1.

    NumericalAbort where eta is not invertible on the grid (``DiffeoSample.inverse``).
    """
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
    s = frac_laplacian(u.stream, 1.0 - beta / 2.0)
    s = compose_stream(s, eta.forward)
    return gradient_perp(frac_laplacian(s, beta / 2.0 - 1.0))
