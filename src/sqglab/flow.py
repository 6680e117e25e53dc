"""Flow map, its inverse and Jacobian of a time-dependent velocity.

The forward map gamma(t) is advanced as particles seeded at the grid
points, gamma_dot(t, x) = u(t, gamma(t, x)).  The inverse map is not
stepped: ``invert`` solves gamma(x) = y for x at the grid points y by
damped Newton on the quintic spline of gamma's displacement, started at
x = y, when a reader of gamma^-1 first needs it (``DiffeoSample``).  Both
maps are stored as one packed periodic displacement d_x + i d_y on the
fixed grid.  The label transport of gamma^-1 (``label_rhs``,
``advance_back_to_labels``) is kept only as the test oracle of ``invert``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    MAGIC_FLOW,
    ScalarField,
    SpectralGrid,
    TWO_PI,
    _fourier_eval,
    _spline_coefficients,
    _spline_eval,
    grid,
    interpolate,
    read_checkpoint,
    write_checkpoint,
)


class NumericalAbort(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True)
class FlowMap:
    """Sampled diffeomorphism x -> x + d(x), periodic; d = d_x + i d_y is one complex grid."""

    grid: SpectralGrid
    disp: np.ndarray

    @classmethod
    def identity(cls, g: SpectralGrid):
        return cls(g, np.zeros((g.n, g.n), dtype=complex))

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        return self.grid.x + self.disp.real, self.grid.y + self.disp.imag

    def component_spectra(self) -> np.ndarray:
        """The (2, N, N) spectra of d_x and d_y, each transformed alone, as checkpoints hold them."""
        return np.fft.fft2(np.stack([self.disp.real, self.disp.imag])) / self.grid.n**2

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.disp)))


def _packed_spectra(fm: FlowMap) -> np.ndarray:
    """P = fft2(d) / N^2 of the packed displacement, i k_x P and i k_y P: shape (3, N, N).

    The last two are the spectra of d_,x = d_x,x + i d_y,x and d_,y = d_x,y + i d_y,y,
    so ``jacobian`` and ``invert`` read D gamma from the same derivation.
    """
    g = fm.grid
    p = np.fft.fft2(fm.disp) / g.n**2
    return np.stack([p, g.ikx * p, g.iky * p])


def jacobian(fm: FlowMap) -> np.ndarray:
    """D gamma as a (2, 2, N, N) array: one inverse FFT of the packed d_,x and d_,y."""
    dx, dy = np.fft.ifft2(_packed_spectra(fm)[1:]) * fm.grid.n**2
    return np.stack([[dx.real + 1.0, dy.real], [dx.imag, dy.imag + 1.0]])


def _jacobian_det(fm: FlowMap) -> np.ndarray:
    """det D gamma on the grid."""
    j = jacobian(fm)
    return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]


def jacobian_det_error(fm: FlowMap) -> float:
    """max |det D gamma - 1| over the grid."""
    return float(np.max(np.abs(_jacobian_det(fm) - 1.0)))


RK4_NODES = (0, 0.5, 0.5, 1)


def _rk4(f, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of y' = f(i, y) over a tuple of arrays or ScalarFields.

    ``f(i, y_i)`` returns the slope of stage i (at t + RK4_NODES[i] dt) as a
    tuple matching ``y``.  Stages 1 and 2 share a time but not a state, so
    a caller with per-stage fields selects them by the index i.
    """
    k1 = f(0, y)
    k2 = f(1, tuple(a + dt / 2 * k for a, k in zip(y, k1)))
    k3 = f(2, tuple(a + dt / 2 * k for a, k in zip(y, k2)))
    k4 = f(3, tuple(a + dt * k for a, k in zip(y, k3)))
    return tuple(a + dt / 6 * (p + 2 * q + 2 * r + s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4))


def advance_forward(fm: FlowMap, velocity, dt: float) -> FlowMap:
    """One RK4 particle step of gamma_dot = u(t, gamma) on the packed displacement.

    ``velocity(i, x, y)`` returns the RK4 stage-i velocity ux + i uy, one
    complex array, at the given flat point arrays.
    """
    x0, y0 = fm.grid.x, fm.grid.y

    def f(i, y):
        (d,) = y
        return (velocity(i, (x0 + d.real).ravel(), (y0 + d.imag).ravel()).reshape(x0.shape),)

    (disp,) = _rk4(f, (fm.disp,), dt)
    if not np.all(np.isfinite(disp)):
        raise NumericalAbort("non-finite particle positions")
    return FlowMap(fm.grid, disp)


# Newton stops once every grid point's residual is below this; an inverse
# whose largest residual exceeds INVERSE_TOL is not used (``DiffeoSample``)
NEWTON_TOL = 1e-13
INVERSE_TOL = 1e-12
NEWTON_MAX_ITER = 40
NEWTON_HALVINGS = 8


def invert(fwd: FlowMap) -> tuple[FlowMap, float]:
    """gamma^-1 on the grid points by damped Newton on x + d(x) = y.

    d is the packed displacement of ``fwd``; it and its derivatives d_,x
    and d_,y are sampled through the quintic splines (``_spline_coefficients``)
    of the three spectra of ``_packed_spectra``, the two derivative grids
    sharing the taps of each ``_spline_eval`` call.
    Newton starts at x = y.  A point whose step does not lower its residual
    |x + d(x) - y| halves it, up to ``NEWTON_HALVINGS`` times, and Newton
    stops when every residual is below ``NEWTON_TOL``, when no point moved,
    or after ``NEWTON_MAX_ITER`` steps.  Returns the inverse map and the
    largest final residual.  A gamma that folds (det D gamma <= 0
    somewhere) can still leave a small residual, so a small residual
    alone does not make gamma invertible (``DiffeoSample.inverse``).
    """
    g = fwd.grid
    disp, dx, dy = map(_spline_coefficients, _packed_spectra(fwd))
    y = (g.x + 1j * g.y).ravel()  # the grid points and Newton's iterate, packed as x + i y
    x = y.copy()

    def residual(z, target):
        r = z + _spline_eval((disp,), z.real, z.imag)[0] - target
        return r, np.abs(r)

    r, res = residual(x, y)
    for _ in range(NEWTON_MAX_ITER):
        act = np.flatnonzero(res > NEWTON_TOL)
        if not act.size:
            break
        jx, jy = _spline_eval((dx, dy), x[act].real, x[act].imag)
        a, b, c, d = jx.real + 1.0, jy.real, jx.imag, jy.imag + 1.0
        rx, ry = r[act].real, r[act].imag
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (d * rx - b * ry + 1j * (a * ry - c * rx)) / -(a * d - b * c)
        step[~np.isfinite(step)] = 0.0  # a singular Jacobian: no move
        moved = False
        for _ in range(NEWTON_HALVINGS + 1):
            trial = x[act] + step
            rt, rest = residual(trial, y[act])
            ok = rest < res[act]
            if ok.any():
                moved = True
                i = act[ok]
                x[i], r[i], res[i] = trial[ok], rt[ok], rest[ok]
            act, step = act[~ok], step[~ok] / 2
            if not act.size:
                break
        if not moved:
            break
    return FlowMap(g, (x - y).reshape(g.n, g.n)), float(np.max(res))


def label_rhs(labels: tuple[ScalarField, ScalarField], ux: ScalarField,
              uy: ScalarField) -> tuple[ScalarField, ScalarField]:
    """d_t a_i = -u . grad(a_i) - u_i for both label displacement components.

    No stepping code calls it: it stays public as the test oracle of
    ``invert`` while the benchmark's per-layer table names it.

    The masked stack (ux, uy, d_x a1, d_y a1, d_x a2, d_y a2) goes through
    one batched inverse FFT and the two advection products through one
    forward FFT, with the 2/3-rule dealiasing of ``multiply_dealiased``.
    """
    a1, a2 = labels
    g = a1.grid
    n2 = g.n**2
    d = np.stack([ux.coeff, uy.coeff, g.ikx * a1.coeff, g.iky * a1.coeff,
                  g.ikx * a2.coeff, g.iky * a2.coeff])
    vx, vy, a1x, a1y, a2x, a2y = np.fft.ifft2(d * g.dealias_mask, axes=(-2, -1)).real * n2
    adv = np.fft.fft2(np.stack([vx * a1x + vy * a1y, vx * a2x + vy * a2y]), axes=(-2, -1))
    adv *= g.dealias_mask / n2
    return ScalarField(g, -adv[0] - ux.coeff), ScalarField(g, -adv[1] - uy.coeff)


def advance_back_to_labels(labels: tuple[ScalarField, ScalarField], stage_fields,
                           dt: float) -> tuple[ScalarField, ScalarField]:
    """One RK4 step of the label transport equations d_t A + u . grad A = 0.

    No stepping code calls it: it stays public as the test oracle of
    ``invert`` while the benchmark's per-layer table names it.

    ``labels`` holds the displacement parts (A - id); ``stage_fields[i]``
    holds the RK4 stage-i velocity component ScalarFields on the grid.
    """
    return _rk4(lambda i, a: label_rhs(a, *stage_fields[i]), labels, dt)


def inverse_consistency(fwd: FlowMap, inv: FlowMap) -> float:
    """max |gamma(gamma^-1(x)) - x| over the grid (periodic distance).

    Both displacement components of gamma are summed as one stacked
    Fourier series, so the phase tables at the points are built once.
    """
    g = fwd.grid
    ix, iy = inv.points()
    dx, dy = _fourier_eval(fwd.component_spectra(), g, ix.ravel(), iy.ravel())
    rx = np.mod(ix.ravel() + dx - g.x.ravel() + np.pi, TWO_PI) - np.pi
    ry = np.mod(iy.ravel() + dy - g.y.ravel() + np.pi, TWO_PI) - np.pi
    return float(np.max(np.hypot(rx, ry)))


def transport_check(theta_t: ScalarField, fm: FlowMap, theta0: ScalarField) -> float:
    """Relative L2 size of theta(t) o gamma(t) - theta_0.

    This is the computable form of the coadjoint conservation law.
    """
    n0 = theta0.norm_l2()
    if n0 == 0.0:
        raise ValueError("transport_check needs a nonzero reference field")
    px, py = fm.points()
    vals = interpolate(theta_t, np.column_stack([px.ravel(), py.ravel()])).reshape(px.shape)
    comp = ScalarField.from_values(fm.grid, vals, zero_mean=False)
    return (comp - theta0).norm_l2() / n0


def save_flowmap(path, fm: FlowMap):
    """Bit-exact checkpoint of gamma's displacement, magic "GSQGF" (``write_checkpoint``)."""
    write_checkpoint(path, MAGIC_FLOW, fm.component_spectra())


def load_flowmap(path) -> FlowMap:
    coeffs = read_checkpoint(path, MAGIC_FLOW, 2)
    n = coeffs[0].shape[0]
    dx, dy = np.fft.ifft2(np.stack(coeffs)).real * n**2
    return FlowMap(grid(n), dx + 1j * dy)
