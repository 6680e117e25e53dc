"""Flow map, its inverse and Jacobian of a time-dependent velocity.

The forward map gamma(t) is advanced as particles seeded at the grid
points, gamma_dot(t, x) = u(t, gamma(t, x)).  The inverse map is not
stepped: ``invert`` solves gamma(x) = y for x at the grid points y by
damped Newton on the quintic spline of gamma's displacement, when a
snapshot needs it.  Both maps are stored as periodic displacement fields
on the fixed grid.  The label transport of gamma^-1 (``label_rhs``,
``advance_back_to_labels``) is kept only as the test oracle of ``invert``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .spectral import (
    MAGIC_FLOW,
    ScalarField,
    SpectralGrid,
    TWO_PI,
    _spline_coefficients,
    _spline_eval,
    grid,
    interpolate,
    read_checkpoint,
)


class NumericalAbort(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True)
class FlowMap:
    """Sampled diffeomorphism x -> x + displacement(x), periodic."""

    grid: SpectralGrid
    disp_x: np.ndarray
    disp_y: np.ndarray

    @classmethod
    def identity(cls, g: SpectralGrid):
        z = np.zeros((g.n, g.n))
        return cls(g, z, z.copy())

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        return self.grid.x + self.disp_x, self.grid.y + self.disp_y

    def displacement_fields(self) -> tuple[ScalarField, ScalarField]:
        g = self.grid
        return (ScalarField.from_values(g, self.disp_x, zero_mean=False),
                ScalarField.from_values(g, self.disp_y, zero_mean=False))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.disp_x)) and np.all(np.isfinite(self.disp_y)))


def jacobian(fm: FlowMap) -> np.ndarray:
    """D gamma as a (2, 2, N, N) array via spectral differentiation."""
    g = fm.grid
    fx, fy = fm.displacement_fields()
    out = np.empty((2, 2, g.n, g.n))
    out[0, 0] = np.fft.ifft2(g.ikx * fx.coeff).real * g.n**2 + 1.0
    out[0, 1] = np.fft.ifft2(g.iky * fx.coeff).real * g.n**2
    out[1, 0] = np.fft.ifft2(g.ikx * fy.coeff).real * g.n**2
    out[1, 1] = np.fft.ifft2(g.iky * fy.coeff).real * g.n**2 + 1.0
    return out


def jacobian_det_error(fm: FlowMap) -> float:
    """max |det D gamma - 1| over the grid."""
    j = jacobian(fm)
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    return float(np.max(np.abs(det - 1.0)))


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
    """One RK4 particle step of gamma_dot = u(t, gamma).

    ``velocity(i, x, y)`` returns the RK4 stage-i velocity components
    (ux, uy) at the given point arrays.
    """
    x0, y0 = fm.grid.x, fm.grid.y

    def f(i, d):
        ux, uy = velocity(i, (x0 + d[0]).ravel(), (y0 + d[1]).ravel())
        return ux.reshape(x0.shape), uy.reshape(y0.shape)

    ndx, ndy = _rk4(f, (fm.disp_x, fm.disp_y), dt)
    if not (np.all(np.isfinite(ndx)) and np.all(np.isfinite(ndy))):
        raise NumericalAbort("non-finite particle positions")
    return FlowMap(fm.grid, ndx, ndy)


# Newton stops once every grid point's residual is below this; an inverse
# whose largest residual exceeds INVERSE_TOL is not used (``DiffeoSample``)
NEWTON_TOL = 1e-13
INVERSE_TOL = 1e-12
NEWTON_MAX_ITER = 40
NEWTON_HALVINGS = 8


def invert(fwd: FlowMap, guess: FlowMap) -> tuple[FlowMap, float]:
    """gamma^-1 on the grid points by damped Newton on x + d(x) = y.

    d is the displacement of ``fwd``; it and its four derivatives are
    sampled through the quintic spline of ``_spline_coefficients`` (d_x +
    i d_y, d_x,x + i d_x,y and d_y,x + i d_y,y as three packed grids; the
    two derivative grids share the taps of each ``_spline_eval`` call).
    Newton starts at the points of ``guess``, in a run the previous
    snapshot's inverse.  A point whose step does not lower its residual
    |x + d(x) - y| halves it, up to ``NEWTON_HALVINGS`` times, and Newton
    stops when every residual is below ``NEWTON_TOL``, when no point moved,
    or after ``NEWTON_MAX_ITER`` steps.  Returns the inverse map and the
    largest final residual, large where gamma is not invertible.
    """
    g = fwd.grid
    fx, fy = fwd.displacement_fields()
    packed = (fx.coeff + 1j * fy.coeff,
              g.ikx * fx.coeff + 1j * g.iky * fx.coeff,
              g.ikx * fy.coeff + 1j * g.iky * fy.coeff)
    disp, dx, dy = map(_spline_coefficients, packed)
    y = np.stack([g.x.ravel(), g.y.ravel()])
    x = y + np.stack([guess.disp_x.ravel(), guess.disp_y.ravel()])

    def residual(pts, target):
        (d,) = _spline_eval((disp,), pts[0], pts[1])
        r = pts + np.stack([d.real, d.imag]) - target
        return r, np.hypot(r[0], r[1])

    r, res = residual(x, y)
    for _ in range(NEWTON_MAX_ITER):
        act = np.flatnonzero(res > NEWTON_TOL)
        if not act.size:
            break
        jx, jy = _spline_eval((dx, dy), x[0, act], x[1, act])
        a, b, c, d = jx.real + 1.0, jx.imag, jy.real, jy.imag + 1.0
        rx, ry = r[:, act]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.stack([d * rx - b * ry, a * ry - c * rx]) / -(a * d - b * c)
        step[:, ~np.isfinite(step).all(axis=0)] = 0.0  # a singular Jacobian: no move
        moved = False
        for _ in range(NEWTON_HALVINGS + 1):
            trial = x[:, act] + step
            rt, rest = residual(trial, y[:, act])
            ok = rest < res[act]
            if ok.any():
                moved = True
                i = act[ok]
                x[:, i], r[:, i], res[i] = trial[:, ok], rt[:, ok], rest[ok]
            act, step = act[~ok], step[:, ~ok] / 2
            if not act.size:
                break
        if not moved:
            break
    disp = (x - y).reshape(2, g.n, g.n)
    return FlowMap(g, disp[0], disp[1]), float(np.max(res))


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
    """max |gamma(gamma^-1(x)) - x| over the grid (periodic distance)."""
    g = fwd.grid
    ix, iy = inv.points()
    fx, fy = fwd.displacement_fields()
    pts = np.column_stack([ix.ravel(), iy.ravel()])
    dx = interpolate(fx, pts)
    dy = interpolate(fy, pts)
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
    """Checkpoint: magic "GSQGF", version, N, then 2 coefficient channels."""
    fx, fy = fm.displacement_fields()
    with open(path, "wb") as fh:
        fh.write(MAGIC_FLOW)
        fh.write(struct.pack("<II", 1, fm.grid.n))
        fh.write(np.ascontiguousarray(fx.coeff, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(fy.coeff, dtype="<c16").tobytes())


def load_flowmap(path) -> FlowMap:
    cx, cy = read_checkpoint(path, MAGIC_FLOW, 2)
    n = cx.shape[0]
    dx = np.fft.ifft2(cx).real * n**2
    dy = np.fft.ifft2(cy).real * n**2
    return FlowMap(grid(n), dx, dy)
