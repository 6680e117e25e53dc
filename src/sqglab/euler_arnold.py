"""Time integration of the beta-SQG family in scalar (theta) form.

The evolved quantity is the active scalar theta with velocity
u = grad_perp (-Lap)^(beta/2 - 1) theta; this is exactly the Euler-Arnold
geodesic equation reduced to the Lie algebra, and the transport form makes
the L2 Casimir of theta conservation free.  The forward flow map is
advanced jointly with theta on the same RK4 stages; its inverse is built
only at the snapshots, by Newton inversion (``flow.invert``).  The
conservation and volume diagnostics of a snapshot are computed when it is
taken, so they can be streamed out while the run goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowMap,
    NumericalAbort,
    _rk4,
    advance_forward,
    invert,
    jacobian_det_error,
    transport_check,
)
from .group_ops import DiffeoSample
from .spectral import (
    ScalarField,
    TWO_PI,
    VectorFieldExact,
    check_beta,
    frac_laplacian,
    gradient_perp,
    inner_product_beta,
    poisson_bracket,
    _spline_coefficients,
    _spline_eval,
)


def whole_steps(t_final: float, dt: float) -> int:
    """Number of dt steps that make up t_final.

    Raises ValueError unless t_final / dt is a whole number to 1e-9 relative,
    so a time integration never silently stops short of or past t_final.
    """
    steps = t_final / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_final = {t_final:g} is not a multiple of dt = {dt:g}")
    return round(steps)


CFL_LIMIT = 0.5


class CflViolation(RuntimeError):
    """Advective CFL guard tripped."""


@dataclass(frozen=True)
class SolverConfig:
    beta: float = 0.0
    dt: float = 1e-3
    t_final: float = 1.0
    n: int = 64
    snapshot_stride: int = 50

    def validate(self):
        check_beta(self.beta)
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        whole_steps(self.t_final, self.dt)
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be >= 1")


@dataclass
class GeodesicRecord:
    """Time-sampled geodesic: theta snapshots, flow maps, diagnostics."""

    config: SolverConfig
    psi0: ScalarField
    times: list[float] = field(default_factory=list)
    thetas: list[ScalarField] = field(default_factory=list)
    diffeos: list[DiffeoSample] = field(default_factory=list)
    diagnostics_rows: list[dict] = field(default_factory=list)

    def theta0(self) -> ScalarField:
        return frac_laplacian(self.psi0, 1.0 - self.config.beta / 2.0)

    def u0(self) -> VectorFieldExact:
        return gradient_perp(self.psi0)


def stream_of(theta: ScalarField, beta: float) -> ScalarField:
    return frac_laplacian(theta, beta / 2.0 - 1.0)


def rhs(theta: ScalarField, beta: float) -> ScalarField:
    """-u . grad(theta) = {psi, theta}, dealiased, mean-zero."""
    check_beta(beta)
    return poisson_bracket(stream_of(theta, beta), theta)


def max_speed(theta: ScalarField, beta: float) -> float:
    return gradient_perp(stream_of(theta, beta)).max_speed()


def _check_speed(m: float, n: int, dt: float, where: str):
    """Raise CflViolation if max|u| = m breaks the CFL limit on an n-point grid."""
    cfl = dt * m * n / TWO_PI
    if cfl > CFL_LIMIT:
        raise CflViolation(
            f"CFL {cfl:.4f} > {CFL_LIMIT} {where} (max|u| = {m:.6g}, dt = {dt:.3g})"
        )


def check_cfl(theta: ScalarField, beta: float, dt: float):
    _check_speed(max_speed(theta, beta), theta.grid.n, dt, "at the start of the step")


def step_rk4(theta: ScalarField, beta: float, dt: float) -> ScalarField:
    """Classical 4-stage step of the scalar transport equation."""
    check_cfl(theta, beta, dt)
    (out,) = _rk4(lambda i, y: (rhs(y[0], beta),), (theta,), dt)
    if not np.all(np.isfinite(out.coeff)):
        raise NumericalAbort("non-finite coefficients after RK4 step")
    return out


def energy(theta: ScalarField, beta: float) -> float:
    """Kinetic energy of the geodesic, E = 1/2 <u, u>_beta."""
    psi = stream_of(theta, beta)
    return 0.5 * inner_product_beta(psi, psi, beta)


def _stage_velocity(theta: ScalarField, beta: float, psi: ScalarField | None = None):
    """Velocity components of a stage theta and their packed spectrum ux + i uy.

    ``psi`` is the stream of theta when the caller already has it.  One
    inverse FFT of the packed spectrum gives ux + i uy on the grid, so its
    modulus is the speed the stage's CFL check reads.
    """
    if psi is None:
        psi = stream_of(theta, beta)
    ux, uy = gradient_perp(psi).component_fields()
    return (ux, uy), ux.coeff + 1j * uy.coeff


def simulate(psi0: ScalarField, config: SolverConfig,
             on_abort=None, on_snapshot=None) -> GeodesicRecord:
    """Advance theta and gamma jointly; record snapshots with gamma^-1.

    gamma^-1 is built only at a snapshot, by ``flow.invert`` warm-started
    from the previous snapshot's inverse; its residual is kept in the
    ``DiffeoSample`` and checked by the consumers of the inverse, so a run
    past the invertibility of gamma is not stopped here.  Each snapshot's
    diagnostics row is computed when the snapshot is taken and passed to
    ``on_snapshot(row)``, so a caller can stream it out.  On a numerical
    abort the last good snapshot is kept in the record and
    ``on_abort(record)`` is invoked before the exception propagates.
    """
    config.validate()
    if abs(psi0.mean()) > 1e-13:
        raise ValueError("initial stream must be mean-zero")
    g = psi0.grid
    beta = config.beta
    theta = frac_laplacian(psi0, 1.0 - beta / 2.0)
    fwd = FlowMap.identity(g)
    record = GeodesicRecord(config=config, psi0=psi0)
    nsteps = whole_steps(config.t_final, config.dt)

    def snapshot(t, th, fw):
        guess = record.diffeos[-1].inverse if record.diffeos else FlowMap.identity(g)
        inv, residual = invert(fw, guess)
        record.times.append(t)
        record.thetas.append(th)
        record.diffeos.append(DiffeoSample(fw, inv, t, residual))
        row = diagnostics(t, th, fw, record.thetas[0], beta)
        record.diagnostics_rows.append(row)
        if on_snapshot is not None:
            on_snapshot(row)

    snapshot(0.0, theta, fwd)
    try:
        for step in range(nsteps):
            theta, fwd = _joint_rk4_step(theta, fwd, config)
            t = (step + 1) * config.dt
            if not np.all(np.isfinite(theta.coeff)):
                raise NumericalAbort(f"non-finite theta at t = {t:.6g}")
            if (step + 1) % config.snapshot_stride == 0 or step == nsteps - 1:
                if not record.times or record.times[-1] != t:
                    snapshot(t, theta, fwd)
    except NumericalAbort:
        if on_abort is not None:
            on_abort(record)
        raise
    return record


def _joint_rk4_step(theta, fwd, config):
    """One RK4 step of theta; the particle map takes the same stages.

    Each stage computes the stream of its theta once, for its velocity and
    its bracket.  The CFL limit is checked on the velocity of every stage,
    stage 0 being the start of the step.  Each stage velocity is also
    turned into quintic spline coefficients on a grid ``SPLINE_UPSAMPLE``
    times finer (the prefilter folded into the spectral upsampling), which
    the particle stages sample; this keeps particle advection cheap without
    giving up spectral accuracy of the underlying field.
    """
    beta, dt = config.beta, config.dt
    n = theta.grid.n
    coef = []

    def theta_rhs(i, y):
        psi = stream_of(y[0], beta)
        _, packed = _stage_velocity(y[0], beta, psi)
        speed = float(np.max(np.abs(np.fft.ifft2(packed)))) * n**2
        _check_speed(speed, n, dt, f"in RK4 stage {i}" if i else "at the start of the step")
        coef.append(_spline_coefficients(packed))
        return (poisson_bracket(psi, y[0]),)

    (theta_next,) = _rk4(theta_rhs, (theta,), dt)

    def velocity(i, x, y):
        (u,) = _spline_eval((coef[i],), x, y)
        return u.real, u.imag

    return theta_next, advance_forward(fwd, velocity, dt)


DIAG_HEADER = "t,energy,theta_l2,max_u,det_jac_err,transport_residual"


def diagnostics(t: float, theta: ScalarField, forward: FlowMap, theta0: ScalarField,
                beta: float) -> dict:
    """Conservation and volume-preservation checks of the snapshot at time t."""
    if t == 0.0 or theta0.norm_l2() == 0.0:
        det_err, resid = 0.0, 0.0
    else:
        det_err = jacobian_det_error(forward)
        resid = transport_check(theta, forward, theta0)
    return {
        "t": t,
        "energy": energy(theta, beta),
        "theta_l2": theta.norm_l2(),
        "max_u": max_speed(theta, beta),
        "det_jac_err": det_err,
        "transport_residual": resid,
    }


def diagnostics_line(row: dict) -> str:
    """One ``DIAG_HEADER`` row of diagnostics.csv, without the newline."""
    return ",".join(f"{row[k]:.17g}" for k in DIAG_HEADER.split(","))


def diagnostics_csv(rows: list[dict]) -> str:
    return "\n".join([DIAG_HEADER] + [diagnostics_line(r) for r in rows]) + "\n"
