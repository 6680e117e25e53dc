"""Time integration of the beta-SQG family in scalar (theta) form.

The evolved quantity is the active scalar theta with velocity
u = grad_perp (-Lap)^(beta/2 - 1) theta; this is exactly the Euler-Arnold
geodesic equation reduced to the Lie algebra, and the transport form makes
the L2 Casimir of theta conservation free.  The forward flow map is
advanced jointly with theta on the same RK4 stages; the record stores it
at each snapshot, and its inverse is built only where a reader of the
record first needs it (``group_ops.DiffeoSample``).  The conservation
and volume diagnostics of a snapshot are computed when it is taken, so
they can be streamed out while the run goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowMap,
    NumericalAbort,
    _rk4,
    advance_forward,
    jacobian_det_error,
    transport_check,
)
from .group_ops import DiffeoSample
from .spectral import (
    SPLINE_UPSAMPLE,
    ScalarField,
    TWO_PI,
    VectorFieldExact,
    check_beta,
    frac_laplacian,
    gradient_perp,
    inner_product_beta,
    poisson_bracket,
    _packed_max_speed,
    _spline_coefficients,
    _spline_eval,
)


def whole_steps(t_final: float, dt: float) -> int:
    """Number of dt steps that make up t_final.

    Raises ValueError unless dt and t_final are finite and t_final / dt is a whole
    number to 1e-9 relative, so a time integration never stops short of or past t_final.
    """
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not np.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")
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


def _theta_step(theta: ScalarField, beta: float, dt: float):
    """One RK4 step of theta, and the packed velocity spectrum ux + i uy of each stage.

    Each stage computes the stream of its theta once, for its bracket and its
    velocity; one inverse FFT of the packed spectrum gives the speed that the
    CFL check of every stage reads, stage 0 being the start of the step.
    """
    check_beta(beta)
    n = theta.grid.n
    packed_stages = []

    def slope(i, y):
        psi = stream_of(y[0], beta)
        packed = gradient_perp(psi).packed()
        _check_speed(_packed_max_speed(packed), n, dt,
                     f"in RK4 stage {i}" if i else "at the start of the step")
        packed_stages.append(packed)
        return (poisson_bracket(psi, y[0]),)

    (theta_next,) = _rk4(slope, (theta,), dt)
    return theta_next, packed_stages


def step_rk4(theta: ScalarField, beta: float, dt: float) -> ScalarField:
    """Classical 4-stage step of the scalar transport equation (``_theta_step``)."""
    out, _ = _theta_step(theta, beta, dt)
    if not np.all(np.isfinite(out.coeff)):
        raise NumericalAbort("non-finite coefficients after RK4 step")
    return out


def energy(theta: ScalarField, beta: float) -> float:
    """Kinetic energy of the geodesic, E = 1/2 <u, u>_beta."""
    psi = stream_of(theta, beta)
    return 0.5 * inner_product_beta(psi, psi, beta)


def simulate(psi0: ScalarField, config: SolverConfig,
             on_abort=None, on_snapshot=None) -> GeodesicRecord:
    """Advance theta and gamma jointly; record snapshots of theta and gamma.

    No gamma^-1 is built here: each ``DiffeoSample`` builds its inverse
    when first read, and its readers check it, so a run past the
    invertibility of gamma is not stopped here.  Each snapshot's
    diagnostics row is computed when the snapshot is taken and passed to
    ``on_snapshot(row)``, so a caller can stream it out.  On a numerical
    abort the last good snapshot is kept in the record and
    ``on_abort(record)`` is invoked before the exception propagates.
    The stage spline grids of every step are built in one complex (m, m)
    grid, m = ``SPLINE_UPSAMPLE`` N, allocated here, so the working memory
    of the loop does not grow with the stages a step holds.
    """
    config.validate()
    if psi0.grid.n != config.n:
        raise ValueError(f"psi0 is on an N = {psi0.grid.n} grid, the config's n = {config.n}")
    if abs(psi0.mean()) > 1e-13:
        raise ValueError("initial stream must be mean-zero")
    g = psi0.grid
    beta = config.beta
    theta = frac_laplacian(psi0, 1.0 - beta / 2.0)
    fwd = FlowMap.identity(g)
    record = GeodesicRecord(config=config, psi0=psi0)
    nsteps = whole_steps(config.t_final, config.dt)
    buffer = np.empty((SPLINE_UPSAMPLE * g.n,) * 2, dtype=complex)

    def snapshot(t, th, fw):
        record.times.append(t)
        record.thetas.append(th)
        record.diffeos.append(DiffeoSample(fw, t))
        row = diagnostics(t, th, fw, record.thetas[0], beta)
        record.diagnostics_rows.append(row)
        if on_snapshot is not None:
            on_snapshot(row)

    snapshot(0.0, theta, fwd)
    try:
        for step in range(nsteps):
            theta, fwd = _joint_rk4_step(theta, fwd, config, buffer)
            t = (step + 1) * config.dt
            if not np.all(np.isfinite(theta.coeff)):
                raise NumericalAbort(f"non-finite theta at t = {t:.6g}")
            if (step + 1) % config.snapshot_stride == 0 or step == nsteps - 1:
                snapshot(t, theta, fwd)
    except NumericalAbort:
        if on_abort is not None:
            on_abort(record)
        raise
    return record


def _joint_rk4_step(theta, fwd, config, buffer):
    """One RK4 step of theta (``_theta_step``); the particle map takes the same stages.

    Just before the particle stage i samples it, the packed velocity
    spectrum ux + i uy of theta stage i is turned into quintic spline
    coefficients on a grid ``SPLINE_UPSAMPLE`` times finer (the prefilter
    folded into the spectral upsampling), written into ``buffer``, the
    (m, m) grid of ``simulate`` that the next stage overwrites.  This
    keeps particle advection cheap, and one grid alive at a time, without
    giving up spectral accuracy of the underlying field.
    """
    theta_next, packed_stages = _theta_step(theta, config.beta, config.dt)

    def velocity(i, x, y):
        return _spline_eval((_spline_coefficients(packed_stages[i], buffer),), x, y)[0]

    return theta_next, advance_forward(fwd, velocity, config.dt)


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
