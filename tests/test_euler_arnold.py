"""Geodesic time stepping: right-hand side, conservation, reference solver."""

import math
import tracemalloc

import numpy as np
import pytest

from sqglab import euler_arnold as ea
from sqglab.presets import initial_stream, random_stream
from sqglab.flow import FlowMap
from sqglab.spectral import SPLINE_UPSAMPLE, ScalarField, frac_laplacian, grid


def theta_from_stream(psi, beta):
    return frac_laplacian(psi, 1.0 - beta / 2.0)


def test_rhs_closed_form_beta1():
    # theta = cos x + cos 2y, beta = 1: psi = cos x + cos(2y)/2,
    # u = (sin 2y, -sin x), -u.grad(theta) = -sin x sin 2y
    g = grid(64)
    theta = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.cos(2 * y))
    out = ea.rhs(theta, 1.0)
    want = -np.sin(g.x) * np.sin(2 * g.y)
    assert np.max(np.abs(out.values() - want)) < 1e-12


def test_rhs_closed_form_beta0():
    # theta = cos x + cos 2y, beta = 0: psi = cos x + cos(2y)/4,
    # u = (sin(2y)/2, -sin x), -u.grad(theta) = -(3/2) sin x sin 2y
    g = grid(64)
    theta = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.cos(2 * y))
    out = ea.rhs(theta, 0.0)
    want = -1.5 * np.sin(g.x) * np.sin(2 * g.y)
    assert np.max(np.abs(out.values() - want)) < 1e-12


@pytest.mark.parametrize("beta", (0.0, 0.5, 1.0))
def test_cos_y_is_steady(beta):
    g = grid(32)
    theta = theta_from_stream(
        ScalarField.from_function(g, lambda x, y: -np.cos(y)), beta)
    assert np.max(np.abs(ea.rhs(theta, beta).coeff)) < 1e-14


def test_random_stream_stays_in_the_dealiased_band():
    # at N = 32, KMAX = 16 would write kx = 16 and kx = -16 to the same Nyquist row
    g = grid(32)
    with pytest.raises(ValueError, match=r"KMAX = 11 exceeds the dealias cutoff N // 3 = 10"):
        random_stream(g, 1, 11)
    psi = random_stream(g, 1, 10)
    assert np.all(psi.coeff[~g.dealias_mask] == 0)


def test_cfl_violation_raised():
    g = grid(32)
    psi = random_stream(g, 3, 4)
    with pytest.raises(ea.CflViolation):
        ea.step_rk4(theta_from_stream(psi, 0.0), 0.0, 1.0)
    cfg = ea.SolverConfig(beta=0.0, dt=1.0, t_final=1.0, n=32)
    with pytest.raises(ea.CflViolation, match="at the start of the step"):
        ea.simulate(psi, cfg)


def test_cfl_checked_on_every_rk4_stage():
    # random:1:4 speeds up within a step: at beta = 1, dt = 0.098 and N = 32 the
    # start of the step reads CFL 0.4991 and RK4 stage 1 reads 0.5002
    psi = initial_stream("random:1:4", grid(32))
    cfg = ea.SolverConfig(beta=1.0, dt=0.098, t_final=0.098, n=32)
    theta = theta_from_stream(psi, cfg.beta)
    ea.check_cfl(theta, cfg.beta, cfg.dt)  # the start passes
    with pytest.raises(ea.CflViolation, match="in RK4 stage 1"):
        ea.simulate(psi, cfg)
    with pytest.raises(ea.CflViolation, match="in RK4 stage 1"):
        ea.step_rk4(theta, cfg.beta, cfg.dt)


def test_step_rk4_is_the_theta_of_the_joint_step():
    # the reference stepper and the one simulate runs take the same stages
    g = grid(32)
    theta = theta_from_stream(random_stream(g, 5, 4), 0.5)
    cfg = ea.SolverConfig(beta=0.5, dt=0.01, t_final=0.01, n=32)
    buffer = np.empty((SPLINE_UPSAMPLE * 32,) * 2, dtype=complex)
    joint, _ = ea._joint_rk4_step(theta, FlowMap.identity(g), cfg, buffer)
    assert np.array_equal(ea.step_rk4(theta, cfg.beta, cfg.dt).coeff, joint.coeff)


def test_energy_and_casimir_conserved_short_run():
    g = grid(64)
    beta = 1.0
    theta = theta_from_stream(random_stream(g, 5, 4), beta)
    e0, l0 = ea.energy(theta, beta), theta.norm_l2()
    th = theta
    for _ in range(100):
        th = ea.step_rk4(th, beta, 2e-3)
    assert abs(ea.energy(th, beta) - e0) / e0 < 1e-10
    assert abs(th.norm_l2() - l0) / l0 < 1e-10


def test_time_reversal():
    g = grid(64)
    beta = 0.5
    theta = theta_from_stream(random_stream(g, 7, 4), beta)
    th = theta
    for _ in range(50):
        th = ea.step_rk4(th, beta, 2e-3)
    for _ in range(50):
        th = ea.step_rk4(th, beta, -2e-3)
    assert (th - theta).norm_l2() / theta.norm_l2() < 1e-11


def reference_euler_step(w_hat, kx, ky, k2, mask, dt):
    """Independent vorticity-form 2D Euler RK4 step using rfft2 layout."""

    def tend(wh):
        psi_hat = np.zeros_like(wh)
        nz = k2 > 0
        psi_hat[nz] = wh[nz] / k2[nz]
        ux = np.fft.irfft2(-1j * ky * psi_hat)
        uy = np.fft.irfft2(1j * kx * psi_hat)
        wx = np.fft.irfft2(1j * kx * wh)
        wy = np.fft.irfft2(1j * ky * wh)
        out = -np.fft.rfft2(ux * wx + uy * wy)
        return out * mask

    k1 = tend(w_hat)
    k2_ = tend(w_hat + dt / 2 * k1)
    k3 = tend(w_hat + dt / 2 * k2_)
    k4 = tend(w_hat + dt * k3)
    return (w_hat + dt / 6 * (k1 + 2 * k2_ + 2 * k3 + k4)) * mask


def test_beta0_matches_reference_vorticity_solver():
    n = 64
    g = grid(n)
    beta = 0.0
    theta = theta_from_stream(random_stream(g, 11, 4), beta)
    w = theta.values()

    kx1 = np.fft.fftfreq(n, d=1.0 / n)
    ky1 = np.fft.rfftfreq(n, d=1.0 / n)
    kx = kx1[:, None] * np.ones_like(ky1)[None, :]
    ky = np.ones_like(kx1)[:, None] * ky1[None, :]
    k2 = kx**2 + ky**2
    cut = n // 3
    mask = (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
    # the package also drops the Nyquist mode from derivatives
    mask &= np.abs(kx) != n // 2
    mask &= np.abs(ky) != n // 2

    w_hat = np.fft.rfft2(w) * mask
    dt, nsteps = 1e-3, 200
    th = theta
    for _ in range(nsteps):
        w_hat = reference_euler_step(w_hat, kx, ky, k2, mask, dt)
        th = ea.step_rk4(th, beta, dt)
    ref = np.fft.irfft2(w_hat)
    err = np.max(np.abs(th.values() - ref)) / np.max(np.abs(ref))
    assert err < 1e-10


def test_simulate_snapshots_and_diagnostics():
    g = grid(32)
    psi0 = initial_stream("shear", g)
    cfg = ea.SolverConfig(beta=0.5, dt=5e-3, t_final=0.1, n=32,
                          snapshot_stride=10)
    rec = ea.simulate(psi0, cfg)
    assert rec.times[0] == 0.0
    assert np.isclose(rec.times[-1], 0.1)
    assert len(rec.times) == len(rec.thetas) == len(rec.diffeos)
    assert len(rec.diagnostics_rows) == len(rec.times)
    csv = ea.diagnostics_csv(rec.diagnostics_rows)
    lines = csv.strip().split("\n")
    assert lines[0] == ea.DIAG_HEADER
    assert len(lines) == len(rec.times) + 1
    for row in rec.diagnostics_rows:
        assert all(np.isfinite(v) for v in row.values())


@pytest.mark.parametrize("dt, t_final, message", [
    pytest.param(0.003, 0.01, "not a multiple of dt", id="not-a-multiple"),
    pytest.param(math.inf, 1.0, "dt = inf is not finite", id="dt-inf"),
    pytest.param(1e-3, math.inf, "t_final = inf is not finite", id="t_final-inf"),
    pytest.param(math.nan, 1.0, "dt = nan is not finite", id="dt-nan"),
])
def test_t_final_must_be_a_multiple_of_dt(dt, t_final, message):
    cfg = ea.SolverConfig(dt=dt, t_final=t_final, n=32)
    with pytest.raises(ValueError, match=message):
        cfg.validate()
    with pytest.raises(ValueError, match=message):
        ea.simulate(initial_stream("shear", grid(32)), cfg)
    for dt, t_final in ((1e-3, 0.05), (2e-3, 0.2), (5e-3, 0.1), (1.0, 2.0)):
        ea.SolverConfig(dt=dt, t_final=t_final).validate()


def test_simulate_refuses_a_grid_other_than_config_n():
    cfg = ea.SolverConfig(beta=0.5, dt=1e-3, t_final=1e-3, n=64)
    with pytest.raises(ValueError, match="psi0 is on an N = 32 grid, the config's n = 64"):
        ea.simulate(initial_stream("shear", grid(32)), cfg)


def test_simulate_flows_invert_each_other():
    g = grid(32)
    psi0 = initial_stream("shear", g)
    cfg = ea.SolverConfig(beta=0.0, dt=2e-3, t_final=0.2, n=32,
                          snapshot_stride=100)
    rec = ea.simulate(psi0, cfg)
    from sqglab.flow import inverse_consistency

    d = rec.diffeos[-1]
    assert inverse_consistency(d.forward, d.inverse) < 1e-5


def test_simulate_builds_no_inverse(inversions):
    cfg = ea.SolverConfig(beta=0.5, dt=5e-3, t_final=0.05, n=32, snapshot_stride=2)
    rec = ea.simulate(initial_stream("random:1:4", grid(32)), cfg)
    assert len(rec.diffeos) == 6 and inversions == []


@pytest.mark.parametrize("n, limit_mib", [(64, 3), (128, 10)])
def test_simulate_working_memory_is_bounded(n, limit_mib):
    # a second, warmed call: 4 steps and one transport check (the snapshot at
    # t = 0 has none); one (m, m) stage grid, m = 4 N, is 1 MiB at N = 64 and
    # 4 MiB at N = 128
    psi0 = initial_stream("random:3:4", grid(n))
    cfg = ea.SolverConfig(beta=0.5, dt=1e-3, t_final=4e-3, n=n, snapshot_stride=4)
    ea.simulate(psi0, cfg)
    tracemalloc.start()
    try:
        rec = ea.simulate(psi0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.times == [0.0, 4e-3]
    assert rec.diagnostics_rows[-1]["transport_residual"] > 0.0
    assert peak < limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"
