"""Closed-form rotating-sphere backend."""

import numpy as np
import pytest

from sqglab import sphere


def _integrate_mode_reference(mode, dt, t_final):
    """(xi, sigma) by one inline RK4 step of xi' = -i omega xi, sigma' = xi per sample."""
    nsteps = round(t_final / dt)
    xi = np.empty(nsteps + 1, dtype=complex)
    sigma = np.empty(nsteps + 1, dtype=complex)
    xi[0], sigma[0] = 1.0, 0.0
    w = mode.omega
    x, s = 1.0 + 0.0j, 0.0 + 0.0j
    for i in range(nsteps):
        k1x, k1s = -1j * w * x, x
        k2x, k2s = -1j * w * (x + dt / 2 * k1x), x + dt / 2 * k1x
        k3x, k3s = -1j * w * (x + dt / 2 * k2x), x + dt / 2 * k2x
        k4x, k4s = -1j * w * (x + dt * k3x), x + dt * k3x
        x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        s = s + dt / 6 * (k1s + 2 * k2s + 2 * k3s + k4s)
        xi[i + 1], sigma[i + 1] = x, s
    return xi, sigma


def test_mode_validation():
    with pytest.raises(ValueError):
        sphere.SphereMode(0, 0.5)
    with pytest.raises(ValueError):
        sphere.SphereMode(2, 1.5)


def test_omega_and_conjugate_time_formulas():
    for n in (1, 2, 5):
        for beta in (0.0, 0.5, 1.0):
            mode = sphere.SphereMode(n, beta)
            lam = n * (n + 1)
            assert np.isclose(mode.omega, n * (2.0 / lam) ** (1 - beta / 2))
            assert np.isclose(sphere.conjugate_time(n, beta),
                              (2 * np.pi / n) * (lam / 2.0) ** (1 - beta / 2))
            # sigma vanishes exactly when the phase completes a full turn
            assert np.isclose(mode.omega * sphere.conjugate_time(n, beta),
                              2 * np.pi)


def test_closed_form_satisfies_ode():
    mode = sphere.SphereMode(3, 0.75)
    t = np.linspace(0.1, 4.0, 7)
    h = 1e-6
    xi_p, s_p = sphere.closed_form(t + h, mode)
    xi_m, s_m = sphere.closed_form(t - h, mode)
    xi, s = sphere.closed_form(t, mode)
    assert np.max(np.abs((xi_p - xi_m) / (2 * h) + 1j * mode.omega * xi)) < 1e-7
    # sigma amplitude integrates xi up to the constant mode scaling
    scale = (1j / mode.n) * (mode.eigenvalue / 2.0) ** (1 - mode.beta / 2)
    assert np.max(np.abs((s_p - s_m) / (2 * h) - scale * (-1j * mode.omega) * xi)) < 1e-6


def test_integrator_matches_closed_form():
    mode = sphere.SphereMode(2, 1.0)
    times, xi, sigma = sphere.integrate_mode(mode, 1e-3, 3.0)
    xi_ref, _ = sphere.closed_form(times, mode)
    assert np.max(np.abs(xi - xi_ref)) < 1e-11
    # the amplitude normalization makes sigma equal to the closed form
    _, s_ref = sphere.closed_form(times, mode)
    assert np.max(np.abs(sigma - s_ref)) < 1e-10


@pytest.mark.parametrize("n, beta, t_final, tol", [(20, 0.0, 82.5, 1e-10),
                                                    (2, 1.0, 3.0, 1e-12)])
def test_integrate_mode_matches_stepwise_rk4(n, beta, t_final, tol):
    # (20, 0, 82.5) is the longest first_sigma_zero search of criterion 01
    mode = sphere.SphereMode(n, beta)
    _, xi, sigma = sphere.integrate_mode(mode, 1e-3, t_final)
    xi_ref, sigma_ref = _integrate_mode_reference(mode, 1e-3, t_final)
    assert np.max(np.abs(xi - xi_ref)) < tol
    assert np.max(np.abs(sigma - sigma_ref)) < tol


def test_first_sigma_zero_accuracy():
    for n in (1, 3, 10):
        for beta in (0.0, 0.5, 1.0):
            t = sphere.first_sigma_zero(sphere.SphereMode(n, beta), dt=1e-3)
            assert abs(t - sphere.conjugate_time(n, beta)) < 1e-7


def test_cluster_scan_critical_accumulates():
    rows, min_gap, dist = sphere.cluster_scan(1.0, 100)
    t_vals = np.array([r[2] for r in rows])
    assert np.all(np.diff(t_vals) < 0)
    assert dist < sphere.PI_SQRT2 / 100
    assert t_vals[-1] > sphere.PI_SQRT2


def test_cluster_scan_subcritical_spreads():
    rows, _, _ = sphere.cluster_scan(0.9, 60)
    t_vals = np.array([r[2] for r in rows])
    assert np.all(np.diff(t_vals[10:]) > 0)


def test_cluster_scan_csv_format():
    text = sphere.cluster_scan_csv(1.0, 5)
    lines = text.strip().split("\n")
    assert lines[0] == sphere.SCAN_HEADER
    assert lines[-1] == sphere.SCAN_FOOTER
    assert len(lines) == 7
    n, beta, tn = lines[1].split(",")
    assert int(n) == 1 and float(beta) == 1.0
    assert np.isclose(float(tn), sphere.conjugate_time(1, 1.0))


def test_phi_samples_block_structure(densify):
    times = np.linspace(0.0, 2.0, 5)
    blocks = sphere.sphere_phi_samples([1, 2], 0.5, times)
    # two 2x2 blocks, on the index pairs (0, 1) and (2, 3)
    assert blocks.values.shape == (5, 2, 2, 2)
    dense = densify(blocks).values[:, 0]
    assert dense[0].shape == (4, 4)
    assert np.max(np.abs(dense[0])) < 1e-14
    m = dense[3]
    # off-diagonal blocks stay zero; each block is a rotation-scaling
    assert np.max(np.abs(m[:2, 2:])) < 1e-14
    assert np.isclose(m[0, 0], m[1, 1]) and np.isclose(m[0, 1], -m[1, 0])


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_phi_samples_match_per_mode_closed_form(beta):
    degrees = range(1, 31)
    times = np.linspace(0.0, 7.2, 97)
    blocks = sphere.sphere_phi_samples(degrees, beta, times)
    assert np.array_equal(blocks.times, times)
    # nothing outside the blocks: degree j owns exactly the indices 2j, 2j + 1
    values = blocks.values
    assert values.shape == (len(times), len(degrees), 2, 2)
    for j, n in enumerate(degrees):
        _, s = sphere.closed_form(times, sphere.SphereMode(n, beta))
        block = np.stack([np.stack([s.real, -s.imag], -1),
                          np.stack([s.imag, s.real], -1)], -2)
        assert np.max(np.abs(values[:, j] - block)) <= 1e-15 * np.max(np.abs(s))


def test_integrate_mode_rejects_partial_final_step():
    mode = sphere.SphereMode(1, 0.5)
    with pytest.raises(ValueError, match="not a multiple"):
        sphere.integrate_mode(mode, 0.003, 0.01)
    with pytest.raises(ValueError, match="not a multiple"):
        sphere.integrate_mode(mode, 0.003, 0.001)
    times, _, _ = sphere.integrate_mode(mode, 0.003, 0.009)
    assert len(times) == 4 and np.isclose(times[-1], 0.009)
