"""End-to-end acceptance suite.

Each test prints one PASS line with the measured quantity; tolerances are
pinned in the assertions.  The expensive shear geodesic and its Jacobi
operators come from session fixtures shared with the unit tests.
"""

import numpy as np
import pytest

from sqglab import cli, euler_arnold as ea, jacobi, morse, sphere
from sqglab.flow import jacobian
from sqglab.group_ops import ad_bracket, adjoint, coadjoint_algebra, coadjoint_group
from sqglab.presets import initial_stream, random_stream
from sqglab.spectral import (
    frac_laplacian,
    gradient_perp,
    grid,
    inner_product_beta,
)

BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_criterion_01_sphere_conjugate_times():
    worst_ode, worst_closed = 0.0, 0.0
    for n in range(1, 21):
        for beta in BETA_GRID:
            t_n = sphere.conjugate_time(n, beta)
            t_ode = sphere.first_sigma_zero(sphere.SphereMode(n, beta), dt=1e-3)
            worst_ode = max(worst_ode, abs(t_ode - t_n))
            _, s = sphere.closed_form(t_n, sphere.SphereMode(n, beta))
            worst_closed = max(worst_closed, abs(s))
    assert worst_ode < 1e-6
    assert worst_closed < 1e-12
    print(f"PASS criterion 1: ODE first-zero err {worst_ode:.3e} < 1e-6, "
          f"closed-form err {worst_closed:.3e} < 1e-12")


def test_criterion_02_clustering_at_criticality():
    rows, _, _ = sphere.cluster_scan(1.0, 200)
    t_vals = np.array([r[2] for r in rows])
    assert np.all(np.diff(t_vals) < 0)
    n = np.arange(1, 201)
    gap = t_vals - sphere.PI_SQRT2
    assert np.all(gap > 0)
    assert np.all(gap <= sphere.PI_SQRT2 / (2 * n))
    rows9, _, _ = sphere.cluster_scan(0.9, 60)
    t9 = np.array([r[2] for r in rows9])
    assert np.all(np.diff(t9[10:]) > 0)
    print(f"PASS criterion 2: beta=1 scan decreasing with gap <= pi*sqrt(2)/(2n); "
          f"beta=0.9 increasing beyond n=10 (T_60 = {t9[-1]:.4f})")


def test_criterion_03_steady_state():
    g = grid(64)
    psi0 = initial_stream("cosy", g)
    worst = 0.0
    for beta in (0.0, 0.5, 1.0):
        theta0 = frac_laplacian(psi0, 1.0 - beta / 2.0)
        th = theta0
        for _ in range(1000):  # dt = 1e-3 up to t = 1
            th = ea.step_rk4(th, beta, 1e-3)
        drift = (th - theta0).norm_l2() / theta0.norm_l2()
        worst = max(worst, drift)
    assert worst < 1e-10
    print(f"PASS criterion 3: steady-state drift {worst:.3e} < 1e-10")


def test_criterion_04_conservation():
    g = grid(128)
    psi0 = initial_stream("random:11:4", g)
    cfg = ea.SolverConfig(beta=0.5, dt=2e-3, t_final=1.0, n=128,
                          snapshot_stride=100)
    rec = ea.simulate(psi0, cfg)
    rows = rec.diagnostics_rows
    e0, l0 = rows[0]["energy"], rows[0]["theta_l2"]
    e_drift = max(abs(r["energy"] - e0) / abs(e0) for r in rows)
    l_drift = max(abs(r["theta_l2"] - l0) / abs(l0) for r in rows)
    det_err = max(r["det_jac_err"] for r in rows)
    transport = max(r["transport_residual"] for r in rows)
    assert e_drift < 1e-8
    assert l_drift < 1e-8
    assert transport < 1e-3
    assert det_err < 1e-6
    print(f"PASS criterion 4: energy {e_drift:.3e}, L2 {l_drift:.3e}, "
          f"transport {transport:.3e}, det err {det_err:.3e}")


def test_criterion_05_convergence_order():
    g = grid(64)
    beta = 0.5
    psi0 = initial_stream("random:7:4", g)
    errs = {}
    prev = None
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        th = frac_laplacian(psi0, 1.0 - beta / 2.0)
        for _ in range(round(0.2 / dt)):
            th = ea.step_rk4(th, beta, dt)
        if prev is not None:
            errs[dt * 2] = (prev - th).norm_l2()
        prev = th
    dts = sorted(errs)
    slope = np.polyfit(np.log2(dts), np.log2([errs[d] for d in dts]), 1)[0]
    assert abs(slope - 4.0) < 0.3
    print(f"PASS criterion 5: self-convergence slope {slope:.3f} within 4 +- 0.3")


@pytest.fixture(scope="module")
def duality_diffeo():
    g = grid(64)
    cfg = ea.SolverConfig(beta=0.0, dt=2e-3, t_final=0.3, n=64,
                          snapshot_stride=150)
    return ea.simulate(initial_stream("shear", g), cfg).diffeos[-1]


def test_criterion_06_duality_identities(duality_diffeo):
    g = grid(64)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for beta in (0.0, 0.5, 1.0):
        for _ in range(20):
            su, sv, sw = (int(s) for s in rng.integers(0, 10**6, size=3))
            u = gradient_perp(random_stream(g, su, 5))
            v = gradient_perp(random_stream(g, sv, 5))
            w = gradient_perp(random_stream(g, sw, 5))
            lhs = inner_product_beta(coadjoint_algebra(u, v, beta).stream,
                                     w.stream, beta)
            rhs = inner_product_beta(v.stream, ad_bracket(u, w).stream, beta)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
            lhs = inner_product_beta(
                coadjoint_group(duality_diffeo, u, beta).stream, v.stream, beta)
            rhs = inner_product_beta(
                u.stream, adjoint(duality_diffeo, v).stream, beta)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst < 1e-6
    print(f"PASS criterion 6: duality relative error {worst:.3e} < 1e-6")


def test_criterion_07_lemma_decomposition(shear_record, shear_basis,
                                          shear_lambdas, shear_phi):
    omega, _, resid = jacobi.omega_gamma_split(
        shear_record, shear_basis, 0.5, shear_phi, lambdas=shear_lambdas)
    assert resid < 1e-3
    min_eig = np.inf
    for s in omega[1:]:
        sym = 0.5 * (s.matrix + s.matrix.T)
        min_eig = min(min_eig, np.linalg.eigvalsh(sym).min())
    assert min_eig > 0.0
    eye = np.eye(shear_basis.dim)
    devs = []
    for i in (1, 2, 4):
        h = shear_phi.times[i]
        devs.append((h, np.linalg.norm(shear_phi.values[i, 0] / h - eye)))
    # first-order decay: deviation roughly proportional to h
    for (h1, d1), (h2, d2) in zip(devs, devs[1:]):
        ratio = (d2 / d1) / (h2 / h1)
        assert 0.5 < ratio < 2.0
    print(f"PASS criterion 7: residual {resid:.3e} < 1e-3, "
          f"min Omega eig {min_eig:.3e} > 0, Phi(h)/h - I first order in h")


def test_criterion_08_jacobi_vs_perturbed_geodesic(shear_record, shear_basis,
                                                   shear_phi):
    g = grid(64)
    psi0 = shear_record.psi0
    cfg = shear_record.config
    eps = 1e-4
    rng = np.random.default_rng(42)
    # directions from the resolved low-mode span, so the comparison probes
    # the Jacobi propagator rather than the Galerkin cutoff
    low = np.repeat(np.sum(shear_basis.k**2, axis=1) <= 2, 2)
    worst = 0.0
    for _ in range(3):
        w0 = np.zeros(shear_basis.dim)
        w0[low] = rng.normal(size=int(low.sum()))
        w0 /= np.linalg.norm(w0)
        rec_eps = ea.simulate(psi0 + shear_basis.field_of(w0) * eps, cfg)
        for i in range(1, len(shear_record.times)):
            j = (rec_eps.diffeos[i].forward.disp - shear_record.diffeos[i].forward.disp) / eps
            jx, jy = j.real, j.imag
            w = shear_basis.vector_of(shear_phi.values[i, 0] @ w0)
            wx, wy = (f.values() for f in w.component_fields())
            jac = jacobian(shear_record.diffeos[i].forward)
            px = jac[0, 0] * wx + jac[0, 1] * wy
            py = jac[1, 0] * wx + jac[1, 1] * wy
            num = np.sqrt(np.mean((jx - px) ** 2 + (jy - py) ** 2))
            den = np.sqrt(np.mean(px**2 + py**2))
            worst = max(worst, num / den)
    assert worst < 1e-2
    print(f"PASS criterion 8: dexp oracle relative error {worst:.3e} < 1e-2")


def brute_force_lattice_below(lam):
    r = int(np.ceil(np.sqrt(lam))) + 1
    return sum(1 for kx in range(-r, r + 1) for ky in range(-r, r + 1)
               if 0 < kx * kx + ky * ky < lam)


def test_criterion_09_morse_bound_behavior():
    sp = morse.Spectrum.torus(8)
    ref = morse.morse_bound(morse.MorseInput(1.0, 16.0, np.pi, 0.0, sp))
    assert ref.aleph == 8
    assert ref.aleph == brute_force_lattice_below(4.0)

    big = morse.Spectrum.torus(1025)
    prev = -1
    counts = []
    for beta in (0.0, 0.5, 0.75, 0.9):
        aleph = morse.morse_bound(
            morse.MorseInput(1.0, 16.0, np.pi, beta, big)).aleph
        counts.append(aleph)
        assert aleph > prev
        prev = aleph

    assert morse.morse_bound(morse.MorseInput(1.0, 1.0, 1.0, 0.0, sp)).aleph == 0

    sp64 = morse.Spectrum.torus(64)
    prev = -1
    for t in np.linspace(np.pi, 3 * np.pi, 5):
        aleph = morse.morse_bound(morse.MorseInput(1.0, 16.0, t, 0.5, sp64)).aleph
        assert aleph >= prev
        prev = aleph
    print(f"PASS criterion 9: reference count 8, strictly increasing in beta "
          f"{counts}, zero below lambda_1, monotone in T")


def test_criterion_10_upper_bound_consistency():
    for beta in (0.0, 0.5, 0.75):
        horizon = 1.1 * sphere.conjugate_time(1, beta)
        times = np.linspace(0.0, horizon, 801)
        phi = sphere.sphere_phi_samples(range(1, 31), beta, times)
        report = jacobi.detect_conjugate(phi)
        detected = sum(m for _, m in report.detected)
        delta, c = morse.sphere_rotation_constants(beta, 50)
        inp = morse.MorseInput(delta, c, horizon, beta,
                               morse.Spectrum.sphere(30))
        aleph = morse.morse_bound(inp).aleph
        assert detected >= 2  # the degree-1 pair is always inside the horizon
        assert detected <= aleph
        print(f"PASS criterion 10: beta={beta} detected {detected} <= "
              f"aleph {aleph}")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["verify", "--out", str(out)])
        assert rc == 0
        outs.append((out / "verify.csv").read_bytes())
    assert outs[0] == outs[1]
    print("PASS criterion 11: verify CSV byte-identical across two runs")
