"""Spectra, counting bound, extracted constants, index form."""

import numpy as np
import pytest
from scipy import linalg as sla

from sqglab import morse, sphere
from sqglab.euler_arnold import SolverConfig, simulate
from sqglab.jacobi import k0_matrix, make_basis
from sqglab.presets import initial_stream, random_stream
from sqglab.spectral import gradient_perp, grid, stream_sobolev_sq


def brute_force_torus_count(lam, strict=False):
    """Independent lattice enumeration for the torus spectrum."""
    r = int(np.ceil(np.sqrt(lam))) + 1
    count = 0
    for kx in range(-r, r + 1):
        for ky in range(-r, r + 1):
            k2 = kx * kx + ky * ky
            if k2 == 0:
                continue
            if (k2 < lam) if strict else (k2 <= lam):
                count += 1
    return count


def test_torus_spectrum_counts():
    sp = morse.Spectrum.torus(8)
    for lam in (1.0, 2.0, 4.0, 10.0, 25.0):
        assert morse.weyl_count(sp, lam) == brute_force_torus_count(lam)
    assert morse.weyl_count(sp, 1.0) == 4
    assert morse.weyl_count(sp, 2.0) == 8
    assert morse.weyl_count(sp, 4.0) == 12


def test_sphere_spectrum_counts():
    sp = morse.Spectrum.sphere(10)
    assert morse.weyl_count(sp, 2.0) == 3
    assert morse.weyl_count(sp, 6.0) == 8
    assert morse.weyl_count(sp, 12.0) == 15


def test_coverage_error():
    sp = morse.Spectrum.torus(4)
    with pytest.raises(morse.CoverageError):
        morse.weyl_count(sp, 17.0)


def test_weyl_asymptotic_device():
    sp = morse.Spectrum.torus(64)
    for lam in (100.0, 1000.0, 4000.0):
        # the reported device is (area / 2 pi) lambda and stays an upper bound
        assert np.isclose(morse.weyl_asymptotic(sp, lam),
                          sp.area / (2 * np.pi) * lam)
        exact = morse.weyl_count(sp, lam)
        assert exact <= morse.weyl_asymptotic(sp, lam)
        # the exact lattice count itself follows the circle law pi lambda
        assert abs(exact / (np.pi * lam) - 1.0) < 0.05


def test_delta_inf_on_short_shear_record():
    g = grid(64)
    cfg = SolverConfig(beta=0.5, dt=2e-3, t_final=0.2, n=64, snapshot_stride=25)
    rec = simulate(initial_stream("shear", g), cfg)
    delta = morse.delta_inf(rec)
    assert np.isfinite(delta) and 0.0 < delta <= 1.0
    basis = make_basis(g, 6, beta=0.0)
    norms = [np.linalg.svd(morse.ad_inverse_matrix(d, basis), compute_uv=False)[0]
             for d in rec.diffeos]
    assert np.isclose(delta, min(s**-2 for s in norms), rtol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_c_constant_attained_and_bounds_random_directions(beta):
    g = grid(32)
    basis = make_basis(g, 4, beta)
    u0 = gradient_perp(random_stream(g, 8, 4))
    c = morse.c_constant(u0, beta, basis)
    k0 = k0_matrix(u0, beta, basis).matrix

    def quotient(x):
        # |K0 x|^2 in the beta-orthonormal coordinates over ||psi_x||_{beta/2}^2
        return np.sum((k0 @ x) ** 2) / stream_sobolev_sq(basis.field_of(x), beta / 2.0)

    # the basis streams are single Fourier modes, orthogonal in every homogeneous norm
    gram = np.diag([stream_sobolev_sq(basis.field_of(e), beta / 2.0)
                    for e in np.eye(basis.dim)])
    _, vecs = sla.eigh(k0.T @ k0, gram)
    assert c > 0.0
    assert abs(quotient(vecs[:, -1]) - c) <= 1e-12 * c
    rng = np.random.default_rng(17)
    for _ in range(100):
        assert quotient(rng.normal(size=basis.dim)) <= c * (1 + 1e-12)


def test_morse_bound_reference_case():
    # (C, T, delta) = (16, pi, 1), beta = 0: only k = 1 contributes,
    # threshold 4, lattice points with |k|^2 in {1, 2} -> 8
    inp = morse.MorseInput(1.0, 16.0, np.pi, 0.0, morse.Spectrum.torus(8))
    bound = morse.morse_bound(inp)
    assert bound.aleph == 8
    assert bound.k_max == 1
    assert len(bound.per_k) == 1
    k, th, cnt = bound.per_k[0]
    assert k == 1 and np.isclose(th, 4.0) and cnt == 8
    assert bound.aleph == brute_force_torus_count(4.0, strict=True)


def test_morse_bound_zero_cases():
    sp = morse.Spectrum.torus(8)
    # threshold below the first eigenvalue
    assert morse.morse_bound(morse.MorseInput(1.0, 1.0, 1.0, 0.0, sp)).aleph == 0
    assert morse.morse_bound(morse.MorseInput(1.0, 0.0, np.pi, 0.5, sp)).aleph == 0


def test_morse_bound_monotone_in_t():
    sp = morse.Spectrum.torus(64)
    prev = -1
    for t in np.linspace(np.pi, 3 * np.pi, 5):
        b = morse.morse_bound(morse.MorseInput(1.0, 16.0, t, 0.5, sp)).aleph
        assert b >= prev
        prev = b


def test_morse_bound_rejects_beta_one():
    with pytest.raises(ValueError):
        morse.MorseInput(1.0, 16.0, np.pi, 1.0, morse.Spectrum.torus(8))


def test_sphere_rotation_constants():
    delta, c = morse.sphere_rotation_constants(0.0, 50)
    assert delta == 1.0
    # sup over n of 4 n / (n + 1), attained at n_max
    assert np.isclose(c, 4.0 * 50 / 51)
    _, c1 = morse.sphere_rotation_constants(1.0, 50)
    assert np.isclose(c1, 2.0 * 50 / 51)


def test_index_form_sign_flips_at_conjugate_time():
    mode = sphere.SphereMode(2, 1.0)
    k0 = morse.sphere_mode_k0(mode)
    t_star = sphere.conjugate_time(2, 1.0)
    for frac, sign in ((0.8, 1.0), (1.2, -1.0)):
        t, w = morse.sphere_negative_direction(mode, frac * t_star)
        val = morse.index_form(t, w, k0)
        assert np.sign(val) == sign
        # closed form (T/2)(pi^2/T^2 - omega^2/4)
        horizon = frac * t_star
        want = 0.5 * horizon * ((np.pi / horizon) ** 2 - mode.omega**2 / 4.0)
        assert np.isclose(val, want, rtol=1e-6)


def test_index_form_requires_vanishing_endpoints():
    t = np.linspace(0.0, 1.0, 11)
    w = np.ones((11, 2))
    with pytest.raises(ValueError):
        morse.index_form(t, w, np.zeros((2, 2)))


def test_bound_csv_schema():
    inp = morse.MorseInput(1.0, 16.0, np.pi, 0.0, morse.Spectrum.torus(8))
    b = morse.morse_bound(inp)
    text = morse.bound_csv_rows([(0.0, np.pi, 1.0, 16.0, b)])
    lines = text.strip().split("\n")
    assert lines[0] == morse.BOUND_HEADER
    parts = lines[1].split(",")
    assert len(parts) == 7
    assert int(parts[5]) == 8
