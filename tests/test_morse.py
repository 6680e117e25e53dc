"""Spectra, counting bound, extracted constants, Morse index."""

import math
import time

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.integrate import simpson

from sqglab import jacobi, morse, sphere
from sqglab.euler_arnold import GeodesicRecord, SolverConfig
from sqglab.flow import FlowMap
from sqglab.group_ops import DiffeoSample
from sqglab.jacobi import k0_matrix, make_basis
from sqglab.presets import random_stream
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


def stored_torus_spectrum(k_max):
    """The lattice enumerated into sorted eigenvalues and multiplicities."""
    r = np.arange(-k_max, k_max + 1)
    k2 = (r[:, None] ** 2 + r[None, :] ** 2).ravel()
    k2 = k2[(k2 > 0) & (k2 <= k_max**2)]
    return np.unique(k2, return_counts=True)


def test_torus_counts_match_stored_spectrum():
    vals, mult = stored_torus_spectrum(1025)
    sp = morse.Spectrum.torus(1025)
    rng = np.random.default_rng(5)
    lams = np.concatenate([rng.uniform(0.0, 1025.0**2, 40),
                           rng.choice(vals, 40).astype(float),  # sums of squares
                           [0.0, 0.5, 1.0, 2.0, 3.0, 1025.0**2]])
    for lam in lams:
        assert morse.weyl_count(sp, lam) == int(np.sum(mult[vals <= lam]))
        # the strict count the bound takes at a threshold lam
        strict = morse._count_at_most(sp, math.ceil(lam) - 1)
        assert strict == int(np.sum(mult[vals < lam]))


def test_torus_cutoff_keeps_row_square_roots_exact():
    # the row counts floor float64 square roots, exact for integers below 2^52
    with pytest.raises(ValueError):
        morse.Spectrum.torus(2**26)
    assert morse.Spectrum.torus(2**26 - 1).coverage < 2.0**52
    m = np.arange(2**26 - 1000, 2**26, dtype=np.int64)
    for v in (m * m - 1, m * m):
        assert list(np.sqrt(v).astype(np.int64)) == [math.isqrt(int(x)) for x in v]


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
    # both counts against the degree sum of 2n + 1
    n = np.arange(1, 201)
    vals, mult = n * (n + 1), 2 * n + 1
    sp = morse.Spectrum.sphere(200)
    rng = np.random.default_rng(6)
    for lam in np.concatenate([rng.uniform(0.0, 200 * 201, 40), vals[:60]]):
        assert morse.weyl_count(sp, lam) == int(np.sum(mult[vals <= lam]))
        strict = morse._count_at_most(sp, math.ceil(lam) - 1)
        assert strict == int(np.sum(mult[vals < lam]))


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


def test_delta_inf_matches_exact_shear_closed_form():
    # x -> x - t sin y has D gamma = [[1, -t cos y], [0, 1]], whose largest
    # singular value (t + sqrt(t^2 + 4)) / 2 is taken at cos y = +-1, on the grid
    g = grid(64)
    for t in (0.5, 1.0, 2.0):
        shear = DiffeoSample(FlowMap(g, -t * np.sin(g.y) + 0j), t)
        record = GeodesicRecord(SolverConfig(n=64), random_stream(g, 1, 4), [0.0, t],
                                diffeos=[DiffeoSample.identity(g), shear])
        assert abs(morse.delta_inf(record) - ((t + np.sqrt(t * t + 4.0)) / 2.0) ** -2) < 1e-12


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


def test_morse_bound_at_shear_horizon():
    # beta 0.5, T = 21.26 with the truncated shear C and delta's closed-form
    # lower bound 4 / (T + sqrt(T^2 + 4))^2: the k = 1 threshold is about 4.5e12
    horizon = 21.26
    inp = morse.MorseInput(0.0022027, 0.903, horizon, 0.5,
                           morse.Spectrum.torus(2_200_000))
    start = time.perf_counter()
    bound = morse.morse_bound(inp)
    assert time.perf_counter() - start < 10.0
    assert bound.k_max == len(bound.per_k) > 1000
    # each count is pi th_k up to the lattice-point error O(th_k^(1/3))
    circle = sum(np.pi * th for _, th, _ in bound.per_k)
    assert abs(bound.aleph / circle - 1.0) < 1e-6


def test_morse_bound_rejects_beta_one():
    with pytest.raises(ValueError):
        morse.MorseInput(1.0, 16.0, np.pi, 1.0, morse.Spectrum.torus(8))


@pytest.mark.parametrize("field", ["delta", "c", "t_horizon"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_morse_input_rejects_non_finite_values(field, value):
    # delta = inf read as aleph 0, and a NaN passed every ordering check
    args = dict(delta=1.0, c=16.0, t_horizon=np.pi, beta=0.5, spectrum=morse.Spectrum.torus(8))
    with pytest.raises(ValueError, match="all finite"):
        morse.MorseInput(**{**args, field: value})


def test_sphere_rotation_constants():
    delta, c = morse.sphere_rotation_constants(0.0, 50)
    assert delta == 1.0
    # sup over n of 4 n / (n + 1), attained at n_max
    assert np.isclose(c, 4.0 * 50 / 51)
    _, c1 = morse.sphere_rotation_constants(1.0, 50)
    assert np.isclose(c1, 2.0 * 50 / 51)


def _sphere_k0(degrees, beta):
    """Block-diagonal K0 of the listed sphere modes."""
    return sla.block_diag(*[morse.sphere_mode_k0(sphere.SphereMode(n, beta)) for n in degrees])


def test_morse_index_single_sphere_mode():
    # 2 floor(T / T_n): the index form turns negative past the conjugate time
    k0 = _sphere_k0([2], 1.0)
    t_star = sphere.conjugate_time(2, 1.0)
    got = [morse.morse_index(k0, f * t_star) for f in (0.5, 0.99, 1.01, 1.5, 2.5, 3.2)]
    assert got == [0, 0, 2, 2, 4, 6]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_morse_index_matches_closed_form_and_detection(beta):
    degrees = range(1, 9)
    k0 = _sphere_k0(degrees, beta)
    for frac in (1.1, 2.3, 3.7):
        horizon = frac * sphere.conjugate_time(1, beta)
        closed = sum(2 * math.floor(horizon / sphere.conjugate_time(n, beta))
                     for n in degrees)
        report = jacobi.detect_conjugate(
            sphere.sphere_phi_samples(degrees, beta, np.linspace(0.0, horizon, 801)))
        detected = sum(m for _, m in report.detected)
        assert morse.morse_index(k0, horizon) == closed == detected


def test_index_matrix_matches_simpson_quadrature():
    rng = np.random.default_rng(11)
    horizon, n_sines = 3.3, 6
    k0 = rng.normal(size=(3, 3))
    a = rng.normal(size=(n_sines, 3))
    t = np.linspace(0.0, horizon, 20001)
    freq = np.arange(1, n_sines + 1) * np.pi / horizon
    v = np.sin(np.outer(t, freq)) @ a
    dv = (np.cos(np.outer(t, freq)) * freq) @ a
    quad = simpson(np.einsum("ti,ti->t", dv, dv)
                   + np.einsum("ij,tj,ti->t", k0, v, dv), x=t)
    form = a.ravel() @ morse._index_matrix(k0, horizon, n_sines) @ a.ravel()
    assert abs(form - quad) <= 1e-12 * abs(quad)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_morse_index_unchanged_when_sines_double(beta):
    k0 = _sphere_k0(range(1, 9), beta)
    for frac in (1.1, 2.3, 3.7):
        horizon = frac * sphere.conjugate_time(1, beta)
        # the sine count morse_index works out from T and ||K0||_2
        n_sines = 2 * math.ceil(horizon * np.linalg.norm(k0, 2) / np.pi) + 2
        counts = [int(np.sum(np.linalg.eigvalsh(morse._index_matrix(k0, horizon, j)) < 0))
                  for j in (n_sines, 2 * n_sines)]
        assert counts == [morse.morse_index(k0, horizon)] * 2


def test_bound_csv_schema():
    inp = morse.MorseInput(1.0, 16.0, np.pi, 0.0, morse.Spectrum.torus(8))
    b = morse.morse_bound(inp)
    text = morse.bound_csv_rows([(0.0, np.pi, 1.0, 16.0, b)])
    lines = text.strip().split("\n")
    assert lines[0] == morse.BOUND_HEADER
    parts = lines[1].split(",")
    assert len(parts) == 7
    assert int(parts[5]) == 8
