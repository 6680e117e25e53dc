"""Spectral core: fields, multipliers, brackets, interpolation, checkpoints."""

import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from sqglab.euler_arnold import _theta_step, stream_of
from sqglab.spectral import (
    FOURIER_CHUNK,
    SPLINE_CHUNK,
    SPLINE_UPSAMPLE,
    TWO_PI,
    GridMismatchError,
    MeanNonzeroError,
    ScalarField,
    frac_laplacian,
    gradient_perp,
    grid,
    inner_product_beta,
    interpolate,
    load_field,
    multiply_dealiased,
    norm_beta,
    poisson_bracket,
    save_field,
    _fourier_eval,
    _quintic_prefilter,
    _spline_coefficients,
    _spline_eval,
    _wrapped_taps,
)


def random_field(g, seed, kmax=5):
    rng = np.random.default_rng(seed)
    c = np.zeros((g.n, g.n), dtype=complex)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky == 0:
                continue
            c[kx % g.n, ky % g.n] = rng.normal() + 1j * rng.normal()
    vals = np.real(np.fft.ifft2(c * g.n * g.n))
    return ScalarField.from_values(g, vals)


def test_grid_cache_and_wavenumbers():
    g = grid(32)
    assert grid(32) is g
    assert g.kx[1, 0] == 1
    assert g.ky[0, 1] == 1
    assert g.kx[31, 0] == -1
    # Nyquist column is dropped from derivative multipliers
    assert np.all(g.ikx[16, :] == 0)
    assert np.all(g.iky[:, 16] == 0)


def test_from_function_and_values_roundtrip():
    g = grid(32)
    f = ScalarField.from_function(g, lambda x, y: np.cos(2 * x) + np.sin(y))
    vals = f.values()
    xg, yg = g.x, g.y
    assert np.allclose(vals, np.cos(2 * xg) + np.sin(yg), atol=1e-13)
    assert abs(f.mean()) < 1e-14


def test_norm_l2_matches_quadrature():
    g = grid(48)
    f = random_field(g, 3)
    quad = np.sqrt(np.mean(f.values() ** 2) * (2 * np.pi) ** 2)
    assert np.isclose(f.norm_l2(), quad, rtol=1e-12)


def test_frac_laplacian_semigroup_and_inverse():
    g = grid(32)
    f = random_field(g, 4)
    a = frac_laplacian(frac_laplacian(f, 0.3), 0.45)
    b = frac_laplacian(f, 0.75)
    assert np.max(np.abs(a.coeff - b.coeff)) < 1e-12
    back = frac_laplacian(frac_laplacian(f, -0.5), 0.5)
    assert np.max(np.abs(back.coeff - f.coeff)) < 1e-12


def test_frac_laplacian_single_mode_eigenvalue():
    g = grid(32)
    f = ScalarField.from_function(g, lambda x, y: np.cos(2 * x + y))
    out = frac_laplacian(f, 0.5)
    expected = 5.0 ** 0.5
    assert np.allclose(out.values(), expected * f.values(), atol=1e-12)


def test_frac_laplacian_rejects_nonzero_mean_inverse():
    g = grid(32)
    f = ScalarField.from_values(g, np.ones((32, 32)) + np.cos(g.x),
                                zero_mean=False)
    with pytest.raises(MeanNonzeroError):
        frac_laplacian(f, -1.0)


def test_gradient_perp_orientation():
    # grad_perp psi = (-psi_y, psi_x); for psi = -cos y the field is (-sin y, 0)
    g = grid(32)
    psi = ScalarField.from_function(g, lambda x, y: -np.cos(y))
    ux, uy = (f.values() for f in gradient_perp(psi).component_fields())
    assert np.allclose(ux, -np.sin(g.y), atol=1e-13)
    assert np.allclose(uy, 0.0, atol=1e-13)


def test_poisson_bracket_closed_form():
    # {cos x, cos y} = -f_x g_y + f_y g_x = -sin x sin y
    g = grid(32)
    f = ScalarField.from_function(g, lambda x, y: np.cos(x))
    h = ScalarField.from_function(g, lambda x, y: np.cos(y))
    br = poisson_bracket(f, h)
    assert np.allclose(br.values(), -np.sin(g.x) * np.sin(g.y), atol=1e-13)


def test_poisson_bracket_antisymmetry_and_self():
    g = grid(32)
    f, h = random_field(g, 5), random_field(g, 6)
    anti = poisson_bracket(f, h) + poisson_bracket(h, f)
    assert np.max(np.abs(anti.coeff)) < 1e-12
    assert np.max(np.abs(poisson_bracket(f, f).coeff)) < 1e-12


def test_dealias_kills_high_modes_in_products():
    g = grid(32)
    cutoff = g.n // 3
    f = ScalarField.from_function(g, lambda x, y: np.cos(cutoff * x))
    p = multiply_dealiased(f, f)
    # cos^2 has a 2*cutoff mode, past the mask; only the mean survives
    c = p.coeff.copy()
    assert abs(c[0, 0] - 0.5) < 1e-13
    c[0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-13


def test_interpolate_fourier_is_exact_off_grid():
    g = grid(32)
    f = ScalarField.from_function(g, lambda x, y: np.cos(3 * x - 2 * y))
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 2 * np.pi, size=(50, 2))
    vals = interpolate(f, pts)
    assert np.allclose(vals, np.cos(3 * pts[:, 0] - 2 * pts[:, 1]), atol=1e-12)


def test_fourier_eval_matches_the_untrimmed_sum():
    # the 2/3 band of N = 64 (43 of 64 rows and columns summed) and a full
    # spectrum (nothing trimmed), alone and stacked
    g = grid(64)
    band = random_field(g, 31, kmax=g.cutoff).coeff
    full = np.random.default_rng(32).normal(size=(64, 64, 2)) @ np.array([1.0, 1j])
    pts = np.random.default_rng(33).uniform(0, 2 * np.pi, size=(300, 2))
    x, y = pts[:, 0], pts[:, 1]
    k = np.fft.fftfreq(g.n, d=1.0 / g.n)
    ex, ey = np.exp(1j * np.outer(k, x)), np.exp(1j * np.outer(k, y))
    for c in (band, full, np.stack([band, full])):
        want = np.einsum("ap,...ab,bp->...p", ex, c, ey).real
        got = _fourier_eval(c, g, x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13
    assert np.array_equal(_fourier_eval(np.zeros((64, 64)), g, x, y), np.zeros(x.size))


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here")
def test_fourier_eval_matches_extended_precision_on_a_full_spectrum():
    # a full N = 128 spectrum sums every negative row and column and the
    # -N/2 ones, whose phases are conjugated entries of the |k| power
    # table; the points are not wrapped into [0, 2 pi).  One-mode spectra
    # with an imaginary coefficient read -sin(k.x), off by order 1 where a
    # phase has the wrong sign; a 64th power rounds about 64 times.
    g = grid(128)
    rng = np.random.default_rng(41)
    full = rng.normal(size=(128, 128, 2)) @ np.array([1.0, 1j])
    pts = rng.uniform(-1.0, TWO_PI + 1.0, size=(400, 2))
    x, y = pts[:, 0], pts[:, 1]
    k = np.fft.fftfreq(g.n, d=1.0 / g.n).astype(np.longdouble)
    xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
    ex, ey = np.exp(1j * np.multiply.outer(k, xl)), np.exp(1j * np.multiply.outer(k, yl))
    want = np.einsum("ap,ab,bp->p", ex, full.astype(np.clongdouble), ey).real
    got = _fourier_eval(full, g, x, y)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 6e-15
    for kx, ky in [(-64, 0), (-1, 5), (3, -64), (-7, -2), (-64, -64)]:
        mode = np.zeros((128, 128), dtype=complex)
        mode[kx, ky] = 1j
        want = -np.sin(kx * xl + ky * yl)
        assert np.max(np.abs(_fourier_eval(mode, g, x, y) - want)) < 1e-14


def _half_table_supports(g, seed):
    """Spectra whose rows or columns have no mirror: negative rows only,
    non-negative columns only, and the -N/2 row (no +N/2 in FFT order)."""
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(g.n, g.n, 2)) @ np.array([1.0, 1j])
    half = g.n // 2
    negative_rows, positive_cols, nyquist_row = (np.zeros_like(full) for _ in range(3))
    negative_rows[half + 3:] = full[half + 3:]
    positive_cols[:, :7] = full[:, :7]
    nyquist_row[[half, 2, -2]] = full[[half, 2, -2]]
    return [negative_rows, positive_cols, nyquist_row]


def test_fourier_eval_point_chunks_equal_split_calls():
    # two full point chunks and a partial one, on a stack, on a field in
    # the band and on supports whose phase rows have no mirror
    g = grid(64)
    count = 2 * FOURIER_CHUNK + 117
    pts = np.random.default_rng(34).uniform(0, 2 * np.pi, size=(count, 2))
    x, y = pts[:, 0], pts[:, 1]
    one = random_field(g, 35, kmax=g.cutoff).coeff
    stack = np.stack([random_field(g, 36 + s, kmax=12).coeff for s in range(20)])
    k = np.fft.fftfreq(g.n, d=1.0 / g.n)
    ex, ey = np.exp(1j * np.outer(k, x)), np.exp(1j * np.outer(k, y))
    split = FOURIER_CHUNK + 50  # the sub-range calls chunk at other points
    for c in [one, stack] + _half_table_supports(g, 56):
        got = _fourier_eval(c, g, x, y)
        parts = [_fourier_eval(c, g, x[s], y[s]) for s in (slice(0, split), slice(split, None))]
        assert np.array_equal(got, np.concatenate(parts, axis=-1))
        want = np.einsum("ap,...ab,bp->...p", ex, c, ey).real
        assert got.shape == want.shape == c.shape[:-2] + (count,)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13


@pytest.mark.parametrize("kmax, tol", [(4, 1e-9), (21, 1e-5)], ids=["kmax4", "band"])
def test_quintic_spline_close_to_fourier(kmax, tol):
    # kmax = 21 fills the 2/3 band of N = 64
    g = grid(64)
    f = random_field(g, 8, kmax=kmax)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 2 * np.pi, size=(200, 2))
    a = interpolate(f, pts)
    (b,) = _spline_eval((_spline_coefficients(f.coeff),), pts[:, 0], pts[:, 1])
    assert np.max(np.abs(a - b.real)) / np.max(np.abs(a)) < tol


def _prefiltered_reference(coeff, x, y):
    """Quintic spline through the zero-padded samples, prefiltered by scipy."""
    n = coeff.shape[0]
    m = SPLINE_UPSAMPLE * n
    c = np.zeros((m, m), dtype=complex)
    idx = np.r_[0:n // 2, m - n // 2:m]
    c[np.ix_(idx, idx)] = coeff
    fine = np.fft.ifft2(c) * m**2
    coords = np.vstack([np.mod(x, TWO_PI) / TWO_PI * m, np.mod(y, TWO_PI) / TWO_PI * m])
    return [ndimage.map_coordinates(part, coords, order=5, mode="grid-wrap")
            for part in (fine.real, fine.imag)]


def _spline_test_points(seed, m):
    """More points than one sampler chunk holds, not a multiple of it.

    The edge values include -1e-17 and -1e-300, where mod(x, 2 pi) rounds
    up to 2 pi, so the spline coordinate mod(x, 2 pi) m / 2 pi is m itself.
    """
    rng = np.random.default_rng(seed)
    edge = np.array([0.0, 1e-14, 1e-9, -1e-12, -1e-17, -1e-300, TWO_PI - 1e-9,
                     TWO_PI - 1e-14, TWO_PI, TWO_PI + 1e-12])
    count = SPLINE_CHUNK + 517
    x = np.concatenate([rng.uniform(0, TWO_PI, count), edge, rng.uniform(0, TWO_PI, edge.size)])
    y = np.concatenate([rng.uniform(0, TWO_PI, count), rng.uniform(0, TWO_PI, edge.size), edge])
    assert x.size > SPLINE_CHUNK and x.size % SPLINE_CHUNK
    for c in (x, y):
        assert np.any(np.mod(c, TWO_PI) / TWO_PI * m == m)
    return x, y


@pytest.mark.parametrize("n", [32, 48, 64])
def test_spline_coefficients_match_scipy_prefilter(n):
    # every mode up to the Nyquist line carries energy
    g = grid(n)
    f = ScalarField.from_values(g, np.random.default_rng(n).normal(size=(n, n)))
    x, y = _spline_test_points(n + 1, SPLINE_UPSAMPLE * n)
    want = _prefiltered_reference(f.coeff, x, y)[0]
    (got,) = _spline_eval((_spline_coefficients(f.coeff),), x, y)
    assert np.max(np.abs(got.real - want)) / np.max(np.abs(want)) < 1e-13


@pytest.mark.parametrize("n", [32, 64])
def test_stage_sampler_matches_scipy_prefilter(n):
    # the packed stage field ux + i uy of a random theta, one gather for both
    g = grid(n)
    beta = 0.5
    theta = ScalarField.from_values(g, np.random.default_rng(2 * n).normal(size=(n, n)))
    _, (packed, *_) = _theta_step(theta, beta, 1e-6)
    ux, uy = gradient_perp(stream_of(theta, beta)).component_fields()
    assert np.array_equal(packed, ux.coeff + 1j * uy.coeff)
    x, y = _spline_test_points(2 * n + 1, SPLINE_UPSAMPLE * n)
    want = _prefiltered_reference(ux.coeff + 1j * uy.coeff, x, y)
    (got,) = _spline_eval((_spline_coefficients(packed),), x, y)
    for a, b in zip((got.real, got.imag), want):
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-13


def _padded_prefilter(coeff):
    """Spline coefficients by the zero-padded transform on fresh arrays."""
    n = coeff.shape[0]
    m = SPLINE_UPSAMPLE * n
    idx = np.r_[0:n // 2, m - n // 2:m]
    w = TWO_PI * np.fft.fftfreq(m)
    inv = (120.0 / (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w)))[idx]
    rows = np.zeros((n, m), dtype=complex)
    rows[:, idx] = coeff * inv
    full = np.zeros((m, m), dtype=complex)
    full[idx] = np.fft.ifft(rows, axis=1, norm="forward") * inv[:, None]
    return np.fft.ifft(full, axis=0, norm="forward")


@pytest.mark.parametrize("n", [32, 64, 128])
def test_stage_grid_buffers_equal_fresh_spline_coefficients(n):
    # one grid buffer, first full of NaN, then holding the previous field
    out = np.full((SPLINE_UPSAMPLE * n, SPLINE_UPSAMPLE * n), np.nan, dtype=complex)
    rng = np.random.default_rng(n)
    for _ in range(2):
        coeff = rng.normal(size=(n, n, 2)) @ np.array([1.0, 1j])
        got = _spline_coefficients(coeff, out)
        assert got is out
        assert np.array_equal(got, _spline_coefficients(coeff))
        assert np.array_equal(got, _padded_prefilter(coeff))


def test_prefilter_tables_are_cached_read_only():
    inv = _quintic_prefilter(64, 256)
    assert _quintic_prefilter(64, 256) is inv
    assert not inv.flags.writeable
    # the 64 modes are the first and last 32 of the 256-point spectrum
    w = TWO_PI * np.r_[0:32, -32:0] / 256
    assert np.array_equal(inv, 120.0 / (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w)))


def test_wrapped_taps_are_cached_read_only():
    # every sample at that m reads these tables; floor(u) = m wraps to 0
    rows, cols = _wrapped_taps(192)
    assert _wrapped_taps(192)[0] is rows and _wrapped_taps(192)[1] is cols
    assert not rows.flags.writeable and not cols.flags.writeable
    assert np.array_equal(rows[:, 192], rows[:, 0]) and np.array_equal(cols[:, 192], cols[:, 0])
    assert np.array_equal(rows, 192 * cols)


def test_spline_sampler_threads_keep_their_own_workspace():
    # two threads sampling at once each get the values of a sequential run,
    # with a short switch interval so that their chunks interleave
    g = grid(32)
    grids = [_spline_coefficients(random_field(g, s, kmax=10).coeff) for s in (51, 52)]
    rng = np.random.default_rng(53)
    points = [rng.uniform(-1.0, TWO_PI + 1.0, size=(2, 3000)) for _ in grids]
    want = [_spline_eval((c,), x, y)[0] for c, (x, y) in zip(grids, points)]
    got = [[], []]
    start = threading.Barrier(2, timeout=60)

    def sample(i):
        start.wait()
        for _ in range(100):
            got[i].append(_spline_eval((grids[i],), *points[i])[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sample, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, results in zip(want, got):
        assert len(results) == 100
        assert sum(not np.array_equal(r, w) for r in results) == 0


def test_spline_grids_sampled_together_equal_one_at_a_time():
    # the shared taps change nothing: bit for bit, across chunk boundaries
    g = grid(32)
    grids = [_spline_coefficients(random_field(g, s, kmax=10).coeff
                                  + 1j * random_field(g, s + 1, kmax=10).coeff)
             for s in (42, 44, 46)]
    x, y = _spline_test_points(47, SPLINE_UPSAMPLE * 32)
    together = _spline_eval(grids, x, y)
    for c, got in zip(grids, together):
        (alone,) = _spline_eval((c,), x, y)
        assert np.array_equal(got, alone)


def test_poisson_bracket_matches_two_dealiased_products():
    g = grid(64)
    f, h = random_field(g, 21, kmax=20), random_field(g, 22, kmax=20)
    fx, fy = (ScalarField(g, d * f.coeff) for d in (g.ikx, g.iky))
    hx, hy = (ScalarField(g, d * h.coeff) for d in (g.ikx, g.iky))
    want = (multiply_dealiased(fy, hx) - multiply_dealiased(fx, hy)).coeff
    want[0, 0] = 0.0
    got = poisson_bracket(f, h).coeff
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-14


def test_inner_product_beta_single_mode():
    # psi = cos(k.x): <psi, psi>_beta = |k|^(2-beta) * 2 pi^2
    g = grid(32)
    psi = ScalarField.from_function(g, lambda x, y: np.cos(2 * x + y))
    for beta in (0.0, 0.5, 1.0):
        got = inner_product_beta(psi, psi, beta)
        want = 5.0 ** (1.0 - beta / 2.0) * 2.0 * np.pi ** 2
        assert np.isclose(got, want, rtol=1e-12)
        assert np.isclose(norm_beta(psi, beta) ** 2, want, rtol=1e-12)


def test_grid_mismatch_rejected():
    f = random_field(grid(32), 10)
    h = random_field(grid(64), 10)
    with pytest.raises(GridMismatchError):
        _ = f + h


def test_checkpoint_roundtrip(tmp_path):
    g = grid(32)
    f = random_field(g, 11)
    p = tmp_path / "f.gsqg"
    save_field(p, f)
    f2 = load_field(p)
    assert f2.grid.n == 32
    assert np.array_equal(f2.coeff, f.coeff)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.gsqg"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_field(p)


@pytest.mark.parametrize("edit, found", [(lambda b: b[:-16], 12 + 16 * 32**2 - 16),
                                         (lambda b: b + b"\x00" * 3, 12 + 16 * 32**2 + 3)],
                         ids=["truncated", "trailing"])
def test_checkpoint_wrong_length_rejected(tmp_path, edit, found):
    p = tmp_path / "f.gsqg"
    save_field(p, random_field(grid(32), 11))
    p.write_bytes(edit(p.read_bytes()))
    with pytest.raises(ValueError, match=f"should have {12 + 16 * 32**2} bytes, found {found}"):
        load_field(p)


def test_k_power_cached_read_only_and_exact():
    g = grid(32)
    for alpha in (0.75, -0.25, 1.0):
        w = g.k_power(alpha)
        assert w is g.k_power(alpha)
        assert not w.flags.writeable
        want = np.zeros_like(g.k2)
        nz = g.k2 > 0
        want[nz] = g.k2[nz] ** alpha
        assert np.array_equal(w, want)
