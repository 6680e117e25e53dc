"""Galerkin basis, linearized operators, Phi evolution, conjugate detection."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from conftest import coords_many, coords_of, dense_phi
from sqglab import jacobi, morse, sphere
from sqglab.euler_arnold import GeodesicRecord, SolverConfig, simulate
from sqglab.flow import FlowMap, NumericalAbort, jacobian
from sqglab.group_ops import DiffeoSample, adjoint, coadjoint_algebra
from sqglab.presets import initial_stream, random_stream
from sqglab.spectral import (
    TWO_PI,
    ScalarField,
    _fourier_eval,
    _phase_powers,
    gradient_perp,
    grid,
    inner_product_beta,
)


def _compose_many(coeffs, g, fm):
    """R_fm applied to a stack of streams: Fourier sum at fm(grid), re-project."""
    px, py = fm.points()
    vals = _fourier_eval(coeffs, g, np.mod(px.ravel(), TWO_PI), np.mod(py.ravel(), TWO_PI))
    out = np.fft.fft2(vals.reshape(-1, g.n, g.n)) / g.n**2
    out *= g.dealias_mask
    out[:, 0, 0] = 0.0
    return out


def _stream_stack(basis):
    """The (d, N, N) coefficient arrays of the basis streams."""
    return np.stack([basis.field_of(e).coeff for e in np.eye(basis.dim)])


def _lambda_reference(d, beta, basis):
    """Lambda(t) column-wise as Ad*_gamma Ad_gamma: two compositions, two multipliers."""
    g = basis.grid
    nz = g.k2 > 0
    w_fwd = np.zeros_like(g.k2)
    w_fwd[nz] = g.k2[nz] ** (1.0 - beta / 2.0)
    w_bwd = np.zeros_like(g.k2)
    w_bwd[nz] = g.k2[nz] ** (beta / 2.0 - 1.0)
    c = _compose_many(_stream_stack(basis), g, d.inverse)  # R_gamma^-1
    c *= w_fwd                                        # (-Lap)^(1-b/2)
    c = _compose_many(c, g, d.forward)                # R_gamma
    c *= w_bwd                                        # (-Lap)^(b/2-1)
    return coords_many(basis, c)


def _symmetry_error(sample):
    return float(np.max(np.abs(sample.matrix - sample.matrix.T)))


class _MatrixInterpolant:
    """Piecewise-linear interpolation of operator samples in time."""

    def __init__(self, times, matrices):
        self.times = np.asarray(times)
        self.matrices = np.asarray(matrices)

    def __call__(self, t):
        ts = self.times
        if t <= ts[0]:
            return self.matrices[0]
        if t >= ts[-1]:
            return self.matrices[-1]
        i = int(np.searchsorted(ts, t) - 1)
        s = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1 - s) * self.matrices[i] + s * self.matrices[i + 1]


def _evolve_phi_reference(record, lambdas, k0, substeps=10):
    """Phi(t_i) by RK4 on (m, v) with one linear solve per stage."""
    times = np.asarray(record.times)
    lam = _MatrixInterpolant(times, [s.matrix for s in lambdas])
    d = k0.shape[0]
    m = np.eye(d)
    v = np.zeros((d, d))
    out = [v.copy()]

    def deriv(t, state):
        m_, v_ = state
        w = np.linalg.solve(lam(t), m_)
        return -k0 @ w, w

    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        t = times[i]
        for _ in range(substeps):
            s = (m, v)
            k1 = deriv(t, s)
            k2 = deriv(t + h / 2, (m + h / 2 * k1[0], v + h / 2 * k1[1]))
            k3 = deriv(t + h / 2, (m + h / 2 * k2[0], v + h / 2 * k2[1]))
            k4 = deriv(t + h, (m + h * k3[0], v + h * k3[1]))
            m = m + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += h
        out.append(v.copy())
    return out


def _detect_reference(phi, threshold_factor=1e-3):
    """Conjugate detection on a dense Phi with per-sample svd/det and a spline over every entry.

    Returns (times, sigma_min, det_sign, detected, threshold).
    """
    pts = [(t, m / t) for t, m in zip(phi.times, phi.values[:, 0]) if t > 0]
    times = np.array([p[0] for p in pts])
    mats = np.array([p[1] for p in pts])
    sig = np.array([np.linalg.svd(m, compute_uv=False) for m in mats])[:, -1]
    dets = np.array([np.sign(np.linalg.det(m)) for m in mats])
    thr = threshold_factor * float(np.median(sig))
    spline = CubicSpline(times, mats, axis=0)

    def sigma_at(t):
        return float(np.linalg.svd(spline(t), compute_uv=False)[-1])

    def det_at(t):
        return float(np.linalg.det(spline(t)))

    detected = []
    for i in range(len(times)):
        is_min = ((i == 0 or sig[i] <= sig[i - 1])
                  and (i == len(times) - 1 or sig[i] <= sig[i + 1]))
        if not is_min:
            continue
        lo = times[max(i - 1, 0)]
        hi = times[min(i + 1, len(times) - 1)]
        if np.sign(det_at(lo)) != np.sign(det_at(hi)) and lo < hi:
            a, b = lo, hi
            fa = det_at(a)
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = det_at(mid)
                if np.sign(fm) == np.sign(fa):
                    a, fa = mid, fm
                else:
                    b = mid
            t_star = 0.5 * (a + b)
        else:
            res = minimize_scalar(sigma_at, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            t_star = float(res.x)
        if sigma_at(t_star) >= thr:
            continue
        mult = int(np.sum(np.linalg.svd(spline(t_star), compute_uv=False) < thr))
        detected.append((float(t_star), max(mult, 1)))
    dedup = []
    for t, m in sorted(detected):
        if dedup and abs(t - dedup[-1][0]) < 1e-9:
            continue
        dedup.append((t, m))
    return times, sig, dets, dedup, thr


def _assert_detection_matches_reference(phi):
    times, sig, dets, detected, thr = _detect_reference(phi)
    report = jacobi.detect_conjugate(phi)
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.sigma_min, sig)
    assert np.array_equal(report.det_sign, dets)
    assert report.detected == detected
    assert report.threshold == thr
    return report


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def random_record():
    """Short flow-map record from random:1:4, beta = 0.5, t in [0, 0.2]."""
    g = grid(64)
    cfg = SolverConfig(beta=0.5, dt=2e-3, t_final=0.2, n=64, snapshot_stride=25)
    return simulate(initial_stream("random:1:4", g), cfg)


def test_basis_orthonormal():
    g = grid(64)
    for beta in (0.0, 0.5, 1.0):
        basis = jacobi.make_basis(g, 4, beta)
        streams = [basis.field_of(e) for e in np.eye(basis.dim)]
        gram = np.array([[inner_product_beta(a, b, beta) for b in streams] for a in streams])
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-12


def test_make_basis_holds_no_grid_stack():
    g = grid(256)
    tracemalloc.start()
    try:
        jacobi.make_basis(g, 6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [18, 64])
def test_coords_match_inner_product(n):
    # an independent route to the coordinates: the full-spectrum beta pairing
    # with each basis stream, on every wavevector sign pattern (N = 18 puts
    # K = 6 at the dealias band edge)
    g = grid(n)
    beta = 0.5
    basis = jacobi.make_basis(g, 6, beta)
    rng = np.random.default_rng(n)
    fields = [ScalarField.from_values(g, rng.normal(size=(n, n))).dealiased()
              for _ in range(3)]
    got = coords_many(basis, np.stack([f.coeff for f in fields]))
    want = np.array([[inner_product_beta(basis.field_of(e), f, beta) for f in fields]
                     for e in np.eye(basis.dim)])
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_basis_dimension_counts_half_lattice():
    g = grid(64)
    basis = jacobi.make_basis(g, 6, 0.5)
    count = 0
    for kx in range(-6, 7):
        for ky in range(-6, 7):
            if kx**2 + ky**2 <= 36 and (kx > 0 or (kx == 0 and ky > 0)):
                count += 2  # cos and sin
    assert basis.dim == count


def test_coords_roundtrip():
    g = grid(64)
    basis = jacobi.make_basis(g, 4, 0.5)
    rng = np.random.default_rng(3)
    c = rng.normal(size=basis.dim)
    back = coords_of(basis, basis.field_of(c))
    assert np.max(np.abs(back - c)) < 1e-10


def test_k0_antisymmetric():
    g = grid(64)
    u0 = gradient_perp(random_stream(g, 9, 3))
    for beta in (0.0, 0.5, 1.0):
        basis = jacobi.make_basis(g, 4, beta)
        k0 = jacobi.k0_matrix(u0, beta, basis)
        assert np.array_equal(k0, -k0.T)


def test_k0_working_memory(random_record):
    # two (d/2)^2 lookups over the wavevectors, no (2d)^2 one over all four
    # sign pairs: at K = 12 (d = 440) the result is 1.5 MiB, and a (2d)^2
    # lookup peaks at 41.5 MiB
    basis = jacobi.make_basis(grid(64), 12, 0.5)
    u0 = random_record.u0()
    jacobi.k0_matrix(u0, 0.5, basis)  # warm: caches on the grid and the basis
    tracemalloc.start()
    try:
        jacobi.k0_matrix(u0, 0.5, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_k0_matches_coadjoint_columns():
    g = grid(64)
    u0 = gradient_perp(random_stream(g, 9, 3))
    for beta in (0.0, 0.5, 1.0):
        basis = jacobi.make_basis(g, 6, beta)
        eye = np.eye(basis.dim)
        want = np.column_stack([
            coords_of(basis, coadjoint_algebra(basis.vector_of(eye[j]), u0, beta).stream)
            for j in range(basis.dim)])
        got = jacobi.k0_matrix(u0, beta, basis)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_k0_matches_coadjoint_columns_at_dealias_cutoff():
    # on N = 18 the basis and the band of u0 reach the 2/3 cutoff 6, where
    # grid products of modes at kx = 6 alias onto kx = -6
    g = grid(18)
    rng = np.random.default_rng(5)
    u0 = gradient_perp(ScalarField.from_values(g, rng.normal(size=(18, 18))).dealiased())
    basis = jacobi.make_basis(g, g.cutoff, 0.5)
    eye = np.eye(basis.dim)
    want = np.column_stack([
        coords_of(basis, coadjoint_algebra(basis.vector_of(eye[j]), u0, 0.5).stream)
        for j in range(basis.dim)])
    got = jacobi.k0_matrix(u0, 0.5, basis)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_lambda_matrix_identity_diffeo():
    g = grid(64)
    basis = jacobi.make_basis(g, 4, 0.5)
    lam = jacobi.lambda_matrix(DiffeoSample.identity(g), 0.5, basis)
    assert np.max(np.abs(lam.matrix - np.eye(basis.dim))) < 1e-8


def test_lambda_matrix_matches_two_composition_reference(random_record):
    g = grid(64)
    basis = jacobi.make_basis(g, 6, 0.5)
    for d in (random_record.diffeos[-1], DiffeoSample.identity(g)):
        lam = jacobi.lambda_matrix(d, 0.5, basis)
        assert _rel_err(lam.matrix, _lambda_reference(d, 0.5, basis)) < 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here")
def test_phase_powers_match_extended_precision(random_record):
    # compose's tables exp(i k x), k = 0..21, built by repeated products from
    # one exponential, against exp(i k p) in extended precision on every
    # inverse-map point set of the record; exponentiating k p reads 1.4e-14
    # here, since it rounds k p first
    k = np.arange(22, dtype=np.longdouble)
    for d in random_record.diffeos:
        p = np.stack(d.inverse.points())
        want = np.exp(1j * np.multiply.outer(k, p.astype(np.longdouble)))
        assert np.max(np.abs(_phase_powers(21, p) - want)) < 4e-15


def test_band_rows_are_cached_read_only():
    rows = jacobi._band_rows(64, 21)
    assert rows is jacobi._band_rows(64, 21)
    assert not rows.flags.writeable
    assert np.array_equal(rows, np.r_[0:22, 43:64])


def _folded_record(amplitude):
    """A two-snapshot record whose map at t = 1 is x -> x + amplitude sin x on N = 32."""
    g = grid(32)
    d = DiffeoSample(FlowMap(g, amplitude * np.sin(g.x) + 0j), 1.0)
    return GeodesicRecord(SolverConfig(n=32), random_stream(g, 1, 4), [0.0, 1.0],
                          diffeos=[DiffeoSample.identity(g), d])


def test_non_invertible_map_refused():
    # x + 1.5 sin x folds back where 1 + 1.5 cos x < 0: Newton leaves a large residual,
    # which gamma^-1's readers report first; delta reads det D gamma alone
    record = _folded_record(1.5)
    d = record.diffeos[-1]
    assert d.residual > 1e-3
    basis = jacobi.make_basis(d.forward.grid, 4, 0.5)
    match = rf"t = 1 \(N = 32\) has residual {d.residual:.3e}"
    with pytest.raises(NumericalAbort, match=match):
        jacobi.lambda_samples(record, basis, 0.5)
    folded = r"t = 1 \(N = 32\) has min det D gamma = -5\.000e-01 <= 0"
    with pytest.raises(NumericalAbort, match=folded):
        morse.delta_inf(record)


def test_folded_map_refused_although_newton_converges():
    # x + 1.05 sin x folds where 1 + 1.05 cos x < 0, yet Newton from x = y meets the
    # residual tolerance at every grid point: only det D gamma shows the fold
    record = _folded_record(1.05)
    d = record.diffeos[-1]
    assert d.residual < 1e-12
    assert abs(d.min_det + 0.05) < 1e-12
    basis = jacobi.make_basis(d.forward.grid, 4, 0.5)
    v = basis.vector_of(np.eye(basis.dim)[0])
    match = r"gamma at t = 1 \(N = 32\) has min det D gamma = -5\.000e-02 <= 0"
    with pytest.raises(NumericalAbort, match=match):
        jacobi.lambda_samples(record, basis, 0.5)
    with pytest.raises(NumericalAbort, match=match):
        morse.delta_inf(record)
    with pytest.raises(NumericalAbort, match=match):
        adjoint(d, v)


def test_delta_inf_builds_no_inverse(random_record, inversions):
    # delta needs D gamma only, and det D gamma > 0 alone makes x + d(x) a diffeomorphism
    fresh = [DiffeoSample(d.forward, d.t) for d in random_record.diffeos]
    delta = morse.delta_inf(dataclasses.replace(random_record, diffeos=fresh))
    assert inversions == []
    assert 0.0 < delta < 1.0 and all(d.min_det > 0.0 for d in fresh)


def test_lambda_samples_build_each_inverse_once(inversions):
    g = grid(32)
    cfg = SolverConfig(beta=0.5, dt=5e-3, t_final=0.02, n=32, snapshot_stride=2)
    record = simulate(initial_stream("random:1:4", g), cfg)
    assert inversions == []
    basis = jacobi.make_basis(g, 4, 0.5)
    first = jacobi.lambda_samples(record, basis, 0.5)
    again = jacobi.lambda_samples(record, basis, 0.5)
    assert [id(f) for f in inversions] == [id(d.forward) for d in record.diffeos]
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(first, again))


@pytest.mark.parametrize("ic", ["shear", "random:1:4"])
def test_delta_inf_at_most_truncated_norm(ic):
    # Ad_gamma^-1 truncated to a Galerkin basis has a norm no larger than the
    # exact one, so delta from the exact norm stays at or below the truncated
    # delta at every basis cutoff K
    g = grid(64)
    cfg = SolverConfig(beta=0.5, dt=2e-3, t_final=0.2, n=64, snapshot_stride=25)
    record = simulate(initial_stream(ic, g), cfg)
    delta = morse.delta_inf(record)
    for k in (4, 6, 12):
        basis = jacobi.make_basis(g, k, 0.0)
        norms = [np.linalg.norm(coords_many(basis,
                     _compose_many(_stream_stack(basis), g, d.forward)), 2)
                 for d in record.diffeos]
        assert delta <= min(norms) ** -2


def _padded_jacobian_sup(fm, m):
    """Largest ||D gamma||_2 on the m x m grid, from the zero-padded spectrum of D gamma.

    The Nyquist lines are dropped.
    """
    n = fm.grid.n
    keep = np.r_[0:n // 2, n - n // 2 + 1:n]
    fine = np.r_[0:n // 2, m - n // 2 + 1:m]
    c = np.zeros((2, 2, m, m), dtype=complex)
    c[:, :, fine[:, None], fine] = np.fft.fft2(jacobian(fm))[:, :, keep[:, None], keep]
    j = np.fft.ifft2(c).real * (m / n) ** 2
    return np.max(np.linalg.norm(np.moveaxis(j, (0, 1), (-2, -1)), 2, axis=(-2, -1)))


def test_delta_inf_grid_sup_undershoots_little(random_record):
    # the grid sup of ||D gamma||_2 can only fall short of the sup over the
    # torus; against a 4x finer grid it does by about 0.1% at t = 0.2
    d = random_record.diffeos[-1]
    grid_sup = np.max(np.linalg.norm(np.moveaxis(jacobian(d.forward), (0, 1), (-2, -1)),
                                     2, axis=(-2, -1)))
    undershoot = 1.0 - grid_sup / _padded_jacobian_sup(d.forward, 4 * d.forward.grid.n)
    assert 0.0 < undershoot < 2e-3
    assert morse.delta_inf(random_record) == grid_sup**-2


def test_lambda_matrix_spd_on_geodesic(shear_record, shear_basis, shear_lambdas):
    lam = shear_lambdas[-1]
    assert _symmetry_error(lam) < 1e-12
    sym = 0.5 * (lam.matrix + lam.matrix.T)
    assert np.linalg.eigvalsh(sym).min() > 0.0
    inv = jacobi.lambda_inverse(lam)
    assert np.max(np.abs(inv @ lam.matrix - np.eye(lam.matrix.shape[0]))) < 1e-8


def _segment_eigh_errors(lam0, lam1):
    """Relative errors of ``_segment_eigh`` against scipy's generalized ``eigh``.

    (mu, X^T Lambda_0 X - I, Lambda_1 X - Lambda_0 X diag(mu), X diag(1/mu) X^T);
    the last is free of the arbitrary column signs of X.
    """
    a0, a1 = lam0.matrix, lam1.matrix
    mu, x = jacobi._segment_eigh(lam0, lam1)
    mu_o, x_o = sla.eigh(a1, a0)
    eye = np.eye(len(mu))
    return (np.max(np.abs(mu - mu_o) / np.abs(mu_o)),
            _rel_err(x.T @ a0 @ x, eye),
            np.linalg.norm(a1 @ x - a0 @ x * mu) / (np.linalg.norm(a1) * np.linalg.norm(x)),
            _rel_err(x / mu @ x.T, x_o / mu_o @ x_o.T))


def test_segment_eigh_matches_scipy_generalized_eigh(random_record, shear_lambdas):
    # over the 20 snapshot intervals of the shear fixture and the 4 of
    # random:1:4 (K = 6, d = 112) the largest error measured 3.1e-15 (of mu);
    # the bound keeps a margin of 30
    lams = jacobi.lambda_samples(random_record, jacobi.make_basis(grid(64), 6, 0.5), 0.5)
    for samples in (shear_lambdas, lams):
        errs = np.array([_segment_eigh_errors(a, b) for a, b in zip(samples, samples[1:])])
        assert errs.max() < 1e-13, errs.max(axis=0)


def test_segment_eigh_refuses_indefinite_lambda():
    # either end of the interval: Lambda_0 fails its Cholesky factor, Lambda_1
    # gives a generalized eigenvalue mu <= 0
    indefinite, eye = np.diag([1.0, -1.0, 1.0, 1.0]), np.eye(4)
    for m0, m1, t in ((indefinite, eye, r"0\.25"), (eye, indefinite, r"0\.5")):
        lam0, lam1 = jacobi.OperatorSample(0.25, m0), jacobi.OperatorSample(0.5, m1)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"Lambda\({t}\) is not positive-definite"):
            jacobi._segment_eigh(lam0, lam1)


def test_lambda_path_factors_each_interval_when_built(segment_eighs):
    # the factorization belongs to the phase that builds the path, and an
    # indefinite sample is refused there, before any reader of the path runs
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, np.eye(3)) for t in (0.0, 0.1, 0.2))
    assert segment_eighs == [(0.0, 0.1), (0.1, 0.2)]
    assert np.array_equal(lams.times, [0.0, 0.1, 0.2]) and not lams.times.flags.writeable
    with pytest.raises(np.linalg.LinAlgError, match=r"Lambda\(0\.1\) is not positive-definite"):
        jacobi.LambdaPath(jacobi.OperatorSample(t, np.diag([1.0, 1.0 - 2.0 * t / 0.1]))
                          for t in (0.0, 0.1))


def test_lambda_inverse_refuses_singular_sample():
    lam = jacobi.OperatorSample(0.5, np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match=r"Lambda\(0\.5\) is singular"):
        jacobi.lambda_inverse(lam)


def test_each_snapshot_interval_factored_once(random_record, segment_eighs, monkeypatch):
    # the call pattern of the benchmark body: samples, then Phi and the split
    # given lambdas= alone; no Lambda sample is inverted by the split
    basis = jacobi.make_basis(grid(64), 6, 0.5)
    lams = jacobi.lambda_samples(random_record, basis, 0.5)
    phi = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams)
    inverses, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
    jacobi.omega_gamma_split(random_record, basis, 0.5, phi, lambdas=lams)
    times = random_record.times
    assert segment_eighs == list(zip(times, times[1:]))
    assert len(segment_eighs) == 4
    assert inverses == []


def _gamma_reference(lambdas, k0, phi):
    """-int Lambda^-1 K0 Phi by the cumulative Simpson rule, with explicit inverses."""
    integrand = np.array([np.linalg.inv(lam.matrix) @ k0 @ p
                          for lam, p in zip(lambdas, phi.values[:, 0])])
    return -np.tensordot(jacobi._simpson_weights(phi.times), integrand, axes=1)


def test_gamma_matches_explicit_inverse_reference(random_record, shear_record, shear_basis,
                                                  shear_lambdas, shear_phi):
    # Lambda_i^-1 comes from the interval frames, X X^T or X diag(1/mu) X^T;
    # against np.linalg.inv the largest error measured 2.4e-15 (per sample, Frobenius)
    basis = jacobi.make_basis(grid(64), 6, 0.5)
    lams = jacobi.lambda_samples(random_record, basis, 0.5)
    phi = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams)
    for rec, b, lam, ph in ((random_record, basis, lams, phi),
                            (shear_record, shear_basis, shear_lambdas, shear_phi)):
        k0 = jacobi.k0_matrix(rec.u0(), 0.5, b)
        _, gamma, _ = jacobi.omega_gamma_split(rec, b, 0.5, ph, lambdas=lam, k0=k0)
        want = _gamma_reference(lam, k0, ph)
        assert np.array_equal(gamma[0].matrix, want[0])
        for g_, w in zip(gamma[1:], want[1:]):
            assert _rel_err(g_.matrix, w) < 1e-13


def test_phi_matches_solve_reference_on_random_record(random_record):
    basis = jacobi.make_basis(grid(64), 6, 0.5)
    lams = jacobi.lambda_samples(random_record, basis, 0.5)
    k0 = jacobi.k0_matrix(random_record.u0(), 0.5, basis)
    phi = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams, k0=k0)
    want = _evolve_phi_reference(random_record, lams, k0)
    assert phi.values.shape[:2] == (len(want), 1) and len(want) == 5
    assert np.array_equal(phi.values[0, 0], want[0])
    for s, w in zip(phi.values[1:, 0], want[1:]):
        assert _rel_err(s, w) < 1e-12


def test_phi_matches_solve_reference_on_shear(shear_record, shear_basis, shear_lambdas,
                                              shear_phi):
    k0 = jacobi.k0_matrix(shear_record.u0(), shear_record.config.beta, shear_basis)
    want = _evolve_phi_reference(shear_record, shear_lambdas, k0)
    assert shear_phi.values.shape[:2] == (len(want), 1) and len(want) == 21
    assert np.array_equal(shear_phi.values[0, 0], want[0])
    for s, w in zip(shear_phi.values[1:, 0], want[1:]):
        assert _rel_err(s, w) < 1e-12


def test_k0_passed_once_gives_identical_phi_and_residual(random_record):
    basis = jacobi.make_basis(grid(64), 4, 0.5)
    lams = jacobi.lambda_samples(random_record, basis, 0.5)
    k0 = jacobi.k0_matrix(random_record.u0(), 0.5, basis)
    phi = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams)
    phi_k0 = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams, k0=k0)
    assert np.array_equal(phi.times, phi_k0.times)
    assert np.array_equal(phi.values, phi_k0.values)
    _, _, resid = jacobi.omega_gamma_split(random_record, basis, 0.5, phi, lambdas=lams)
    _, _, resid_k0 = jacobi.omega_gamma_split(random_record, basis, 0.5, phi,
                                              lambdas=lams, k0=k0)
    assert resid == resid_k0


def test_phi_trivial_geodesic_is_linear():
    # u0 = 0 keeps gamma = id, so Phi(t) = t I exactly
    g = grid(32)
    psi0 = ScalarField.zero(g)
    cfg = SolverConfig(beta=0.5, dt=1e-2, t_final=0.5, n=32, snapshot_stride=10)
    rec = simulate(psi0, cfg)
    basis = jacobi.make_basis(g, 3, 0.5)
    phi = jacobi.evolve_phi(rec, basis, 0.5)
    for t, s in zip(phi.times, phi.values[:, 0]):
        assert np.max(np.abs(s - t * np.eye(basis.dim))) < 1e-10
    _, _, resid = jacobi.omega_gamma_split(rec, basis, 0.5, phi)
    assert resid < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_simpson_weights_match_scipy_cumulative_simpson(n):
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(0.1, 1.0, n))  # uneven spacing
    y = rng.standard_normal((n, 3, 2))
    want = cumulative_simpson(y, x=t, axis=0, initial=0.0)
    got = np.tensordot(jacobi._simpson_weights(t), y, axes=1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class _SegmentRecord:
    """What ``omega_gamma_split`` reads of a record given Lambda and K0: its times."""

    def __init__(self, times):
        self.times = times


def _segment_omega(lam0, lam1, h):
    """Omega(h) of ``omega_gamma_split`` on the single interval [0, h]."""
    d = len(lam0)
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, m) for t, m in ((0.0, lam0), (h, lam1)))
    k0 = np.zeros((d, d))
    phi = dense_phi([0.0, h], [t * np.eye(d) for t in (0.0, h)])
    omega, _, _ = jacobi.omega_gamma_split(_SegmentRecord([0.0, h]), None, 0.5, phi,
                                           lambdas=lams, k0=k0)
    return omega[-1].matrix


def test_residual_of_a_non_finite_phi_is_nan():
    # a NaN Phi must not read as a residual of 0, which max(0.0, nan) would give
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, np.eye(3)) for t in (0.0, 0.1))
    k0 = np.zeros((3, 3))
    phi = dense_phi([0.0, 0.1], [np.zeros((3, 3)), np.full((3, 3), np.nan)])
    _, _, resid = jacobi.omega_gamma_split(_SegmentRecord([0.0, 0.1]), None, 0.5, phi,
                                           lambdas=lams, k0=k0)
    assert np.isnan(resid)


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def test_omega_gamma_split_holds_one_integrand_stack():
    # d = 400 on random SPD Lambdas: Gamma matches the explicit-inverse
    # reference, and the only (T, d, d) arrays are Omega, Gamma and the
    # integrand stack.  Measured: 3.6 stacks of T d^2 doubles (22.0 MiB), and
    # 5.8 (35.4 MiB) with whole stacks of Phi, Lambda^-1 and its products
    rng = np.random.default_rng(11)
    d, times = 400, np.linspace(0.0, 0.2, 5)
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, _random_spd(rng, d) / d) for t in times)
    a = rng.standard_normal((d, d))
    k0 = a - a.T
    phi = dense_phi(times, [t * np.eye(d) + t**2 * rng.standard_normal((d, d))
                            for t in times])
    tracemalloc.start()
    try:
        _, gamma, _ = jacobi.omega_gamma_split(_SegmentRecord(times), None, 0.5, phi,
                                               lambdas=lams, k0=k0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(times) * d * d * 8
    want = _gamma_reference(lams, k0, phi)
    assert np.array_equal(gamma[0].matrix, want[0])
    for g_, w in zip(gamma[1:], want[1:]):
        assert _rel_err(g_.matrix, w) < 1e-13


def test_omega_gamma_split_refuses_phi_of_another_sampling():
    # as many Phi samples as Lambda samples, but not at the same times
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, np.eye(3)) for t in (0.0, 0.1, 0.2, 0.3))
    k0 = np.zeros((3, 3))
    times = [0.0, 0.1, 0.25, 0.35]
    phi = dense_phi(times, [t * np.eye(3) for t in times])
    with pytest.raises(ValueError, match=r"phi sample 2 is at t = 0\.25, the Lambda path's "
                                         r"at t = 0\.2"):
        jacobi.omega_gamma_split(_SegmentRecord([0.0, 0.1, 0.2, 0.3]), None, 0.5, phi,
                                 lambdas=lams, k0=k0)
    with pytest.raises(ValueError, match="do not match the record sampling"):
        jacobi.omega_gamma_split(_SegmentRecord([0.0, 0.1, 0.2, 0.3]), None, 0.5,
                                 jacobi.PhiBlocks(phi.times[:3], phi.values[:3]),
                                 lambdas=lams, k0=k0)


def test_omega_gamma_split_refuses_more_than_one_block():
    # the sphere's two 2x2 blocks on d = 4 indices: read as block 0 alone they
    # would give a residual of the wrong operator, not an error
    times = np.linspace(0.0, 0.3, 4)
    lams = jacobi.LambdaPath(jacobi.OperatorSample(t, np.eye(4)) for t in times)
    k0 = np.zeros((4, 4))
    phi = sphere.sphere_phi_samples([1, 2], 1.0, times)
    with pytest.raises(ValueError, match="Phi of 2 blocks of 2 x 2 is not one 4 x 4 block"):
        jacobi.omega_gamma_split(_SegmentRecord(times), None, 0.5, phi, lambdas=lams, k0=k0)


def test_evolve_phi_returns_one_block_at_the_lambda_path_times(random_record):
    basis = jacobi.make_basis(grid(64), 4, 0.5)
    lams = jacobi.lambda_samples(random_record, basis, 0.5)
    phi = jacobi.evolve_phi(random_record, basis, 0.5, lambdas=lams)
    assert isinstance(phi, jacobi.PhiBlocks)
    assert phi.values.shape == (len(lams), 1, basis.dim, basis.dim)
    assert np.array_equal(phi.times, [lam.t for lam in lams])
    assert np.array_equal(phi.times, random_record.times)


def test_omega_is_exact_on_a_segment_with_spread_mu():
    # Lambda_1 = R^T V diag(mu) V^T R for Lambda_0 = R^T R: generalized
    # eigenvalues mu from 0.25 to 4, so 1 / (1 - s + s mu) varies fourfold
    rng = np.random.default_rng(7)
    d, h = 8, 0.3
    lam0 = _random_spd(rng, d)
    r = np.linalg.cholesky(lam0).T
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    lam1 = r.T @ v @ np.diag(np.geomspace(0.25, 4.0, d)) @ v.T @ r
    omega = _segment_omega(lam0, lam1, h)
    x, w = np.polynomial.legendre.leggauss(20)
    want = sum(0.5 * h * wk * np.linalg.inv((1 - s) * lam0 + s * lam1)
               for s, wk in zip(0.5 * (x + 1), w))
    assert np.array_equal(omega, omega.T)
    assert np.linalg.norm(omega - want) <= 1e-12 * np.linalg.norm(want)


def test_omega_of_a_constant_lambda_is_h_lambda_inverse():
    lam = _random_spd(np.random.default_rng(8), 8)
    omega = _segment_omega(lam, lam, 0.3)
    want = 0.3 * np.linalg.inv(lam)
    assert np.array_equal(omega, omega.T)
    assert np.linalg.norm(omega - want) <= 1e-12 * np.linalg.norm(want)


def test_phi_initial_conditions(shear_phi, shear_basis):
    assert np.max(np.abs(shear_phi.values[0, 0])) < 1e-14
    h = shear_phi.times[1]
    slope = shear_phi.values[1, 0] / h
    assert np.max(np.abs(slope - np.eye(shear_basis.dim))) < 10 * h


def test_detect_conjugate_sphere_single_mode():
    t_star = sphere.conjugate_time(2, 1.0)
    times = np.linspace(0.0, 1.3 * t_star, 401)
    phi = sphere.sphere_phi_samples([2], 1.0, times)
    report = jacobi.detect_conjugate(phi)
    assert len(report.detected) == 1
    t_det, mult = report.detected[0]
    assert abs(t_det - t_star) < 1e-6
    assert mult == 2


def test_median_equals_numpy_median_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in range(1, 901):  # odd and even lengths, ties among the rounded ones
        trace = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
        if n % 3 == 0:
            trace = np.round(trace, 1)
        kept = trace.copy()
        got, want = jacobi._median(trace), np.median(trace)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), n
        assert np.array_equal(trace, kept)
    for n in (1, 6, 7):
        trace = rng.random(n)
        trace[n // 2] = np.nan
        assert np.isnan(jacobi._median(trace))


def test_default_threshold_is_factor_times_median():
    times = np.linspace(0.0, 1.3 * sphere.conjugate_time(2, 1.0), 400)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples([2, 3], 1.0, times))
    assert report.threshold == jacobi.THRESHOLD_FACTOR * float(np.median(report.sigma_min))


def test_detect_conjugate_none_before_first():
    t_star = sphere.conjugate_time(1, 0.5)
    times = np.linspace(0.0, 0.8 * t_star, 201)
    phi = sphere.sphere_phi_samples([1, 2, 3], 0.5, times)
    report = jacobi.detect_conjugate(phi)
    assert report.detected == []


def test_detect_conjugate_rejects_unordered_times(densify):
    # the second puts a sample at t = -0.05 between positive times: dropping
    # t <= 0 before the order check would leave an increasing trace
    for times in (np.linspace(0.0, 1.0, 6)[[0, 1, 3, 2, 4, 5]],
                  [0.0, 0.1, -0.05, 0.2, 0.3, 0.4]):
        phi = sphere.sphere_phi_samples([2], 1.0, times)
        for form in (phi, densify(phi)):
            with pytest.raises(ValueError, match="strictly increasing"):
                jacobi.detect_conjugate(form)


def test_conjugate_report_csv_schema():
    t_star = sphere.conjugate_time(2, 1.0)
    times = np.linspace(0.0, 1.3 * t_star, 401)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples([2], 1.0, times))
    lines = report.csv().strip().split("\n")
    assert lines[0] == "t,sigma_min,det_sign"
    assert "t_conj,multiplicity" in lines
    tail = lines[lines.index("t_conj,multiplicity") + 1:]
    assert len(tail) == 1
    t_val, mult = tail[0].split(",")
    assert abs(float(t_val) - t_star) < 1e-6
    assert int(mult) == 2


def test_conjugate_report_csv_rows_are_exact_on_readme_scan():
    times = np.linspace(0.0, 7.2, 801)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples(range(1, 31), 1.0, times))
    text = report.csv()
    # the formatting of numpy scalars by f-string, row by row
    rows = [f"{t:.17g},{s:.17g},{d:.0f}"
            for t, s, d in zip(report.times, report.sigma_min, report.det_sign)]
    tail = [f"{t:.17g},{m}" for t, m in report.detected]
    assert text == "\n".join(["t,sigma_min,det_sign", *rows, "t_conj,multiplicity", *tail]) + "\n"
    n = len(report.times)
    assert n == len(times) - 1
    parsed = np.array([[float(v) for v in row.split(",")] for row in text.split("\n")[1:n + 1]])
    assert np.array_equal(parsed[:, 0], report.times)
    assert np.array_equal(parsed[:, 1], report.sigma_min)
    assert np.array_equal(parsed[:, 2], report.det_sign)


def test_detect_conjugate_finds_every_t_n_on_readme_scan():
    # the 30 T_n(1) lie in [4.44, 6.29], as close as 0.0025 apart, against a
    # sample spacing of 0.009; each is a double zero of its own 2x2 block
    times = np.linspace(0.0, 7.2, 801)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples(range(1, 31), 1.0, times))
    t_exact = sorted(sphere.conjugate_time(n, 1.0) for n in range(1, 31))
    assert len(report.detected) == 30
    for (t_det, mult), t_ref in zip(report.detected, t_exact):
        assert abs(t_det - t_ref) < 1e-11
        assert mult == 2
    assert sum(m for _, m in report.detected) == 60


def test_detect_conjugate_counts_closed_form_on_criterion_10_stacks():
    for beta, expected in ((0.0, 2), (0.5, 2), (0.75, 10)):
        horizon = 1.1 * sphere.conjugate_time(1, beta)
        times = np.linspace(0.0, horizon, 801)
        report = jacobi.detect_conjugate(sphere.sphere_phi_samples(range(1, 31), beta, times))
        inside = sum(sphere.conjugate_time(n, beta) <= times[-1] for n in range(1, 31))
        assert sum(m for _, m in report.detected) == expected == 2 * inside


def test_detect_conjugate_matches_reference_on_dense_phi(random_record):
    basis = jacobi.make_basis(grid(64), 4, 0.5)
    phi = jacobi.evolve_phi(random_record, basis, 0.5)
    assert phi.values.shape == (5, 1, basis.dim, basis.dim)
    assert np.all(phi.values[-1] != 0)  # dense: the support is every entry
    _assert_detection_matches_reference(phi)


def test_detect_conjugate_merges_coinciding_blocks():
    times = np.linspace(0.0, 1.3 * sphere.conjugate_time(2, 1.0), 401)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples([2, 2], 1.0, times))
    assert len(report.detected) == 1
    t_det, mult = report.detected[0]
    assert abs(t_det - sphere.conjugate_time(2, 1.0)) < 1e-6
    assert mult == 4


_TWO_BY_TWO = {
    "random": lambda rng, n: rng.standard_normal((n, 2, 2)),
    "rank_one": lambda rng, n: _outer(rng, n),
    "rotation_scaling": lambda rng, n: _rotation_scaling(*rng.standard_normal((2, n))),
    "rank_one_noise": lambda rng, n: _outer(rng, n) + 1e-12 * rng.standard_normal((n, 2, 2)),
    "scaled": lambda rng, n: (rng.standard_normal((n, 2, 2))
                              * 10.0 ** rng.uniform(-8.0, 8.0, (n, 2, 2))),
    "zero": lambda rng, n: np.zeros((n, 2, 2)),
}


def _outer(rng, n):
    u, v = rng.standard_normal((2, n, 2))
    return u[:, :, None] * v[:, None, :]


def _rotation_scaling(x, y):
    return np.stack([np.stack([x, -y], -1), np.stack([y, x], -1)], -2)


@pytest.mark.parametrize("family", list(_TWO_BY_TWO))
def test_closed_form_2x2_matches_lapack(family):
    a = _TWO_BY_TWO[family](np.random.default_rng(2024), 100_000)
    eps = np.finfo(float).eps
    ref = np.linalg.svd(a, compute_uv=False)
    sv = jacobi._svals(a)
    smax = ref[:, :1]
    assert sv.shape == ref.shape
    assert np.all(np.abs(sv - ref) <= 8 * eps * smax)
    assert np.all(np.abs(jacobi._det(a) - np.linalg.det(a)) <= 64 * eps * smax[:, 0]**2)
    if family == "rotation_scaling":
        # a double singular value is exactly double, so multiplicity 2 is not luck
        assert np.array_equal(sv[:, 0], sv[:, 1])


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_detect_conjugate_skips_only_proven_minima(random_record, monkeypatch):
    basis = jacobi.make_basis(grid(64), 4, 0.5)
    phi = jacobi.evolve_phi(random_record, basis, 0.5)
    calls = _count_svd(monkeypatch)
    report = jacobi.detect_conjugate(phi)
    # sigma_min stays near 1 against a threshold near 1e-3: the trace SVD only
    assert report.detected == []
    assert np.min(report.sigma_min) > 100 * report.threshold
    assert len(calls) == 1

    # a threshold just below the smallest sample is out of the bound's reach,
    # so that minimum is refined, and rejected
    calls.clear()
    thr = 0.999 * np.min(report.sigma_min)
    near = jacobi.detect_conjugate(phi, threshold=thr)
    assert near.detected == []
    assert len(calls) > 2


def test_detect_conjugate_skips_by_the_spectral_drift(monkeypatch):
    # Phi/t = (1 + 10 (t - 0.4)^2) I + 0.1 (t - 0.4) Q, Q orthogonal (d = 200):
    # sigma_min has its one sampled minimum, 1, at t = 0.4, where the local
    # quadratic has c_1 = 0.01 Q and c_2 = 0.1 I.  Their Frobenius drift,
    # 0.11 sqrt(d) = 1.56, proves nothing; their spectral drift, 0.11, proves
    # sigma_min >= 0.89 on the bracket, so nothing is refined
    d = 200
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d)))[0]
    times = np.linspace(0.0, 0.7, 8)
    phi = dense_phi(times, [t * ((1 + 10 * (t - 0.4)**2) * np.eye(d) + 0.1 * (t - 0.4) * q)
                            for t in times])
    stack = phi.values[1:] / times[1:, None, None, None]
    ti, bi = np.array([3]), np.array([0])
    c, _, drift = jacobi._local_poly(times[1:], stack, ti, bi)
    assert drift[0] == pytest.approx(0.11 * np.sqrt(d), rel=1e-9)
    assert jacobi._svals(c[1:])[..., 0].sum(axis=0) == pytest.approx([0.11], rel=1e-9)

    def no_zoom(f, a, b):
        raise AssertionError("a proven minimum was refined")

    monkeypatch.setattr(jacobi, "_zoom", no_zoom)
    report = jacobi.detect_conjugate(phi)
    assert report.detected == []
    assert report.sigma_min[3] == pytest.approx(1.0, rel=1e-12)
    assert np.argmin(report.sigma_min) == 3
    assert report.sigma_min[3] - drift[0] < report.threshold


@pytest.mark.parametrize("stack", ["sphere", "dense", "monomial"])
def test_local_poly_drift_bounds_the_block_polynomials(random_record, stack):
    # the skip rule is only sound if the drift bounds how far each local
    # polynomial moves from its centre sample over the bracket; the fit is
    # taken around every sample, so every minimum, skipped or refined, is covered
    if stack == "sphere":
        blocks = sphere.sphere_phi_samples(range(1, 6), 1.0, np.linspace(0.0, 7.2, 81))
        times = blocks.times[1:]
        groups = [blocks.values[1:] / times[:, None, None, None]]
    elif stack == "dense":
        phi = jacobi.evolve_phi(random_record, jacobi.make_basis(grid(64), 4, 0.5), 0.5)
        times = phi.times[1:]
        groups = [phi.values[1:] / times[:, None, None, None]]
    else:
        # a quartic monomial centred at sample 4 times a rank-one matrix: the
        # fit is exact, and on that bracket the bound is attained by its top term
        times = np.linspace(0.0, 1.0, 9)
        groups = [np.array([(t - times[4])**4 * np.array([[1.0, 2.0], [0.0, 0.0]])
                            for t in times])[:, None]]
    nt = len(times)
    for blocks in groups:
        ti, bi = (a.ravel() for a in np.meshgrid(np.arange(nt), np.arange(blocks.shape[1]),
                                                 indexing="ij"))
        c, r, drift = jacobi._local_poly(times, blocks, ti, bi)
        lo, hi = np.maximum(ti - 1, 0), np.minimum(ti + 1, nt - 1)
        p = np.array([jacobi._poly_at(c, (t - times[ti]) / r)
                      for t in np.linspace(times[lo], times[hi], 1000)])
        scale = np.max(np.abs(blocks))
        assert np.max(np.abs(p[0] - blocks[lo, bi])) <= 1e-12 * scale
        assert np.max(np.abs(p[-1] - blocks[hi, bi])) <= 1e-12 * scale
        moved = np.linalg.norm(p - blocks[ti, bi], axis=(-2, -1)).max(axis=0)
        assert np.all(moved <= drift * (1 + 1e-12))
        if stack == "monomial":
            assert moved[4] == pytest.approx(drift[4], rel=1e-12)


def _count_calls(f):
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)
    return counted, calls


def test_zoom_finds_the_lowest_of_two_minima():
    # two V-shaped minima, the lower (0) at 0.8 and the higher (0.1) at 0.3:
    # golden section assumes one minimum and returns 0.3 on this bracket; the
    # zoom keeps the cells around the smallest grid value, which lie at 0.8
    f, calls = _count_calls(lambda x: np.minimum(5.0 * np.abs(x - 0.8), 0.1 + np.abs(x - 0.3)))
    t = jacobi._zoom(f, np.array([0.0]), np.array([1.0]))
    assert abs(t[0] - 0.8) < 1e-12
    assert 0 < len(calls) <= 10
    assert all(shape == (jacobi._ZOOM_POINTS, 1) for shape in calls)


def test_zoom_takes_nine_rounds_on_readme_scan_brackets(monkeypatch):
    # every candidate bracket of the README scan is two sample spacings,
    # 0.018, wide (one at the ends): 9 rounds shrink it below 1e-12
    rounds, zoom = [], jacobi._zoom

    def counted_zoom(f, a, b):
        assert np.max(b - a) == pytest.approx(0.018)
        g, calls = _count_calls(f)
        out = zoom(g, a, b)
        rounds.append(len(calls))
        return out

    monkeypatch.setattr(jacobi, "_zoom", counted_zoom)
    times = np.linspace(0.0, 7.2, 801)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples(range(1, 31), 1.0, times))
    assert len(report.detected) == 30
    assert rounds == [9]


@pytest.mark.parametrize("block", ["diagonal", "rotation_scaling"])
def test_detect_conjugate_reproduces_a_quartic(block):
    # Phi/t is a polynomial of degree 4 with sigma_min zero at t = 1.23, off
    # the 11 samples: each local fit reproduces it, so the refined time is the
    # zero itself (by the grid zoom on sigma_min, although the determinant
    # of the diagonal block changes sign there and that of the rotation-scaling
    # one does not)
    times = np.linspace(0.2, 2.2, 11)
    q = (times - 1.23) * (1.0 + times + 0.5 * times**3)
    if block == "diagonal":
        per_t = np.stack([np.diag([x, 2.0 + t]) for x, t in zip(q, times)])
    else:
        per_t = _rotation_scaling(q, 0.5 * q)
    values = (times[:, None, None] * per_t)[:, None]
    blocks = jacobi.PhiBlocks(times, values)
    report = jacobi.detect_conjugate(blocks)
    assert len(report.detected) == 1
    t_det, mult = report.detected[0]
    assert abs(t_det - 1.23) < 1e-12
    assert mult == (1 if block == "diagonal" else 2)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_detect_conjugate_finds_sign_changing_zeros_of_dense_blocks(n):
    # Phi/t = A + (t - 1.5) B is singular where t - 1.5 is a real eigenvalue of
    # -B^-1 A; each such zero is simple, so the determinant changes sign across it
    times = np.linspace(0.0, 3.0, 301)
    for seed in range(8):
        a, b = np.random.default_rng([seed, n]).standard_normal((2, n, n))
        ev = np.linalg.eigvals(-np.linalg.solve(b, a))
        zeros = np.sort(ev[np.abs(ev.imag) < 1e-12].real + 1.5)
        zeros = zeros[(zeros > 0.0) & (zeros < 3.0)]
        phi = dense_phi(times, [t * (a + (t - 1.5) * b) for t in times])
        report = jacobi.detect_conjugate(phi)
        assert len(report.detected) == len(zeros)
        for (t_det, mult), z in zip(report.detected, zeros):
            assert abs(t_det - z) < 1e-11
            assert mult == 1
