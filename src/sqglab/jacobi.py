"""Galerkin-truncated Jacobi-field solver along a simulated geodesic.

A real cos/sin basis of exact fields over a half-lattice of wavevectors,
orthonormalized in the beta metric, turns the operators of the linearized
problem into dense matrices:

    Lambda(t) w = Ad*_gamma Ad_gamma w      (symmetric positive-definite)
    K0 w        = ad*_w u0                  (antisymmetric)

Lambda(t) is assembled as the Gram matrix <Ad_gamma e_i, Ad_gamma e_j>_beta
of the pushed-forward basis over the dealiased half-spectrum.  Every basis
stream is a single cos or sin mode, so the stream e_j o gamma^-1 of
Ad_gamma e_j is evaluated directly at the inverse-map points, one product
exp(i kx x) exp(i ky y) per wavevector from two phase tables; no Fourier
series is summed off the grid.  For the same reason K0 is a lookup in the
spectrum of (-Lap)^(1-b/2) psi_u0, over pairs of basis wavevectors.
The basis is its integer wavevector table alone, with no stack of grid
coefficients: coordinates, streams and K0 are read from it in closed form.

On one segment model, Lambda(t) linear between snapshots and each interval
diagonalized once (``LambdaPath``), the solution operator Phi(t) of the
linearized Cauchy problem is evolved by RK4 with no linear solves and split
into the absolutely-continuous part Omega = int Lambda^-1, in closed form, and
the compact remainder Gamma = -int Lambda^-1 K0 Phi.  Conjugate points are
flagged from the smallest singular value of Phi(t)/t, block by block over
the decoupled blocks of Phi (``PhiBlocks``, its one form: one 2x2 block per
degree from the sphere backend, the single d x d block of ``evolve_phi`` on
the torus), so that zeros of different blocks do not hide one another;
between samples a block is only interpolated near the minima of its
sigma_min, a minimum is skipped where Weyl's inequality proves that
sigma_min stays above the threshold on its bracket (by the Frobenius drift
of the interpolant first, then by its spectral drift), and each other one is
refined on that interpolant by a batched grid zoom: a few rounds of one
equispaced grid per bracket, each narrowing the bracket to the grid cells
around its smallest value.  The singular values and determinants of 2x2
blocks are taken in closed form, larger blocks through LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .euler_arnold import GeodesicRecord
from .flow import RK4_NODES, _rk4
from .group_ops import DiffeoSample
from .spectral import (
    ScalarField,
    SpectralGrid,
    TWO_PI,
    VectorFieldExact,
    _phase_powers,
    check_beta,
    frac_laplacian,
    gradient_perp,
)


@dataclass(frozen=True)
class GalerkinBasis:
    """Real trigonometric streams over 0 < |k| <= K, beta-orthonormalized.

    ``k`` is the integer wavevector table, shape (d/2, 2), one row per +-k
    pair (kx > 0, or kx = 0 and ky > 0).  Coordinate 2j is the cos stream
    s_j cos(k_j.x) and coordinate 2j + 1 the sin stream s_j sin(k_j.x), with
    the amplitudes s_j of ``_mode_scale`` (``scale``).  Distinct streams are
    single, distinct +-k modes, so the basis is orthonormal by construction.
    """

    grid: SpectralGrid
    cutoff: int
    beta: float
    k: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 * len(self.k)

    @cached_property
    def scale(self) -> np.ndarray:
        """The amplitude s_j of the cos and sin streams of k_j, shape (d/2,), computed once."""
        return np.array([_mode_scale(kx, ky, self.beta) for kx, ky in self.k.tolist()])

    def field_of(self, coords: np.ndarray) -> ScalarField:
        """The stream sum_j coords_j e_j: s/2 (a_cos - i a_sin) at k, its conjugate at -k."""
        n = self.grid.n
        a = np.asarray(coords, dtype=float).reshape(-1, 2)
        z = 0.5 * self.scale * (a[:, 0] - 1j * a[:, 1])
        c = np.zeros((n, n), dtype=complex)
        c[self.k[:, 0] % n, self.k[:, 1] % n] = z
        c[-self.k[:, 0] % n, -self.k[:, 1] % n] = np.conj(z)
        return ScalarField(self.grid, c)

    def vector_of(self, coords: np.ndarray) -> VectorFieldExact:
        return gradient_perp(self.field_of(coords))

    def compose(self, fm) -> np.ndarray:
        """Half-spectrum coefficients of e_j o fm for the whole basis.

        The cos and sin streams of a wavevector k are the real and imaginary
        parts of s exp(i k.x), sampled at the mapped grid points as
        exp(i kx x) exp(i ky y), from one table of exp(i k x) and one of
        exp(i k y) for k = 0..K, each built from a single exponential by
        repeated products (``_phase_powers``); a negative ky reads the
        conjugate of its table entry (cos is even and sin odd).  Each unit
        stream pair is multiplied into one reused N x N buffer, its two real
        sample grids go through one real transform, pruned to the columns of
        the dealiased band (``_band``), then along x, and the amplitudes
        s_j / N^2 scale the band output once: shape (d, 2c + 1, c + 1).  The
        k = 0 entry holds the mean, which every weight of ``_band_weight``
        zeroes.  Transforming one k at a time keeps the working set to a few
        N x N arrays; whole-basis (d, N, N) temporaries measured slower.
        """
        g = self.grid
        n, c = g.n, g.cutoff
        px, py = fm.points()
        ex, ey = _phase_powers(self.cutoff, px), _phase_powers(self.cutoff, py)
        out = np.empty((len(self.k), 2, 2 * c + 1, c + 1), dtype=complex)
        z = np.empty((n, n), dtype=complex)  # exp(i k.x) of one k
        pair = np.empty((2, n, n))           # its cos and sin streams
        for j, (kx, ky) in enumerate(self.k.tolist()):
            np.multiply(ex[kx], ey[ky] if ky >= 0 else np.conjugate(ey[-ky], out=z), out=z)
            pair[0], pair[1] = z.real, z.imag
            half = np.fft.rfft(pair, axis=-1)[..., :c + 1]
            out[j] = _band(g, np.fft.fft(half, axis=-2))
        out *= (self.scale / n**2)[:, None, None, None]
        return out.reshape(self.dim, 2 * c + 1, c + 1)


@cache
def _band_rows(n: int, c: int) -> np.ndarray:
    """The rows kx = 0..c, -c..-1 of an N-point spectrum in FFT order, read-only."""
    rows = np.r_[0:c + 1, n - c:n]
    rows.flags.writeable = False
    return rows


def _band(g: SpectralGrid, a: np.ndarray) -> np.ndarray:
    """The dealiased half-spectrum kx in [-c, c], ky in [0, c] of coefficient arrays."""
    c = g.cutoff
    return a[..., _band_rows(g.n, c), :c + 1]


def _band_weight(g: SpectralGrid, alpha: float) -> np.ndarray:
    """|k|^(2 alpha) on ``_band`` times the Hermitian multiplicity.

    A real field has c(-k) = conj(c(k)), so a full-spectrum sum of
    w(k) Re(conj(a_k) b_k) with even w is the band sum with multiplicity 2,
    except on the ky = 0 column, which holds both k and -k (as the Nyquist
    column would; it lies outside the 2/3 band).
    """
    w = 2.0 * _band(g, g.k_power(alpha))
    w[:, 0] /= 2.0
    return w


def _mode_scale(kx: int, ky: int, beta: float) -> float:
    """Amplitude giving grad_perp cos(k.x) and grad_perp sin(k.x) unit beta norm."""
    # field norm: ||grad_perp cos(k.x)||_beta^2 = |k|^(2-beta) 2 pi^2
    return 1.0 / np.sqrt(float(kx**2 + ky**2) ** (1.0 - beta / 2.0) * 2.0 * np.pi**2)


def make_basis(g: SpectralGrid, cutoff: int, beta: float) -> GalerkinBasis:
    """Half-lattice basis {cos(k.x), sin(k.x)} with unit beta norm."""
    check_beta(beta)
    if cutoff < 2:
        raise ValueError(f"basis cutoff K = {cutoff} must be >= 2")
    if cutoff > g.cutoff:
        raise ValueError(f"basis cutoff K = {cutoff} exceeds the dealias cutoff "
                         f"N // 3 = {g.cutoff} (N = {g.n})")
    r = np.arange(-cutoff, cutoff + 1)
    kx, ky = np.meshgrid(r, r, indexing="ij")  # kx-major, as the rows of the table
    # 0 < |k| <= K, one representative per +-k pair
    keep = (kx**2 + ky**2 <= cutoff**2) & ((kx > 0) | ((kx == 0) & (ky > 0)))
    return GalerkinBasis(g, cutoff, beta, np.column_stack([kx[keep], ky[keep]]))


@dataclass(frozen=True)
class OperatorSample:
    """Dense matrix representation of one of the Jacobi-analysis operators."""

    t: float
    matrix: np.ndarray


def k0_matrix(u0: VectorFieldExact, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Matrix of K0 w = ad*_w u0 in the basis coordinates, in closed form.

    Column j is ad*_{e_j} u0, whose stream is (-Lap)^(b/2-1) of the bracket
    {S, e_j}, S = (-Lap)^(1-b/2) psi_u0.  Each basis stream is one +-k mode,
    e_j = sum_s c_j^s exp(i s k_j.x), and the bracket of S with exp(i q.x)
    has the coefficient (p x q) S[p - q] at p, so

        K0_ij = (2 pi)^2 Re sum_{t,s = +-1} conj(c_i^t) c_j^s (t k_i x s k_j) S[t k_i - s k_j]

    with S the 2/3-masked spectrum: a lookup, no transform.  S is real, so
    S[-k] = conj(S[k]) and the t = -1 terms are the conjugates of the t = +1
    terms.  What is left are two lookups over the d/2 wavevectors k_p,
    A = (k_p x k_q) S[k_p - k_q] and B = (k_p x k_q) S[k_p + k_q] (indices
    mod N); with P = A - B and Q = A + B the (cos, cos), (cos, sin),
    (sin, cos) and (sin, sin) entries of wavevectors p, q are
    (2 pi)^2 s_p s_q / 2 times Re P, Im Q, -Im P and Re Q.  The working set
    is a few (d/2)^2 arrays and two of the result's size: a warmed call at
    K = 21 (d = 1372, N = 64) takes 24 ms and peaks at 36 MiB under
    ``tracemalloc``, where a (2d)^2 lookup over all four sign pairs took
    310 ms and 402 MiB.  A 2/3-rule product aliased onto a basis mode would
    need p parallel to q, where the cross product vanishes, so this equals
    the dealiased grid bracket.  The antisymmetric part is returned, so
    K0^T = -K0 exactly.
    """
    check_beta(beta)
    g = basis.grid
    n, h = g.n, len(basis.k)
    s = (frac_laplacian(u0.stream, 1.0 - beta / 2.0).coeff * g.dealias_mask).ravel()
    kx, ky = basis.k.T
    # (2 pi)^2 s_p s_q / 2 (k_p x k_q)
    w = np.multiply.outer(kx, ky) - np.multiply.outer(ky, kx)
    w = w * np.multiply.outer(basis.scale, basis.scale) * (0.5 * TWO_PI**2)
    p = w * s[np.add.outer(kx, -kx) % n * n + np.add.outer(ky, -ky) % n]  # A
    b = w * s[np.add.outer(kx, kx) % n * n + np.add.outer(ky, ky) % n]    # B
    q = p + b  # Q = A + B
    p -= b     # P = A - B
    del b
    m = np.empty((h, 2, h, 2))  # (wavevector, cos|sin, wavevector, cos|sin)
    m[:, 0, :, 0] = p.real
    m[:, 0, :, 1] = q.imag
    m[:, 1, :, 0] = -p.imag
    m[:, 1, :, 1] = q.real
    del p, q
    m = m.reshape(basis.dim, basis.dim)
    k0 = np.subtract(m, m.T)
    k0 *= 0.5
    return OperatorSample(0.0, k0)


def lambda_matrix(d: DiffeoSample, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Lambda(t) as the Gram matrix of the directly evaluated pushed-forward basis.

    Lambda_ij = <Ad_gamma e_i, Ad_gamma e_j>_beta = (2 pi)^2 Re(A^H W A) with
    A_kj = c_k(e_j o gamma^-1) on the dealiased half-spectrum and W the
    weights |k|^(2-beta) times the Hermitian multiplicity, so the matrix is
    symmetric positive-semidefinite by construction.  Reading gamma^-1
    builds it on first use; NumericalAbort where gamma is not invertible on
    the grid (``DiffeoSample.inverse``).
    """
    check_beta(beta)
    a = basis.compose(d.inverse)
    a *= np.sqrt(_band_weight(basis.grid, 1.0 - beta / 2.0))  # in place: no second copy
    b = a.reshape(basis.dim, -1).view(float)  # real and imaginary parts side by side
    return OperatorSample(d.t, (b @ b.T) * TWO_PI**2)


def _refused(t: float, what: str) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"Lambda({t}) is {what}; raise the resolution or lower "
                                 f"the basis cutoff")


def lambda_inverse(sample: OperatorSample) -> np.ndarray:
    try:
        return np.linalg.inv(sample.matrix)
    except np.linalg.LinAlgError as exc:
        raise _refused(sample.t, "singular") from exc


class LambdaPath(tuple):
    """Lambda samples, taken linear between them; each interval is diagonalized once."""

    @cached_property
    def segments(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """(h, mu, X) of each interval: its length and its ``_segment_eigh``."""
        return [(b.t - a.t,) + _segment_eigh(a, b) for a, b in zip(self, self[1:])]


def lambda_samples(record: GeodesicRecord, basis: GalerkinBasis, beta: float) -> LambdaPath:
    return LambdaPath(lambda_matrix(d, beta, basis) for d in record.diffeos)


def _operators(record, basis, beta, lambdas, k0) -> tuple[LambdaPath, OperatorSample]:
    """The Lambda path and K0 of the Jacobi chain: those given, the others built from record."""
    path = lambda_samples(record, basis, beta) if lambdas is None else lambdas
    return path, k0_matrix(record.u0(), beta, basis) if k0 is None else k0


def _segment_eigh(lam0: OperatorSample, lam1: OperatorSample) -> tuple[np.ndarray, np.ndarray]:
    """(mu, X) with Lambda_1 X = Lambda_0 X diag(mu) and X^T Lambda_0 X = I.

    X diagonalizes the whole segment Lambda(s) = (1 - s) Lambda_0 + s Lambda_1:
    X^T Lambda(s) X = diag(1 - s + s mu), so Lambda(s)^-1 = X diag(1 / (1 - s + s mu)) X^T,
    symmetric positive-definite for s in [0, 1] since every mu > 0: LinAlgError
    where Lambda_0 or Lambda_1 is not positive-definite.  The Cholesky factor
    Lambda_0 = L L^T reduces the pencil to the symmetric C = L^-1 Lambda_1 L^-T
    (Golub & Van Loan, Matrix Computations, sec. 8.7; LAPACK dsygst); with
    C = V diag(mu) V^T, X = L^-T V.  mu ascends; column signs are arbitrary.
    """
    try:
        li = np.linalg.inv(np.linalg.cholesky(lam0.matrix))
    except np.linalg.LinAlgError as exc:
        raise _refused(lam0.t, "not positive-definite") from exc
    mu, v = np.linalg.eigh(li @ lam1.matrix @ li.T)
    if not mu[0] > 0:  # Lambda_1 is congruent to diag(mu)
        raise _refused(lam1.t, "not positive-definite")
    return mu, li.T @ v


def _simpson_weights(t: np.ndarray) -> np.ndarray:
    """Weights W, (T, T), of int_(t_0)^(t_i) y = sum_j W_ij y_j by scipy's cumulative Simpson.

    The intervals pair up as (0, 1), (2, 3), ..., each integrated on the
    quadratic through the three nodes of its pair, an odd last interval on
    the one through the last three nodes; two samples take the trapezoid rule.
    """
    dt = np.diff(t)
    k = np.arange(len(dt))
    w = np.zeros((len(dt), len(t)))
    if len(t) < 3:
        w[k, k] = w[k, k + 1] = 0.5 * dt
    else:
        j = np.minimum(k - k % 2, len(t) - 3)  # the first node of interval k's quadratic
        second = k > j                         # interval k is the later of the two
        near, far = np.where(second, j + 2, j), np.where(second, j, j + 2)
        p, q = dt[k], np.where(second, dt[j], dt[j + 1])  # its width, the other's width
        r = p / (p + q)
        w[k, near] = p / 6 * (3 - r)
        w[k, j + 1] = p / 6 * (3 + r + r * p / q)
        w[k, far] = -p / 6 * r * p / q
    return np.vstack([np.zeros(len(t)), np.cumsum(w, axis=0)])


@dataclass(frozen=True)
class PhiBlocks:
    """Phi(t) as its decoupled blocks of equal size s, the one form of Phi.

    values is (T, nb, s, s): block j holds the entries of Phi on the indices
    j s ... (j + 1) s - 1 at the sample times ``times`` (T,), and Phi is
    zero off these blocks.  The sphere backend gives one 2x2 block per
    degree; the dense torus Phi of ``evolve_phi`` is the single d x d block.
    """

    times: np.ndarray
    values: np.ndarray


PHI_SUBSTEPS = 10


def evolve_phi(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
               lambdas: LambdaPath | None = None,
               k0: OperatorSample | None = None) -> PhiBlocks:
    """Phi(t_i) at the Lambda path's times, as one d x d block; Phi(0) = 0, Phi'(0) = I.

    m = Lambda Phi', m' = -K0 Phi', m(0) = I keep m + K0 Phi = I, so Phi is
    the one state: Phi' = Lambda^-1 (I - K0 Phi).  Over an interval
    Lambda(s)^-1 = X D(s)^-1 X^T (``LambdaPath.segments``), and ``PHI_SUBSTEPS``
    RK4 steps run on Phi = Phi_i + X u, u' = D^-1 (X^T (I - K0 Phi_i) - X^T K0 X u):
    one matmul per stage and no solve.  Each Phi_i is written into one
    (T, 1, d, d) stack, returned as ``PhiBlocks``.
    """
    check_beta(beta)
    path, k0 = _operators(record, basis, beta, lambdas, k0)
    d = basis.dim

    phi = np.zeros((len(path), 1, d, d))
    for (h, mu, x), (prev,), (nxt,) in zip(path.segments, phi, phi[1:]):
        xk = x.T @ k0.matrix
        a, b = xk @ x, x.T - xk @ prev  # X^T K0 X and X^T (I - K0 Phi_i)
        u = np.zeros((d, d))  # Phi gains X u over the interval
        for j in range(PHI_SUBSTEPS):
            s = (j + np.array(RK4_NODES)) / PHI_SUBSTEPS  # the stage positions in the interval
            (u,) = _rk4(lambda i, y: ((b - a @ y[0]) / (1.0 - s[i] + s[i] * mu)[:, None],),
                        (u,), h / PHI_SUBSTEPS)
        np.add(prev, x @ u, out=nxt)
    return PhiBlocks(np.array([lam.t for lam in path]), phi)


def omega_gamma_split(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
                      phi: PhiBlocks, lambdas: LambdaPath | None = None,
                      k0: OperatorSample | None = None):
    """Omega/Gamma quadratures and the decomposition residual of the dense Phi.

    Omega = int Lambda^-1 is exact on the segment model of ``evolve_phi``: an
    interval adds h X diag(L(mu)) X^T, L(mu) = log(mu) / (mu - 1) > 0, as the
    Gram product Y Y^T, Y = X sqrt(h L), so it is symmetric positive-definite
    by construction.  Gamma = -int Lambda^-1 K0 Phi is the cumulative Simpson
    rule over the snapshots (``_simpson_weights``), one ``tensordot`` over the
    integrand stack, whose sample i is X (X^T K0 Phi_i) in the frame X of the
    interval from t_i (Lambda_i^-1 = X X^T), or (X / mu) (X^T K0 Phi_i) at the
    end of the last interval.  That stack and the outputs are the only
    (T, d, d) arrays it allocates; Phi is read from the single block of
    ``phi`` (``evolve_phi``).  Returns (omega_samples, gamma_samples, residual)
    with residual = max_i ||Phi_i - Omega_i - Gamma_i|| / ||Phi_i|| over t_i > 0.
    ValueError where ``phi`` is not one d x d block, or is not sampled at the
    Lambda path's times.
    """
    path, k0 = _operators(record, basis, beta, lambdas, k0)
    times = np.array([s.t for s in path])
    d = len(k0.matrix)
    if phi.values.shape[1:] != (1, d, d):
        nb, s = phi.values.shape[1:3]
        raise ValueError(f"Phi of {nb} blocks of {s} x {s} is not one {d} x {d} block")
    if len(phi.times) != len(times):
        raise ValueError(f"{len(phi.times)} phi samples, {len(times)} Lambda samples: "
                         "phi samples do not match the record sampling")
    i = np.argmax(phi.times != times)  # the first sample that differs, if any
    if phi.times[i] != times[i]:
        raise ValueError(f"phi sample {i} is at t = {float(phi.times[i])!r}, the Lambda path's "
                         f"at t = {float(times[i])!r}: phi samples do not match the record "
                         f"sampling")
    values = phi.values[:, 0]
    omega = [np.zeros((d, d))]
    for h, mu, x in path.segments:
        dm = mu - 1.0
        y = x * np.sqrt(h * np.divide(np.log1p(dm), dm, out=np.ones_like(dm), where=dm != 0))
        omega.append(omega[-1] + y @ y.T)
    # Lambda_i^-1 K0 Phi_i = X (X^T K0 Phi_i) in the frame of the interval from t_i,
    # (X / mu) (X^T K0 Phi_i) at the last sample: one stack, filled sample by sample
    _, mu, x = path.segments[-1]
    frames = [(xi, xi) for _, _, xi in path.segments] + [(x / mu, x)]
    integrand = np.empty((len(times), d, d))
    for f, (left, xi), p in zip(integrand, frames, values):
        np.matmul(left, xi.T @ k0.matrix @ p, out=f)
    gamma = np.tensordot(_simpson_weights(times), integrand, axes=1)
    del integrand
    np.negative(gamma, out=gamma)
    # a NaN anywhere reads as a NaN residual
    norm = np.array([np.linalg.norm(p) for p in values[1:]])
    err = np.array([np.linalg.norm(p - o - g_)
                    for p, o, g_ in zip(values[1:], omega[1:], gamma[1:])])
    resid = np.max(err / np.where(norm > 0, norm, np.inf), initial=0.0)
    om = [OperatorSample(t, o) for t, o in zip(times, omega)]
    ga = [OperatorSample(t, g_) for t, g_ in zip(times, gamma)]
    return om, ga, float(resid)


@dataclass(frozen=True)
class ConjugateReport:
    times: np.ndarray            # sample times (t > 0)
    sigma_min: np.ndarray        # smallest singular value of Phi(t)/t
    det_sign: np.ndarray
    detected: list               # (t_conj, multiplicity)
    threshold: float

    def csv(self) -> str:
        # one format over Python floats: f-strings on numpy scalars cost more
        rows = np.column_stack([self.times, self.sigma_min, self.det_sign]).ravel().tolist()
        trace = ("%.17g,%.17g,%.0f\n" * len(self.times)) % tuple(rows)
        tail = "".join(f"{t:.17g},{m}\n" for t, m in self.detected)
        return f"t,sigma_min,det_sign\n{trace}t_conj,multiplicity\n{tail}"


# the default detection threshold relative to the median of the sigma_min trace
THRESHOLD_FACTOR = 1e-3

# points per bracket in one round of the refinement zoom, and the width to
# which refinement brackets shrink
_ZOOM_POINTS = 33
_XATOL = 1e-12


def _blinn(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of a stack of 2x2 blocks, whose singular values are Q + R and |Q - R|.

    For [[a, b], [c, d]], Q = hypot((a + d)/2, (c - b)/2) and
    R = hypot((a - d)/2, (c + b)/2) (J. Blinn, "Consider the lowly 2x2
    matrix", IEEE CG&A 1996).  A rotation-scaling block has R = 0, so its two
    singular values are equal bit for bit.
    """
    p, b, c, d = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return np.hypot(0.5 * (p + d), 0.5 * (c - b)), np.hypot(0.5 * (p - d), 0.5 * (c + b))


def _svals(a: np.ndarray) -> np.ndarray:
    """Singular values of a stack of square blocks, largest first, shaped a.shape[:-1].

    2x2 blocks use the closed form of ``_blinn``, written into one buffer
    with no temporaries; larger ones LAPACK.
    """
    if a.shape[-1] != 2:
        return np.linalg.svd(a, compute_uv=False)
    q, r = _blinn(a)
    out = np.empty((2,) + q.shape)
    np.add(q, r, out=out[0])
    np.abs(np.subtract(q, r, out=out[1]), out=out[1])
    return np.moveaxis(out, 0, -1)


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square blocks; ad - bc for 2x2 blocks."""
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _zoom(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized grid-zoom minimization of f over the brackets [a, b].

    f maps a (G, m) array of times, column j in bracket j, to values of the
    same shape.  Each round evaluates f once on ``_ZOOM_POINTS`` = G
    equispaced points of every bracket and narrows each bracket to the two
    grid cells around its smallest value (one cell at an end), so a round
    leaves each bracket at most 2 / (G - 1) of its width.  The round count is
    fixed from the widest bracket, so every bracket shrinks below ``_XATOL``.
    Returns the midpoints of the final brackets.
    """
    shrink = 2.0 / (_ZOOM_POINTS - 1)
    rounds = max(int(np.ceil(np.log(_XATOL / np.max(b - a)) / np.log(shrink))), 0)
    s = np.linspace(0.0, 1.0, _ZOOM_POINTS)[:, None]
    cols = np.arange(len(a))
    for _ in range(rounds):
        x = a + (b - a) * s
        i = np.argmin(f(x), axis=0)
        a = x[np.maximum(i - 1, 0), cols]
        b = x[np.minimum(i + 1, _ZOOM_POINTS - 1), cols]
    return 0.5 * (a + b)


def _local_poly(times: np.ndarray, phi: np.ndarray, ti: np.ndarray, bi: np.ndarray):
    """Interpolating polynomials of the blocks bi around the samples ti, and their drift.

    Each runs through the w = min(5, T) samples centred on t_i (shifted inward
    at the ends of the trace) in x = (t - t_i) / r, r the larger half-width of
    the bracket [t_(i-1), t_(i+1)]: p = sum_k c_k x^k, c_0 = phi[t_i] exactly
    and the rest from one batched solve.  Returns (c, r, drift), c (w, m, s, s)
    and drift = sum_(k>0) ||c_k||_F >= ||p(t) - p(t_i)||_F for |t - t_i| <= r.
    """
    nt, w = len(times), min(5, len(times))
    win = np.clip(ti - w // 2, 0, nt - w)[:, None] + np.arange(w)
    rest = win[win != ti[:, None]].reshape(len(ti), w - 1)  # the window without t_i
    t0 = times[ti]
    r = np.maximum(t0 - times[np.maximum(ti - 1, 0)], times[np.minimum(ti + 1, nt - 1)] - t0)
    x = (times[rest] - t0[:, None]) / r[:, None]
    c0 = phi[ti, bi]
    rhs = phi[rest, bi[:, None]]  # a gathered copy, differenced in place
    rhs -= c0[:, None]
    ck = np.linalg.solve(x[:, :, None] ** np.arange(1, w), rhs.reshape(len(ti), w - 1, -1))
    del rhs  # each temporary goes as soon as it is read: a dense block is d^2 per sample
    c = np.concatenate([c0[None], np.moveaxis(ck, 1, 0).reshape((w - 1,) + c0.shape)])
    del ck
    return c, r, sum(np.linalg.norm(ci, axis=(-2, -1)) for ci in c[1:])


def _poly_at(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k x^k by Horner for ``_local_poly`` coefficients c (w, m, s, s).

    x holds one point per polynomial on its last axis, (..., m); the result is
    (..., m, s, s).  x is spread over the block entries once, since a
    broadcast over the short trailing axes in every step costs more.
    """
    x = np.broadcast_to(x[..., None, None], x.shape + c.shape[-2:]).copy()
    p = c[-1]
    for ck in c[-2::-1]:
        p = p * x + ck
    return p


def _detect_group(times: np.ndarray, phi: np.ndarray, sig: np.ndarray, thr: float):
    """Conjugate times of the blocks of Phi.

    phi is Phi/t per block, (T, nb, s, s), with its sampled sigma_min (T, nb).
    Returns (t, multiplicity, block) arrays.
    """
    nt, nb = sig.shape
    inf = np.full((1, nb), np.inf)
    is_min = (sig <= np.vstack([inf, sig[:-1]])) & (sig <= np.vstack([sig[1:], inf]))
    ti, bi = np.nonzero(is_min)
    c, r, drift = _local_poly(times, phi, ti, bi)
    # Weyl: sigma_min(p(t)) >= sigma_min(p(t_i)) - ||p(t) - p(t_i)||_2 on the bracket,
    # and ||p(t) - p(t_i)||_2 <= sum_(k>0) ||c_k||_2 <= the Frobenius drift
    reach = np.flatnonzero(sig[ti, bi] - drift < thr)
    if len(reach):  # the spectral drift, for the candidates the Frobenius one leaves
        spectral = _svals(c[1:, reach])[..., 0].sum(axis=0)
        reach = reach[sig[ti[reach], bi[reach]] - spectral < thr]
    ti, bi, c, r = ti[reach], bi[reach], c[:, reach], r[reach]
    if not len(ti):
        return np.empty(0), np.empty(0, dtype=int), bi

    t0 = times[ti]
    t_star = _zoom(lambda t: _svals(_poly_at(c, (t - t0) / r))[..., -1],
                   times[np.maximum(ti - 1, 0)], times[np.minimum(ti + 1, nt - 1)])
    sv = _svals(_poly_at(c, (t_star - t0) / r))
    hit = sv[:, -1] < thr
    mult = np.maximum(np.sum(sv < thr, axis=1), 1)
    return t_star[hit], mult[hit], bi[hit]


def _median(trace: np.ndarray) -> float:
    """The median of a 1-D trace, NaN if the trace holds a NaN.

    It equals ``np.median`` bit for bit: the mean of the middle value of the
    sorted trace, or of its two middle values, as ``np.median`` takes it of
    its partition.  ``np.median`` imports ``numpy.ma`` (about 1.25 MB
    resident) for its NaN check at the first call.
    """
    s = np.sort(trace)
    if np.isnan(s[-1]):  # the sort puts NaNs last
        return float("nan")
    n = len(s)
    return float(np.mean(s[(n - 1) // 2:n // 2 + 1]))


def detect_conjugate(phi: PhiBlocks, threshold: float | None = None) -> ConjugateReport:
    """Flag zeros of the Jacobi solution operator from sigma_min(Phi/t).

    Detection runs on the decoupled blocks of Phi (``PhiBlocks``), taken as
    given: one 2x2 block per degree from the sphere backend, the single
    dense block of ``evolve_phi`` on the torus.
    Sample times must strictly increase; the leading samples at t <= 0 are
    dropped.  The reported trace is the smallest block sigma_min and the
    determinant sign the product of the block signs.  The default threshold is scale-free:
    ``THRESHOLD_FACTOR`` times the median of the trace.

    Each local minimum of a block's sampled sigma_min is a candidate,
    bracketed by its neighbouring samples.  Around it the block is the
    polynomial through the five samples centred on it (``_local_poly``;
    shifted inward at the ends of the trace, all samples if fewer), so blocks
    polynomial of degree <= 4 are reproduced.  Weyl's inequality for
    singular values, sigma_min(p(t)) >= sigma_min(p(t_i)) - ||p(t) - p(t_i)||_2,
    skips the candidate when sigma_min provably stays above the threshold on
    the bracket, by two proofs in turn: first the Frobenius drift
    sum_(k>0) ||c_k||_F of the polynomial's coefficients, then, for the
    candidates it leaves, the spectral drift sum_(k>0) ||c_k||_2, from one
    batched singular-value pass over their coefficients (the largest singular
    value, in closed form for 2x2 blocks).  The others are refined together
    by one rule, a grid zoom on the sigma_min of each polynomial over its
    bracket (``_zoom``: each round samples 33 equispaced points per bracket
    and keeps the two grid cells around the smallest value; a sign change of
    the determinant is a zero of sigma_min too).
    A refined time whose sigma_min is below the threshold is reported with
    the number of block singular values below it; within a block refined
    times closer than 1e-9 count once, and across blocks such times merge and
    their multiplicities add.  Singular values and determinants of 2x2 blocks are
    taken in closed form (``_svals``, ``_det``), larger ones through LAPACK.
    """
    times = phi.times
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    times = times[np.searchsorted(times, 0.0, side="right"):]
    if len(times) < 3:
        raise ValueError("need at least 3 samples with t > 0")
    phi = phi.values[-len(times):] / times[:, None, None, None]
    block_sig = _svals(phi)[..., -1]
    sig = np.min(block_sig, axis=1)
    dets = np.prod(np.sign(_det(phi)), axis=1)
    thr = threshold if threshold is not None else THRESHOLD_FACTOR * _median(sig)

    t_conj, mult, blocks = _detect_group(times, phi, block_sig, thr)
    found = sorted(zip(blocks.tolist(), t_conj.tolist(), mult.tolist()))
    dedup = []  # refined times that collapsed together within a block count once
    for blk, t, m in found:
        if dedup and dedup[-1][0] == blk and abs(t - dedup[-1][1]) < 1e-9:
            continue
        dedup.append((blk, t, m))
    detected = []  # coinciding times of different blocks add their multiplicities
    for _, t, m in sorted(dedup, key=lambda x: x[1]):
        if detected and abs(t - detected[-1][0]) < 1e-9:
            detected[-1] = (detected[-1][0], detected[-1][1] + m)
        else:
            detected.append((t, m))
    return ConjugateReport(times, sig, dets, detected, thr)
