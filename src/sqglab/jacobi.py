"""Galerkin-truncated Jacobi-field solver along a simulated geodesic.

A real cos/sin basis of exact fields over a half-lattice of wavevectors,
orthonormalized in the beta metric, turns the operators of the linearized
problem into dense matrices:

    Lambda(t) w = Ad*_gamma Ad_gamma w      (symmetric positive-definite)
    K0 w        = ad*_w u0                  (antisymmetric)

Lambda(t) is assembled as the Gram matrix <Ad_gamma e_i, Ad_gamma e_j>_beta
of the pushed-forward basis over the dealiased half-spectrum.  Every basis
stream is a single cos or sin mode, so the stream e_j o gamma^-1 of
Ad_gamma e_j is evaluated directly at the inverse-map points, one complex
exponential per wavevector; no Fourier series is summed off the grid.  For
the same reason K0 is a lookup in the spectrum of (-Lap)^(1-b/2) psi_u0.
The basis is its integer wavevector table alone, with no stack of grid
coefficients: coordinates, streams and K0 are read from it in closed form.

On one segment model, Lambda(t) linear between snapshots and each interval
diagonalized once, the solution operator Phi(t) of the linearized Cauchy
problem is evolved by RK4 with no linear solves and split into the
absolutely-continuous part Omega = int Lambda^-1, in closed form, and the
compact remainder Gamma = -int Lambda^-1 K0 Phi.  Conjugate points are
flagged from the smallest singular value of Phi(t)/t, block by block over
the decoupled blocks of Phi (``PhiBlocks``: one 2x2 block per degree on the
sphere, given as such by the sphere backend; a single block for dense torus
samples), so that zeros of different blocks do not hide one another;
between samples a block is only interpolated near the minima of its
sigma_min, and each such minimum is refined on that interpolant by a
batched grid zoom: a few rounds of one equispaced grid per bracket, each
narrowing the bracket to the grid cells around its smallest value.  The
singular values and determinants of 2x2 blocks are taken in closed form,
larger blocks through LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .euler_arnold import GeodesicRecord
from .flow import RK4_NODES, _rk4
from .group_ops import DiffeoSample
from .spectral import (
    ScalarField,
    SpectralGrid,
    TWO_PI,
    VectorFieldExact,
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

    @property
    def scale(self) -> np.ndarray:
        """The amplitude s_j of the cos and sin streams of k_j, shape (d/2,)."""
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

    def coords_of(self, psi: ScalarField) -> np.ndarray:
        """Coordinates <e_j, f>_beta of the exact field with stream psi."""
        return self.coords_many(psi.coeff[None])[:, 0]

    def coords_many(self, coeffs: np.ndarray) -> np.ndarray:
        """Coordinates of a (m, N, N) stack of real streams, one column per stream."""
        return self.coords_half(_band(self.grid, coeffs))

    def coords_half(self, half: np.ndarray) -> np.ndarray:
        """Coordinates of real streams given on the band of ``_band`` (as ``compose`` returns).

        The pairing of e_j with a real stream f reads f only at +-k_j:
        (2 pi)^2 |k|^(2-beta) s Re f_k for the cos stream and minus the same
        times Im f_k for the sin stream.  The band holds ky >= 0, so f_k is
        read at k, or for ky < 0 as the conjugate of f_-k.
        """
        g = self.grid
        flip = self.k[:, 1] < 0
        q = np.where(flip[:, None], -self.k, self.k)
        f = half[:, q[:, 0] % (2 * g.cutoff + 1), q[:, 1]]  # (m, d/2)
        w = g.k_power(1.0 - self.beta / 2.0)[q[:, 0] % g.n, q[:, 1]] * self.scale * TWO_PI**2
        f = w * np.where(flip, np.conj(f), f)
        return np.stack([f.real, -f.imag], axis=-1).reshape(len(half), self.dim).T

    def compose(self, fm) -> np.ndarray:
        """Half-spectrum coefficients of e_j o fm for the whole basis.

        The cos and sin streams of a wavevector k are the real and imaginary
        parts of s exp(i k.x), sampled at the mapped grid points as
        exp(i kx x) exp(i ky y).  The two real sample grids of each k go
        through one real transform, pruned to the columns of the dealiased
        band (``_band``), then along x: shape (d, 2c + 1, c + 1).  The k = 0
        entry holds the mean, which every weight of ``_band_weight`` zeroes.
        Transforming one k at a time keeps the working set to a few N x N
        arrays; whole-basis (d, N, N) temporaries measured slower.
        """
        g = self.grid
        n, kmax, c = g.n, self.cutoff, g.cutoff
        px, py = fm.points()
        ex = np.exp(1j * np.arange(kmax + 1)[:, None, None] * px)        # kx = 0..K
        ey = np.exp(1j * np.arange(-kmax, kmax + 1)[:, None, None] * py)  # ky = -K..K
        out = np.empty((len(self.k), 2, 2 * c + 1, c + 1), dtype=complex)
        pair = np.empty((2, n, n))  # the cos and sin streams of one k
        for j, ((kx, ky), s) in enumerate(zip(self.k.tolist(), self.scale)):
            z = s * (ex[kx] * ey[ky + kmax])
            pair[0], pair[1] = z.real, z.imag
            half = np.fft.rfft(pair, axis=-1)[..., :c + 1]
            out[j] = _band(g, np.fft.fft(half, axis=-2))
        out /= n**2
        return out.reshape(self.dim, 2 * c + 1, c + 1)


def _band(g: SpectralGrid, a: np.ndarray) -> np.ndarray:
    """The dealiased half-spectrum kx in [-c, c], ky in [0, c] of coefficient arrays."""
    c = g.cutoff
    return a[..., np.r_[0:c + 1, g.n - c:g.n], :c + 1]


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
        raise ValueError("basis cutoff must be >= 2")
    if cutoff > g.cutoff:
        raise ValueError(f"basis cutoff {cutoff} exceeds dealias cutoff {g.cutoff}")
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
    role: str  # Lambda | K0 | Phi | Omega | Gamma


def k0_matrix(u0: VectorFieldExact, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Matrix of K0 w = ad*_w u0 in the basis coordinates, in closed form.

    Column j is ad*_{e_j} u0, whose stream is (-Lap)^(b/2-1) of the bracket
    {S, e_j}, S = (-Lap)^(1-b/2) psi_u0.  Each basis stream is one +-k mode,
    e_j = sum_s c_j^s exp(i s k_j.x), and the bracket of S with exp(i q.x)
    has the coefficient (p x q) S[p - q] at p, so

        K0_ij = (2 pi)^2 Re sum_{t,s = +-1} conj(c_i^t) c_j^s (t k_i x s k_j) S[t k_i - s k_j]

    with S the 2/3-masked spectrum: a lookup, no transform.  A 2/3-rule
    product aliased onto a basis mode would need p parallel to q, where the
    cross product vanishes, so this equals the dealiased grid bracket.  The
    antisymmetric part is returned, so K0^T = -K0 exactly.
    """
    check_beta(beta)
    g = basis.grid
    s = frac_laplacian(u0.stream, 1.0 - beta / 2.0).coeff * g.dealias_mask
    k = np.repeat(basis.k, 2, axis=0)
    c = np.repeat(0.5 * basis.scale, 2) * np.tile([1.0, -1j], len(basis.k))  # c_j^+
    k = np.concatenate([k, -k])          # signed modes t k_i, first t = +1
    c = np.concatenate([c, np.conj(c)])  # c_i^-(k) = conj(c_i^+) for a real stream
    cross = k[:, None, 0] * k[None, :, 1] - k[:, None, 1] * k[None, :, 0]
    dk = (k[:, None] - k[None, :]) % g.n
    terms = (np.conj(c)[:, None] * c[None, :] * cross * s[dk[..., 0], dk[..., 1]]).real
    m = terms.reshape(2, basis.dim, 2, basis.dim).sum(axis=(0, 2)) * TWO_PI**2
    return OperatorSample(0.0, 0.5 * (m - m.T), "K0")


def lambda_matrix(d: DiffeoSample, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Lambda(t) as the Gram matrix of the directly evaluated pushed-forward basis.

    Lambda_ij = <Ad_gamma e_i, Ad_gamma e_j>_beta = (2 pi)^2 Re(A^H W A) with
    A_kj = c_k(e_j o gamma^-1) on the dealiased half-spectrum and W the
    weights |k|^(2-beta) times the Hermitian multiplicity, so the matrix is
    symmetric positive-semidefinite by construction.  NumericalAbort where
    gamma^-1 did not converge (``DiffeoSample.check_invertible``).
    """
    check_beta(beta)
    d.check_invertible()
    a = basis.compose(d.inverse)
    a *= np.sqrt(_band_weight(basis.grid, 1.0 - beta / 2.0))  # in place: no second copy
    b = a.reshape(basis.dim, -1).view(float)  # real and imaginary parts side by side
    return OperatorSample(d.t, (b @ b.T) * TWO_PI**2, "Lambda")


def lambda_inverse(sample: OperatorSample) -> np.ndarray:
    try:
        return np.linalg.inv(sample.matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Lambda({sample.t}) is singular; raise the resolution or lower "
            f"the basis cutoff"
        ) from exc


def lambda_samples(record: GeodesicRecord, basis: GalerkinBasis,
                   beta: float) -> list[OperatorSample]:
    return [lambda_matrix(d, beta, basis) for d in record.diffeos]


def _segment_eigh(lam0: OperatorSample, lam1: OperatorSample) -> tuple[np.ndarray, np.ndarray]:
    """(mu, X) with Lambda_1 X = Lambda_0 X diag(mu) and X^T Lambda_0 X = I.

    X diagonalizes the whole segment Lambda(s) = (1 - s) Lambda_0 + s Lambda_1:
    X^T Lambda(s) X = diag(1 - s + s mu), so Lambda(s)^-1 = X diag(1 / (1 - s + s mu)) X^T,
    symmetric positive-definite for s in [0, 1].
    """
    from scipy import linalg as sla

    try:
        return sla.eigh(lam1.matrix, lam0.matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Lambda({lam0.t}) is not positive-definite; raise the resolution "
            f"or lower the basis cutoff"
        ) from exc


def _segments(times: np.ndarray, lambdas: list[OperatorSample]):
    """(h, mu, X) of each snapshot interval: its length and its ``_segment_eigh``."""
    for i in range(len(times) - 1):
        yield (times[i + 1] - times[i],) + _segment_eigh(lambdas[i], lambdas[i + 1])


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


PHI_SUBSTEPS = 10


def evolve_phi(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
               lambdas: list[OperatorSample] | None = None,
               k0: OperatorSample | None = None) -> list[OperatorSample]:
    """Phi(t_i) at the record snapshot times; Phi(0) = 0, Phi'(0) = I.

    m = Lambda Phi', m' = -K0 Phi', m(0) = I keep m + K0 Phi = I, so Phi is
    the one state: Phi' = Lambda^-1 (I - K0 Phi).  Over an interval
    Lambda(s)^-1 = X D(s)^-1 X^T (``_segment_eigh``), and ``PHI_SUBSTEPS`` RK4
    steps run on Phi = Phi_i + X u, u' = D^-1 (X^T (I - K0 Phi_i) - X^T K0 X u):
    one matmul per stage and no solve.
    """
    check_beta(beta)
    if lambdas is None:
        lambdas = lambda_samples(record, basis, beta)
    if k0 is None:
        k0 = k0_matrix(record.u0(), beta, basis)
    times = np.asarray(record.times)
    d = basis.dim

    phi = np.zeros((d, d))
    out = [OperatorSample(0.0, phi, "Phi")]
    for t, (h, mu, x) in zip(times[1:], _segments(times, lambdas)):
        xk = x.T @ k0.matrix
        a, b = xk @ x, x.T - xk @ phi  # X^T K0 X and X^T (I - K0 Phi_i)
        u = np.zeros((d, d))  # Phi gains X u over the interval
        for j in range(PHI_SUBSTEPS):
            s = (j + np.array(RK4_NODES)) / PHI_SUBSTEPS  # the stage positions in the interval
            (u,) = _rk4(lambda i, y: ((b - a @ y[0]) / (1.0 - s[i] + s[i] * mu)[:, None],),
                        (u,), h / PHI_SUBSTEPS)
        phi = phi + x @ u
        out.append(OperatorSample(t, phi, "Phi"))
    return out


def omega_gamma_split(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
                      phi_samples: list[OperatorSample],
                      lambdas: list[OperatorSample] | None = None,
                      k0: OperatorSample | None = None):
    """Omega/Gamma quadratures and the decomposition residual.

    Omega = int Lambda^-1 is exact on the segment model of ``evolve_phi``: an
    interval adds h X diag(L(mu)) X^T, L(mu) = log(mu) / (mu - 1) > 0, as the
    Gram product Y Y^T, Y = X sqrt(h L), so it is symmetric positive-definite
    by construction.  Gamma = -int Lambda^-1 K0 Phi is the cumulative Simpson
    rule over the snapshots (``_simpson_weights``).  Returns
    (omega_samples, gamma_samples, residual) with
    residual = max_i ||Phi_i - Omega_i - Gamma_i|| / ||Phi_i|| over t_i > 0.
    """
    if lambdas is None:
        lambdas = lambda_samples(record, basis, beta)
    if k0 is None:
        k0 = k0_matrix(record.u0(), beta, basis)
    times = np.asarray(record.times)
    if len(phi_samples) != len(times):
        raise ValueError("phi samples do not match the record sampling")
    phi = np.array([s.matrix for s in phi_samples])
    integrand = np.array([lambda_inverse(s) for s in lambdas]) @ k0.matrix @ phi
    gamma = -np.tensordot(_simpson_weights(times), integrand, axes=1)
    omega = [np.zeros_like(phi[0])]
    for h, mu, x in _segments(times, lambdas):
        dm = mu - 1.0
        y = x * np.sqrt(h * np.divide(np.log1p(dm), dm, out=np.ones_like(dm), where=dm != 0))
        omega.append(omega[-1] + y @ y.T)
    resid = 0.0
    for i in range(1, len(times)):
        denom = np.linalg.norm(phi[i])
        if denom > 0:
            resid = max(resid, np.linalg.norm(phi[i] - omega[i] - gamma[i]) / denom)
    om = [OperatorSample(t, o, "Omega") for t, o in zip(times, omega)]
    ga = [OperatorSample(t, g_, "Gamma") for t, g_ in zip(times, gamma)]
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


@dataclass(frozen=True)
class PhiBlocks:
    """Phi(t) as its decoupled blocks, grouped by block size.

    Each group is (idx, values): idx is (nb, s), each row the sorted indices
    of one block of the dense Phi, and values is (T, nb, s, s), the entries
    of those blocks at every sample time.
    """

    times: np.ndarray
    groups: list


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

    2x2 blocks use the closed form of ``_blinn``, larger ones LAPACK.
    """
    if a.shape[-1] != 2:
        return np.linalg.svd(a, compute_uv=False)
    q, r = _blinn(a)
    return np.stack([q + r, np.abs(q - r)], axis=-1)


def _smin(a: np.ndarray) -> np.ndarray:
    """Smallest singular value of each square block, ``_svals(a)[..., -1]`` alone."""
    if a.shape[-1] != 2:
        return np.linalg.svd(a, compute_uv=False)[..., -1]
    q, r = _blinn(a)
    return np.abs(q - r)


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
    rhs = (phi[rest, bi[:, None]] - c0[:, None]).reshape(len(ti), w - 1, -1)
    ck = np.linalg.solve(x[:, :, None] ** np.arange(1, w), rhs)
    c = np.concatenate([c0[None], np.moveaxis(ck, 1, 0).reshape((w - 1,) + c0.shape)])
    return c, r, np.linalg.norm(c[1:], axis=(-2, -1)).sum(axis=0)


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
    """Conjugate times of one group of equal-size blocks.

    phi is Phi/t per block, (T, nb, s, s), with its sampled sigma_min (T, nb).
    Returns (t, multiplicity, block) arrays.
    """
    nt, nb = sig.shape
    inf = np.full((1, nb), np.inf)
    is_min = (sig <= np.vstack([inf, sig[:-1]])) & (sig <= np.vstack([sig[1:], inf]))
    ti, bi = np.nonzero(is_min)
    c, r, drift = _local_poly(times, phi, ti, bi)
    # Weyl: sigma_min(p(t)) >= sigma_min(p(t_i)) - ||p(t) - p(t_i)||_2 on the bracket
    reach = sig[ti, bi] - drift < thr
    ti, bi, c, r = ti[reach], bi[reach], c[:, reach], r[reach]
    if not len(ti):
        return np.empty(0), np.empty(0, dtype=int), bi

    t0 = times[ti]
    t_star = _zoom(lambda t: _smin(_poly_at(c, (t - t0) / r)),
                   times[np.maximum(ti - 1, 0)], times[np.minimum(ti + 1, nt - 1)])
    sv = _svals(_poly_at(c, (t_star - t0) / r))
    hit = sv[:, -1] < thr
    mult = np.maximum(np.sum(sv < thr, axis=1), 1)
    return t_star[hit], mult[hit], bi[hit]


def detect_conjugate(phi_samples: list[OperatorSample] | PhiBlocks,
                     threshold: float | None = None) -> ConjugateReport:
    """Flag zeros of the Jacobi solution operator from sigma_min(Phi/t).

    Detection runs on the decoupled blocks of Phi.  ``PhiBlocks`` (the
    sphere backend's form, one 2x2 block per degree) are used as given;
    dense samples are one block (a computed torus Phi has no zero entry).
    Sample times must strictly increase; the leading samples at t <= 0 are
    dropped.  The reported trace is the smallest block sigma_min and the
    determinant sign the product of the block signs.  The default threshold is scale-free:
    ``THRESHOLD_FACTOR`` times the median of the trace.

    Each local minimum of a block's sampled sigma_min is a candidate,
    bracketed by its neighbouring samples.  Around it the block is the
    polynomial through the five samples centred on it (``_local_poly``;
    shifted inward at the ends of the trace, all samples if fewer), so blocks
    polynomial of degree <= 4 are reproduced.  Weyl's inequality with its
    drift over the bracket skips the candidate when sigma_min provably stays
    above the threshold.  The others of a block size are refined together by
    one rule, a grid zoom on the sigma_min of each polynomial over its
    bracket (``_zoom``: each round samples 33 equispaced points per bracket
    and keeps the two grid cells around the smallest value; a sign change of
    the determinant is a zero of sigma_min too).
    A refined time whose sigma_min is below the threshold is reported with
    the number of block singular values below it; within a block refined
    times closer than 1e-9 count once, and across blocks such times merge and
    their multiplicities add.  Singular values and determinants of 2x2 blocks are
    taken in closed form (``_svals``, ``_det``), larger ones through LAPACK.
    """
    if not isinstance(phi_samples, PhiBlocks):  # a dense Phi is one block
        stack = np.array([s.matrix for s in phi_samples])
        phi_samples = PhiBlocks(np.array([s.t for s in phi_samples]),
                                [(np.arange(stack.shape[-1])[None], stack[:, None])])
    times = phi_samples.times
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    times = times[np.searchsorted(times, 0.0, side="right"):]
    if len(times) < 3:
        raise ValueError("need at least 3 samples with t > 0")
    groups, dets = [], np.ones(len(times))
    for _, values in phi_samples.groups:
        phi = values[-len(times):] / times[:, None, None, None]  # the samples at t > 0
        groups.append((phi, _smin(phi)))
        dets = dets * np.prod(np.sign(_det(phi)), axis=1)
    sig = np.min(np.concatenate([g[1] for g in groups], axis=1), axis=1)
    thr = threshold if threshold is not None else THRESHOLD_FACTOR * float(np.median(sig))

    found = []  # (block, t, multiplicity), blocks numbered across the groups
    offset = 0
    for phi, block_sig in groups:
        t, mult, blk = _detect_group(times, phi, block_sig, thr)
        found += zip((offset + blk).tolist(), t.tolist(), mult.tolist())
        offset += block_sig.shape[1]
    dedup = []  # refined times that collapsed together within a block count once
    for blk, t, m in sorted(found):
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
