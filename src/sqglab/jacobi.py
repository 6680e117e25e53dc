"""Galerkin-truncated Jacobi-field solver along a simulated geodesic.

A real cos/sin basis of exact fields over a half-lattice of wavevectors,
orthonormalized in the beta metric, turns the operators of the linearized
problem into dense matrices:

    Lambda(t) w = Ad*_gamma Ad_gamma w      (symmetric positive-definite)
    K0 w        = ad*_w u0                  (antisymmetric)

Lambda(t) is assembled as the Gram matrix <Ad_gamma e_i, Ad_gamma e_j>_beta
of the pushed-forward basis.  Every basis stream is a single cos or sin
mode, so the stream e_j o gamma^-1 of Ad_gamma e_j is evaluated directly
at the inverse-map points; no Fourier series is summed off the grid.

The solution operator Phi(t) of the linearized Cauchy problem is evolved
as the first-order system m = Lambda w, m' = -K0 Lambda^-1 m, v' = w, and
split into the absolutely-continuous part Omega = int Lambda^-1 and the
compact remainder Gamma.  Conjugate points are flagged from the smallest
singular value of Phi(t)/t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from .euler_arnold import GeodesicRecord
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
    """Real trigonometric streams over 0 < |k| <= K, beta-orthonormalized."""

    grid: SpectralGrid
    cutoff: int
    beta: float
    modes: list = field(repr=False)       # (kx, ky, "cos"|"sin")
    coeffs: np.ndarray = field(repr=False)  # (d, N, N) stream coefficients

    @property
    def dim(self) -> int:
        return len(self.modes)

    def field_of(self, coords: np.ndarray) -> ScalarField:
        c = np.tensordot(np.asarray(coords, dtype=float), self.coeffs, axes=(0, 0))
        return ScalarField(self.grid, c)

    def vector_of(self, coords: np.ndarray) -> VectorFieldExact:
        return gradient_perp(self.field_of(coords))

    def coords_of(self, psi: ScalarField) -> np.ndarray:
        """Coordinates <e_j, f>_beta of the exact field with stream psi."""
        return self.coords_many(psi.coeff[None])[:, 0]

    def coords_many(self, coeffs: np.ndarray) -> np.ndarray:
        """Coordinates of a (m, N, N) stack of streams, one column per stream."""
        w = _k_power(self.grid, 1.0 - self.beta / 2.0)
        flat = (w * coeffs).reshape(len(coeffs), -1)
        e = self.coeffs.reshape(self.dim, -1)
        return (np.conj(e) @ flat.T).real * TWO_PI**2

    def gram(self) -> np.ndarray:
        return self.coords_many(self.coeffs)

    def compose(self, fm) -> np.ndarray:
        """Coefficients of e_j o fm for the whole basis, re-projected.

        Each stream is scale * cos(k.x) or scale * sin(k.x), sampled in
        closed form at the mapped grid points; the projection keeps the
        dealiased modes and zeroes the mean.
        """
        g = self.grid
        px, py = fm.points()
        vals = np.empty((self.dim, g.n, g.n))
        for j, (kx, ky, kind) in enumerate(self.modes):
            trig = np.cos if kind == "cos" else np.sin
            vals[j] = _mode_scale(kx, ky, self.beta) * trig(kx * px + ky * py)
        c = np.fft.fft2(vals) / g.n**2
        c *= g.dealias_mask
        c[:, 0, 0] = 0.0
        return c


def _k_power(g: SpectralGrid, alpha: float) -> np.ndarray:
    """The multiplier |k|^(2 alpha) of (-Lap)^alpha, zero at k = 0."""
    w = np.zeros_like(g.k2)
    nz = g.k2 > 0
    w[nz] = g.k2[nz] ** alpha
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
    modes = []
    for kx in range(-cutoff, cutoff + 1):
        for ky in range(-cutoff, cutoff + 1):
            if kx == 0 and ky == 0:
                continue
            if kx**2 + ky**2 > cutoff**2:
                continue
            if kx < 0 or (kx == 0 and ky < 0):
                continue  # one representative per +-k pair
            modes.append((kx, ky, "cos"))
            modes.append((kx, ky, "sin"))
    coeffs = np.zeros((len(modes), g.n, g.n), dtype=complex)
    for j, (kx, ky, kind) in enumerate(modes):
        scale = _mode_scale(kx, ky, beta)
        ip, im = (kx % g.n, ky % g.n), ((-kx) % g.n, (-ky) % g.n)
        if kind == "cos":
            coeffs[j][ip] += 0.5 * scale
            coeffs[j][im] += 0.5 * scale
        else:
            coeffs[j][ip] += -0.5j * scale
            coeffs[j][im] += 0.5j * scale
    return GalerkinBasis(g, cutoff, beta, modes, coeffs)


@dataclass(frozen=True)
class OperatorSample:
    """Dense matrix representation of one of the Jacobi-analysis operators."""

    t: float
    matrix: np.ndarray
    role: str  # Lambda | K0 | Phi | Omega | Gamma

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))

    def antisymmetry_error(self) -> float:
        return float(np.max(np.abs(self.matrix + self.matrix.T)))


def k0_matrix(u0: VectorFieldExact, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Matrix of K0 w = ad*_w u0 in the basis coordinates.

    Column j is ad*_{e_j} u0, whose stream is (-Lap)^(b/2-1) of the bracket
    {(-Lap)^(1-b/2) psi_u0, e_j}.  The brackets of the whole basis are formed
    in one pass with the derivatives, 2/3-rule dealiasing and zero mean of
    ``poisson_bracket``.
    """
    check_beta(beta)
    g = basis.grid
    n2 = g.n**2
    s = frac_laplacian(u0.stream, 1.0 - beta / 2.0).coeff * g.dealias_mask
    e = basis.coeffs  # inside the dealias cutoff by construction
    sx = np.fft.ifft2(g.ikx * s).real * n2
    sy = np.fft.ifft2(g.iky * s).real * n2
    ex = np.fft.ifft2(g.ikx * e, axes=(-2, -1)).real * n2
    ey = np.fft.ifft2(g.iky * e, axes=(-2, -1)).real * n2
    br = np.fft.fft2(sy * ex - sx * ey, axes=(-2, -1)) / n2
    br *= g.dealias_mask * _k_power(g, beta / 2.0 - 1.0)
    return OperatorSample(0.0, basis.coords_many(br), "K0")


def lambda_matrix(d: DiffeoSample, beta: float, basis: GalerkinBasis) -> OperatorSample:
    """Lambda(t) as the Gram matrix of the directly evaluated pushed-forward basis.

    Lambda_ij = <Ad_gamma e_i, Ad_gamma e_j>_beta = (2 pi)^2 Re(A^H A) with
    A_kj = |k|^(1-beta/2) c_k(e_j o gamma^-1), so the matrix is symmetric
    positive-semidefinite by construction.
    """
    check_beta(beta)
    a = basis.compose(d.inverse) * np.sqrt(_k_power(basis.grid, 1.0 - beta / 2.0))
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
    record.require_flow_maps("lambda_samples")
    return [lambda_matrix(d, beta, basis) for d in record.diffeos]


class _MatrixInterpolant:
    """Piecewise-linear interpolation of operator samples in time."""

    def __init__(self, times, matrices):
        self.times = np.asarray(times)
        self.matrices = np.asarray(matrices)

    def __call__(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.matrices[0]
        if t >= ts[-1]:
            return self.matrices[-1]
        i = int(np.searchsorted(ts, t) - 1)
        s = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1 - s) * self.matrices[i] + s * self.matrices[i + 1]


def evolve_phi(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
               substeps: int = 10,
               lambdas: list[OperatorSample] | None = None,
               k0: OperatorSample | None = None) -> list[OperatorSample]:
    """Phi(t_i) at the record snapshot times; Phi(0) = 0, Phi'(0) = I."""
    check_beta(beta)
    record.require_flow_maps("evolve_phi")
    if lambdas is None:
        lambdas = lambda_samples(record, basis, beta)
    if k0 is None:
        k0 = k0_matrix(record.u0(), beta, basis)
    times = np.asarray(record.times)
    lam = _MatrixInterpolant(times, [s.matrix for s in lambdas])
    d = basis.dim

    m = np.eye(d)       # m = Lambda w, m(0) = Lambda(0) w0 = w0
    v = np.zeros((d, d))
    out = [OperatorSample(0.0, v.copy(), "Phi")]

    def deriv(t, state):
        m_, v_ = state
        w = np.linalg.solve(lam(t), m_)
        return -k0.matrix @ w, w

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
        out.append(OperatorSample(times[i + 1], v.copy(), "Phi"))
    return out


def omega_gamma_split(record: GeodesicRecord, basis: GalerkinBasis, beta: float,
                      phi_samples: list[OperatorSample],
                      lambdas: list[OperatorSample] | None = None,
                      k0: OperatorSample | None = None):
    """Omega/Gamma quadratures and the decomposition residual.

    Returns (omega_samples, gamma_samples, residual) with
    residual = max_i ||Phi_i - Omega_i - Gamma_i|| / ||Phi_i|| over t_i > 0.
    """
    record.require_flow_maps("omega_gamma_split")
    if lambdas is None:
        lambdas = lambda_samples(record, basis, beta)
    if k0 is None:
        k0 = k0_matrix(record.u0(), beta, basis)
    times = np.asarray(record.times)
    if len(phi_samples) != len(times):
        raise ValueError("phi samples do not match the record sampling")
    lam_inv = np.array([lambda_inverse(s) for s in lambdas])
    phi = np.array([s.matrix for s in phi_samples])
    omega = cumulative_simpson(lam_inv, x=times, axis=0, initial=0.0)
    integrand = lam_inv @ k0.matrix @ phi
    gamma = -cumulative_simpson(integrand, x=times, axis=0, initial=0.0)
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
        lines = ["t,sigma_min,det_sign"]
        for t, s, d in zip(self.times, self.sigma_min, self.det_sign):
            lines.append(f"{t:.17g},{s:.17g},{d:.0f}")
        lines.append("t_conj,multiplicity")
        for t, m in self.detected:
            lines.append(f"{t:.17g},{m}")
        return "\n".join(lines) + "\n"


def detect_conjugate(phi_samples: list[OperatorSample],
                     threshold: float | None = None,
                     threshold_factor: float = 1e-3) -> ConjugateReport:
    """Flag zeros of the Jacobi solution operator from sigma_min(Phi/t).

    Local minima of the trace falling below the threshold are refined by
    bisection on a determinant sign change when one is present; otherwise
    the location of the minimum is reported.  The default threshold is
    scale-free: threshold_factor times the median of the trace.
    """
    pts = [s for s in phi_samples if s.t > 0]
    if len(pts) < 3:
        raise ValueError("need at least 3 samples with t > 0")
    times = np.array([s.t for s in pts])
    mats = np.array([s.matrix for s in pts]) / times[:, None, None]
    sig = np.linalg.svd(mats, compute_uv=False)[:, -1]
    dets = np.sign(np.linalg.det(mats))
    thr = threshold if threshold is not None else threshold_factor * float(np.median(sig))

    # An entry that is zero in every sample has a zero spline, so only the
    # support is fitted (2 entries per row of the block-diagonal sphere Phi,
    # every entry of a dense one).  Spline columns are solved independently,
    # so the values are those of the full fit.
    support = np.any(mats != 0, axis=0)
    spline = CubicSpline(times, mats[:, support], axis=0)

    def phi_at(t):
        m = np.zeros(mats.shape[1:])
        m[support] = spline(t)
        return m

    def sigma_at(t):
        return float(np.linalg.svd(phi_at(t), compute_uv=False)[-1])

    def det_at(t):
        return float(np.linalg.det(phi_at(t)))

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
        mult = int(np.sum(np.linalg.svd(phi_at(t_star), compute_uv=False) < thr))
        detected.append((float(t_star), max(mult, 1)))
    # deduplicate refined times that collapsed together
    dedup = []
    for t, m in sorted(detected):
        if dedup and abs(t - dedup[-1][0]) < 1e-9:
            continue
        dedup.append((t, m))
    return ConjugateReport(times, sig, dets, dedup, thr)
