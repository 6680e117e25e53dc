"""Conjugate-point counting machinery: spectra, thresholds and the bound.

The count works entirely with exact truncated spectra (torus lattice or
sphere n(n+1) values); the Weyl asymptotic is reported alongside for
comparison only.  The two run-dependent constants are

    delta = inf_t ||Ad_{gamma(t)}^-1||_{L2}^-2      (beta-independent)
    C     = sharpest constant with ||K0 v||_{-b/2}^2 <= C ||psi_v||_{b/2}^2

on the computational subspace; pairs (k, n) whose Laplacian eigenvalue
falls below the threshold

    lambda_n < (C T^2 / (4 delta^2 k^2 pi^2))^(1 / (1 - beta))

are counted with multiplicity, giving the upper bound aleph_beta on the
number of conjugate points in [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler_arnold import GeodesicRecord
from .jacobi import GalerkinBasis, k0_matrix, make_basis
from .spectral import TWO_PI, VectorFieldExact


class CoverageError(ValueError):
    """Stored spectrum does not reach the requested eigenvalue range."""


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues with multiplicities on a reference surface."""

    source: str
    eigenvalues: np.ndarray   # sorted ascending, strictly positive
    multiplicities: np.ndarray
    coverage: float           # counts are exact for lambda <= coverage
    area: float

    @classmethod
    def torus(cls, k_max: int):
        """Lattice eigenvalues |k|^2, k in Z^2 \\ {0}, complete to k_max^2."""
        if k_max < 1:
            raise ValueError(f"torus spectrum cutoff must be >= 1, got {k_max}")
        r = np.arange(-k_max, k_max + 1)
        k2 = (r[:, None] ** 2 + r[None, :] ** 2).ravel()
        k2 = k2[(k2 > 0) & (k2 <= k_max**2)]
        vals, counts = np.unique(k2, return_counts=True)
        return cls("torus", vals.astype(float), counts, float(k_max**2),
                   float(TWO_PI**2))

    @classmethod
    def sphere(cls, n_max: int):
        """n(n+1) with multiplicity 2n+1 on the unit sphere."""
        if n_max < 1:
            raise ValueError(f"sphere spectrum cutoff must be >= 1, got {n_max}")
        n = np.arange(1, n_max + 1)
        return cls("sphere", (n * (n + 1)).astype(float), 2 * n + 1,
                   float(n_max * (n_max + 1)), float(4.0 * np.pi))


def weyl_count(spectrum: Spectrum, lam: float) -> int:
    """Exact N(lambda) = #{n : lambda_n <= lambda} with multiplicity."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam > spectrum.coverage:
        raise CoverageError(
            f"lambda = {lam:.6g} exceeds spectrum coverage {spectrum.coverage:.6g}; "
            f"rebuild with a larger cutoff"
        )
    return int(np.sum(spectrum.multiplicities[spectrum.eigenvalues <= lam]))


def weyl_asymptotic(spectrum: Spectrum, lam: float) -> float:
    """The asymptotic device N(lambda) ~ (area / 2 pi) lambda."""
    return spectrum.area / (2.0 * np.pi) * lam


def _count_below(spectrum: Spectrum, lam: float) -> int:
    if lam > spectrum.coverage:
        raise CoverageError(
            f"threshold {lam:.6g} exceeds spectrum coverage {spectrum.coverage:.6g}"
        )
    return int(np.sum(spectrum.multiplicities[spectrum.eigenvalues < lam]))


# ---------------------------------------------------------------------------
# run-dependent constants

def ad_inverse_matrix(d, basis: GalerkinBasis) -> np.ndarray:
    """Matrix of Ad_{gamma^-1} v = grad_perp(psi_v o gamma) in basis coords.

    NumericalAbort where gamma is not invertible on the grid
    (``DiffeoSample.check_invertible``), as for ``ad_matrix``.
    """
    d.check_invertible()
    return basis.coords_half(basis.compose(d.forward))


def ad_matrix(d, basis: GalerkinBasis) -> np.ndarray:
    """Matrix of Ad_gamma v = grad_perp(psi_v o gamma^-1) in basis coords."""
    d.check_invertible()
    return basis.coords_half(basis.compose(d.inverse))


def delta_inf(record: GeodesicRecord, cutoff: int = 6) -> float:
    """inf over snapshots of ||Ad_{gamma(t)}^-1||_{L2}^-2.

    Uses the beta = 0 (L2 velocity) inner product regardless of the
    geodesic's beta, matching the constant's beta-independence.
    """
    basis = make_basis(record.psi0.grid, cutoff, beta=0.0)
    best = np.inf
    for d in record.diffeos:
        norm = np.linalg.norm(ad_inverse_matrix(d, basis), 2)
        best = min(best, norm**-2)
    if not best > 0:
        raise RuntimeError("degenerate adjoint norm")
    return float(best)


def c_constant(u0: VectorFieldExact, beta: float, basis: GalerkinBasis) -> float:
    """Sharpest C with ||K0 v||_{-beta/2}^2 <= C ||psi_v||_{beta/2}^2.

    On the truncated space the left side is |K0 x|^2 in the
    beta-orthonormal coordinates and the right side x^T D x with D the Gram
    matrix of the basis streams in the order-beta/2 homogeneous norm.  The
    streams are single, distinct +-k modes, so D is diagonal,
    D_jj = 2 pi^2 |k_j|^beta s_j^2 = |k_j|^(2 beta - 2) for the unit-beta-norm
    amplitude s_j, and C = ||K0 D^(-1/2)||_2^2.
    """
    k = k0_matrix(u0, beta, basis).matrix
    kk = np.repeat(np.sum(basis.k**2, axis=1), 2).astype(float)
    return float(np.linalg.norm(k * kk ** (0.5 - beta / 2.0), 2) ** 2)


def sphere_rotation_constants(beta: float, n_max: int) -> tuple[float, float]:
    """(delta, C) for the steady rotation of the sphere, truncated at n_max.

    The rotation acts by isometries, so every adjoint is an isometry and
    delta = 1 exactly.  C is maximized over modes (n, m), |m| <= n, where
    K0 multiplies by i m 2^(1-beta/2) lambda_n^(beta/2-1).
    """
    n = np.arange(1, n_max + 1)
    lam = n * (n + 1.0)
    c = np.max(n**2 * 2.0 ** (2.0 - beta) / lam)
    return 1.0, float(c)


# ---------------------------------------------------------------------------
# the bound

@dataclass(frozen=True)
class MorseInput:
    delta: float
    c: float
    t_horizon: float
    beta: float
    spectrum: Spectrum

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"the count requires beta in [0, 1), got {self.beta}")
        if self.delta <= 0 or self.c < 0 or self.t_horizon <= 0:
            raise ValueError("delta, T must be positive and C nonnegative")


@dataclass(frozen=True)
class MorseBound:
    aleph: int
    per_k: list          # (k, threshold, count)
    k_max: int
    aleph_weyl: float


def threshold(inp: MorseInput, k: int) -> float:
    base = inp.c * inp.t_horizon**2 / (4.0 * inp.delta**2 * k**2 * np.pi**2)
    return base ** (1.0 / (1.0 - inp.beta))


def morse_bound(inp: MorseInput) -> MorseBound:
    """aleph_beta = #{(k, n) : lambda_n below the k-threshold}."""
    if inp.c == 0.0:
        return MorseBound(0, [], 0, 0.0)
    lam1 = float(inp.spectrum.eigenvalues[0])
    per_k = []
    total = 0
    weyl_total = 0.0
    k = 1
    while True:
        th = threshold(inp, k)
        if th <= lam1:
            break
        cnt = _count_below(inp.spectrum, th)
        if cnt == 0:
            break
        per_k.append((k, th, cnt))
        total += cnt
        weyl_total += weyl_asymptotic(inp.spectrum, th)
        k += 1
    k_max = per_k[-1][0] if per_k else 0
    return MorseBound(total, per_k, k_max, weyl_total)


BOUND_HEADER = "beta,T,delta,C,k_max,aleph_exact,aleph_weyl"


def bound_csv_rows(entries) -> str:
    lines = [BOUND_HEADER]
    for (beta, t, delta, c, b) in entries:
        lines.append(f"{beta:.17g},{t:.17g},{delta:.17g},{c:.17g},"
                     f"{b.k_max},{b.aleph},{b.aleph_weyl:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# index form

def index_form(times, w_coords, k0: np.ndarray) -> float:
    """Quadrature of the index form I(w, w) in beta-orthonormal coordinates.

    I(w, w) = int_0^T w'.w' + (K0 w) . w' dt along a geodesic whose adjoint
    is the identity (steady isometric case or u0 = 0), with the trajectory
    sampled on ``times`` and required to vanish at both endpoints.
    """
    from scipy.integrate import simpson
    from scipy.interpolate import CubicSpline

    times = np.asarray(times, dtype=float)
    w = np.asarray(w_coords, dtype=float)
    if np.linalg.norm(w[0]) > 1e-10 or np.linalg.norm(w[-1]) > 1e-10:
        raise ValueError("trajectory must vanish at the endpoints")
    dw = CubicSpline(times, w, axis=0)(times, 1)
    kin = np.einsum("ti,ti->t", dw, dw)
    rot = np.einsum("ij,tj,ti->t", k0, w, dw)
    return float(simpson(kin + rot, x=times))


def sphere_mode_k0(mode) -> np.ndarray:
    """K0 block of a sphere mode in its real Jacobi-pair coordinates."""
    w = mode.omega
    return np.array([[0.0, -w], [w, 0.0]])


def sphere_negative_direction(mode, t_horizon: float, samples: int = 2001):
    """Endpoint-vanishing trajectory with negative index past T_n.

    z(t) = sin(pi t / T) exp(-i omega t / 2): the sine envelope enforces
    the endpoints and the half-frequency phase twist aligns with the
    Jacobi rotation, giving I = (T/2)(pi^2/T^2 - omega^2/4) < 0 exactly
    when T exceeds the first conjugate time.
    """
    t = np.linspace(0.0, t_horizon, samples)
    z = np.sin(np.pi * t / t_horizon) * np.exp(-0.5j * mode.omega * t)
    return t, np.column_stack([z.real, z.imag])
