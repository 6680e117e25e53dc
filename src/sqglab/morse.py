"""Conjugate-point counting machinery: spectra, thresholds and the bound.

The counts are closed-form counts of the integer spectra (torus lattice |k|^2,
sphere n(n+1)), with no stored eigenvalues; the Weyl asymptotic is reported
alongside for comparison only.  The two run-dependent constants are

    delta = inf_t ||Ad_{gamma(t)}^-1||_{L2}^-2      (beta-independent)
    C     = sharpest constant with ||K0 v||_{-b/2}^2 <= C ||psi_v||_{b/2}^2

delta is read from the exact norm sup_x ||D gamma(t, x)||_2, its sup taken
over the grid points, and C on the Galerkin subspace of the Jacobi basis.
Pairs (k, n) whose Laplacian eigenvalue falls below the threshold

    lambda_n < (C T^2 / (4 delta^2 k^2 pi^2))^(1 / (1 - beta))

are counted with multiplicity, giving the upper bound aleph_beta on the
number of conjugate points in [0, T].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .euler_arnold import GeodesicRecord
from .flow import jacobian
from .jacobi import GalerkinBasis, k0_matrix
from .spectral import TWO_PI, VectorFieldExact


class CoverageError(ValueError):
    """Requested eigenvalue range lies beyond the spectrum's cutoff."""


_ROW_CHUNK = 1 << 16  # torus lattice rows per counting pass: bounded memory at any lambda


@dataclass(frozen=True)
class Spectrum:
    """Integer Laplacian spectrum of a reference surface, counted in closed form."""

    source: str
    coverage: float           # counts are exact for lambda <= coverage
    area: float

    @classmethod
    def torus(cls, k_max: int):
        """Lattice eigenvalues |k|^2, k in Z^2 \\ {0}, up to k_max^2 < 2^52."""
        if not 1 <= k_max < 2**26:
            raise ValueError(f"torus spectrum cutoff must be >= 1 and < 2^26, got {k_max}")
        return cls("torus", float(k_max**2), float(TWO_PI**2))

    @classmethod
    def sphere(cls, n_max: int):
        """n(n+1) with multiplicity 2n+1 on the unit sphere."""
        if n_max < 1:
            raise ValueError(f"sphere spectrum cutoff must be >= 1, got {n_max}")
        return cls("sphere", float(n_max * (n_max + 1)), float(4.0 * np.pi))


def _count_at_most(spectrum: Spectrum, top: int) -> int:
    """#{n : lambda_n <= top} with multiplicity, for an integer top.

    Sphere: M(M + 2) = sum_{n <= M} (2n + 1), M(M + 1) <= top < (M + 1)(M + 2).
    Torus: 2 floor(sqrt(top - kx^2)) + 1 points per row kx, exact in float64
    below 2^52, rows symmetric in kx, k = 0 left out, chunk sums as Python ints.
    """
    if top < 1:
        return 0
    if spectrum.source == "sphere":
        m = (math.isqrt(4 * top + 1) - 1) // 2
        return m * (m + 2)
    r = math.isqrt(top)
    total = 2 * r  # row kx = 0 without k = 0
    for lo in range(1, r + 1, _ROW_CHUNK):
        kx = np.arange(lo, min(lo + _ROW_CHUNK, r + 1), dtype=np.int64)
        total += int(np.sum(4 * np.sqrt(top - kx * kx).astype(np.int64) + 2))
    return total


def _check_coverage(spectrum: Spectrum, lam: float, what: str):
    if lam > spectrum.coverage:
        raise CoverageError(f"{what} {lam:.6g} exceeds spectrum coverage "
                            f"{spectrum.coverage:.6g}; rebuild with a larger cutoff")


def weyl_count(spectrum: Spectrum, lam: float) -> int:
    """Exact N(lambda) = #{n : lambda_n <= lambda} with multiplicity."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    _check_coverage(spectrum, lam, "lambda =")
    return _count_at_most(spectrum, math.floor(lam))


def weyl_asymptotic(spectrum: Spectrum, lam: float) -> float:
    """The asymptotic device N(lambda) ~ (area / 2 pi) lambda."""
    return spectrum.area / (2.0 * np.pi) * lam


# ---------------------------------------------------------------------------
# run-dependent constants

def delta_inf(record: GeodesicRecord) -> float:
    """inf over snapshots of ||Ad_{gamma(t)}^-1||_{L2}^-2, from D gamma on the grid.

    Ad_{gamma^-1} v = grad_perp(psi_v o gamma) = (D gamma)^-1 v o gamma, and
    gamma preserves area (the singular values of D gamma are s and 1/s), so
    the L2 operator norm is sup_x ||D gamma(x)||_2.  That norm is the beta = 0
    (L2 velocity) one regardless of the geodesic's beta, matching the
    constant's beta-independence.  The sup is taken over the grid points
    only, so it can only undershoot and delta can only come out too large
    (on the random:1:4 record, by 0.11% of the stretch at t = 0.2 against a
    4x zero-padded Jacobian).  NumericalAbort where det D gamma <= 0 on the
    grid (``DiffeoSample.check_unfolded``); no gamma^-1 is built.
    """
    best = np.inf
    for d in record.diffeos:
        d.check_unfolded()
        j = np.moveaxis(jacobian(d.forward), (0, 1), (-2, -1))
        best = min(best, float(np.max(np.linalg.norm(j, 2, axis=(-2, -1)))) ** -2)
    return best


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
        if not (0 < self.delta < math.inf and 0 <= self.c < math.inf
                and 0 < self.t_horizon < math.inf):  # NaN fails every comparison
            raise ValueError("delta, T must be positive and C nonnegative, all finite")


@dataclass(frozen=True)
class MorseBound:
    aleph: int
    per_k: list          # (k, threshold, count)
    k_max: int
    aleph_weyl: float


def threshold(inp: MorseInput, k: int) -> float:
    """The k-threshold; +inf where a power overflows or delta^2 underflows to 0.

    No spectrum covers +inf, so ``morse_bound`` refuses it with a
    ``CoverageError`` instead of a traceback.
    """
    try:
        base = inp.c * inp.t_horizon**2 / (4.0 * inp.delta**2 * k**2 * np.pi**2)
        return base ** (1.0 / (1.0 - inp.beta))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def morse_bound(inp: MorseInput) -> MorseBound:
    """aleph_beta = #{(k, n) : lambda_n below the k-threshold}."""
    per_k, total, weyl_total = [], 0, 0.0
    for k in itertools.count(1):
        th = threshold(inp, k)
        _check_coverage(inp.spectrum, th, "threshold")
        # the eigenvalues are integers, so lambda < th means lambda <= ceil(th) - 1
        cnt = _count_at_most(inp.spectrum, math.ceil(th) - 1)
        if cnt == 0:
            return MorseBound(total, per_k, len(per_k), weyl_total)
        per_k.append((k, th, cnt))
        total += cnt
        weyl_total += weyl_asymptotic(inp.spectrum, th)


BOUND_HEADER = "beta,T,delta,C,k_max,aleph_exact,aleph_weyl"


def bound_csv_rows(entries) -> str:
    lines = [BOUND_HEADER]
    for (beta, t, delta, c, b) in entries:
        lines.append(f"{beta:.17g},{t:.17g},{delta:.17g},{c:.17g},"
                     f"{b.k_max},{b.aleph},{b.aleph_weyl:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Morse index

def _index_matrix(k0: np.ndarray, t_horizon: float, n_sines: int) -> np.ndarray:
    """Index form I(v, v) = int_0^T v'.v' + (K0 v).v' dt (Lambda = I) as a matrix.

    v = sum_j a_j sin(j pi t / T), j = 1..J, a = (a_1, ..., a_J) stacked.  The
    kinetic block is diagonal, (j pi / T)^2 T / 2; the rotation block pairs a_j
    with K0 a_l through (j pi / T) S_lj, S_lj = int_0^T sin(l pi t / T)
    cos(j pi t / T) dt = (T / pi) l (1 - (-1)^(l + j)) / (l^2 - j^2) (0 at l = j).
    """
    j = np.arange(1, n_sines + 1)
    freq = j * np.pi / t_horizon
    l_, j_ = np.meshgrid(j, j)  # S_lj at row j, column l; the numerator vanishes at l = j
    s = (t_horizon / np.pi) * l_ * (1.0 - (-1.0) ** (l_ + j_)) \
        / np.where(l_ == j_, 1, l_**2 - j_**2)
    rot = np.kron(freq[:, None] * s, k0)
    kin = np.kron(np.diag(freq**2 * t_horizon / 2.0), np.eye(k0.shape[0]))
    return kin + 0.5 * (rot + rot.T)


def morse_index(k0: np.ndarray, t_horizon: float) -> int:
    """Number of negative eigenvalues of the index form on [0, T], Lambda = I.

    By the Morse index theorem (Milnor, Morse Theory, 1963, section 15) this is
    the number of conjugate points in (0, T) with multiplicity, along a geodesic
    whose adjoint is the identity (steady isometric case or u0 = 0).  Past the
    frequency ||K0||_2 the form is positive; J = 2 ceil(T ||K0||_2 / pi) + 2 sines
    reach twice that frequency, and doubling J changes no tested count.
    """
    n_sines = 2 * math.ceil(t_horizon * np.linalg.norm(k0, 2) / np.pi) + 2
    return int(np.sum(np.linalg.eigvalsh(_index_matrix(k0, t_horizon, n_sines)) < 0.0))


def sphere_mode_k0(mode) -> np.ndarray:
    """K0 block of a sphere mode in its real Jacobi-pair coordinates."""
    w = mode.omega
    return np.array([[0.0, -w], [w, 0.0]])
