"""Closed-form sphere-rotation backend.

The steady rotation of the unit sphere (stream -cos(colatitude), a degree-1
eigenfunction) decouples the linearized problem harmonic by harmonic: for a
spherical harmonic of degree n with azimuthal action i n, the mode amplitude
is a pure phase

    xi(t) = exp(-i omega_n t),     omega_n = n (2 / (n(n+1)))^(1 - beta/2),

and the translated Jacobi amplitude

    s(t) = (i/n) (n(n+1)/2)^(1 - beta/2) (xi(t) - 1)

vanishes exactly at T_n(beta) = (2 pi / n) (n(n+1)/2)^(1 - beta/2).  For
beta = 1 these conjugate times accumulate at pi sqrt(2); for beta < 1 they
spread out.  No spherical grid is built: everything is exact per mode, and
Phi(t) is handed to the detection as its 2x2 blocks, one per degree.  The
RK4-integrated amplitudes (``first_sigma_zero``) go through the same
detection, as one such block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler_arnold import whole_steps
from .flow import _rk4
from .jacobi import PhiBlocks, detect_conjugate
from .spectral import check_beta

PI_SQRT2 = float(np.pi * np.sqrt(2.0))


@dataclass(frozen=True)
class SphereMode:
    n: int
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"harmonic degree must be >= 1, got {self.n}")
        check_beta(self.beta)

    @property
    def eigenvalue(self) -> float:
        return float(self.n * (self.n + 1))

    @property
    def omega(self) -> float:
        """Phase speed of the mode amplitude."""
        return self.n * (2.0 / self.eigenvalue) ** (1.0 - self.beta / 2.0)


def _amplitudes(modes, t):
    """Exact (xi, s) of every mode at time(s) t, shaped (len(modes),) + t.shape.

    The one place the closed form lives: the per-degree constants are taken
    once, and the phase and amplitude are evaluated over all degrees and
    times in one pass.
    """
    t = np.asarray(t, dtype=float)
    shape = (len(modes),) + (1,) * t.ndim
    omega = np.array([m.omega for m in modes]).reshape(shape)
    scale = np.array([(1j / m.n) * (m.eigenvalue / 2.0) ** (1.0 - m.beta / 2.0)
                      for m in modes]).reshape(shape)
    xi = np.exp(-1j * omega * t)
    return xi, scale * (xi - 1.0)


def closed_form(t, mode: SphereMode):
    """Exact (xi, sigma_amplitude) at time(s) t."""
    xi, s = _amplitudes([mode], t)
    return xi[0], s[0]


def conjugate_time(n: int, beta: float) -> float:
    """First vanishing time of the mode-n Jacobi amplitude."""
    mode = SphereMode(n, beta)  # validates
    return (2.0 * np.pi / n) * (mode.eigenvalue / 2.0) ** (1.0 - beta / 2.0)


def integrate_mode(mode: SphereMode, dt: float, t_final: float):
    """RK4 integration of xi' = -i omega xi, sigma' = xi; returns samples.

    The system is linear and autonomous, so one RK4 step from (1, 0) gives
    the step map (xi, sigma) -> (p xi, sigma + c xi), and the samples are a
    running product of p and a running sum of c xi.
    """
    if dt <= 0 or t_final < 0:
        raise ValueError("dt must be positive and t_final non-negative")
    nsteps = whole_steps(t_final, dt)
    times = np.linspace(0.0, nsteps * dt, nsteps + 1)
    w = mode.omega
    p, c = _rk4(lambda i, y: (-1j * w * y[0], y[0]), (1.0 + 0.0j, 0.0j), dt)
    xi = np.cumprod(np.concatenate([[1.0 + 0.0j], np.full(nsteps, p)]))
    sigma = np.concatenate([[0.0j], np.cumsum(c * xi[:-1])])
    return times, xi, sigma


def first_sigma_zero(mode: SphereMode, dt: float = 1e-4) -> float:
    """First positive zero of |sigma| from the integrated samples.

    The samples up to 1.25 times the closed-form conjugate time go to
    ``jacobi.detect_conjugate`` as one 2x2 block, laid out as in
    ``sphere_phi_samples``, and its first detected time is returned.
    """
    t_max = 1.25 * conjugate_time(mode.n, mode.beta)
    # t_max only bounds the search: round it up to whole steps
    times, _, sigma = integrate_mode(mode, dt, np.ceil(t_max / dt) * dt)
    detected = detect_conjugate(_phi_blocks(times, sigma[:, None])).detected
    if not detected:
        raise ValueError("no sigma zero found below t_max")
    return float(detected[0][0])


def _phi_blocks(times: np.ndarray, s: np.ndarray) -> PhiBlocks:
    """Phi(t) from the (T, n) mode amplitudes s: one rotation-scaling block per mode.

    The amplitude s_j becomes [[Re s, -Im s], [Im s, Re s]] (real/imaginary
    Jacobi pair) on the indices 2j, 2j + 1.
    """
    blocks = np.empty(s.shape + (2, 2))
    blocks[..., 0, 0] = blocks[..., 1, 1] = s.real
    blocks[..., 0, 1] = -s.imag
    blocks[..., 1, 0] = s.imag
    return PhiBlocks(times, blocks)


def sphere_phi_samples(degrees, beta: float, times) -> PhiBlocks:
    """Phi(t) over the listed harmonic degrees, as its 2x2 blocks.

    Each complex mode amplitude s(t) becomes a real rotation-scaling block
    on the indices of its degree (``_phi_blocks``).  The (T, n, 2, 2) blocks
    come from one evaluation of the amplitudes; no dense (T, 2n, 2n) stack is
    built, and ``jacobi.detect_conjugate`` takes them as they are.
    """
    modes = [SphereMode(n, beta) for n in degrees]
    times = np.asarray(times, dtype=float)
    _, s = _amplitudes(modes, times)
    return _phi_blocks(times, s.T)


SCAN_HEADER = "n,beta,T_n"
SCAN_FOOTER = "# limit pi*sqrt(2) = 4.442882938158366"


def cluster_scan(beta: float, n_max: int):
    """Table of (n, T_n(beta)) with spread statistics.

    Returns (rows, min_gap, dist_to_limit) where min_gap is the smallest
    |T_{n+1} - T_n| and dist_to_limit is |T_{n_max} - pi sqrt(2)|.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    rows = [(n, beta, conjugate_time(n, beta)) for n in range(1, n_max + 1)]
    t_vals = np.array([r[2] for r in rows])
    min_gap = float(np.min(np.abs(np.diff(t_vals))))
    dist = float(abs(t_vals[-1] - PI_SQRT2))
    return rows, min_gap, dist


def cluster_scan_csv(beta: float, n_max: int) -> str:
    rows, _, _ = cluster_scan(beta, n_max)
    lines = [SCAN_HEADER]
    for n, b, tn in rows:
        lines.append(f"{n},{b:.17g},{tn:.17g}")
    lines.append(SCAN_FOOTER)
    return "\n".join(lines) + "\n"
