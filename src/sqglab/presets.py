"""Named initial conditions for geodesic runs."""

from __future__ import annotations

import numpy as np

from .spectral import ScalarField, SpectralGrid, gradient_perp


def initial_stream(spec: str, g: SpectralGrid) -> ScalarField:
    """Resolve an initial-condition spec to a stream function.

    Supported: "cosy" (steady shear), "shear" (cosy with a 0.1 cos x
    perturbation, also steady: both modes lie in the |k| = 1 eigenspace, so
    theta is a multiple of psi and {psi, theta} = 0), and "random:SEED:KMAX"
    (seeded low-mode field normalized to unit maximum speed).  ValueError
    for any other spec (``check_spec``).
    """
    if spec == "cosy":
        return ScalarField.from_function(g, lambda x, y: -np.cos(y))
    if spec == "shear":
        return ScalarField.from_function(g, lambda x, y: -np.cos(y) + 0.1 * np.cos(x))
    return random_stream(g, *_random_args(spec))


def check_spec(spec: str, n: int):
    """Raise ValueError unless ``initial_stream`` accepts spec on an N = n grid."""
    if spec not in ("cosy", "shear"):
        _check_kmax(_random_args(spec)[1], n)


def _check_kmax(kmax: int, n: int):
    """Raise ValueError unless the modes |k| <= KMAX lie in the 2/3 band of an N = n grid."""
    if kmax > n // 3:
        raise ValueError(f"random preset KMAX = {kmax} exceeds the dealias cutoff "
                         f"N // 3 = {n // 3} (N = {n})")


def _random_args(spec: str) -> tuple[int, int]:
    """(SEED, KMAX) of "random:SEED:KMAX", with SEED >= 0 and KMAX >= 1."""
    kind, *args = spec.split(":")
    if kind != "random":
        raise ValueError(f"unknown initial condition {spec!r}, want cosy, shear "
                         f"or random:SEED:KMAX")
    try:
        seed, kmax = map(int, args)
    except ValueError:
        raise ValueError(f"bad random preset {spec!r}, want random:SEED:KMAX "
                         f"with integers SEED and KMAX") from None
    if seed < 0 or kmax < 1:
        raise ValueError(f"bad random preset {spec!r}: SEED must be >= 0 and KMAX >= 1")
    return seed, kmax


def random_stream(g: SpectralGrid, seed: int, kmax: int) -> ScalarField:
    """Random real field supported on 0 < |k| <= kmax, smooth amplitudes, unit maximum speed.

    ValueError for kmax > N // 3, whose modes the dealiased bracket would not see.
    """
    _check_kmax(kmax, g.n)
    rng = np.random.default_rng(seed)
    c = np.zeros((g.n, g.n), dtype=complex)
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            if kx**2 + ky**2 > kmax**2:
                continue
            amp = (rng.normal() + 1j * rng.normal()) / (kx**2 + ky**2)
            c[kx % g.n, ky % g.n] = amp
            c[(-kx) % g.n, (-ky) % g.n] = np.conj(amp)
    psi = ScalarField(g, c)
    speed = gradient_perp(psi).max_speed()
    if speed > 0:
        psi = psi * (1.0 / speed)
    return psi
