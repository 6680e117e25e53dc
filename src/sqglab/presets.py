"""Named initial conditions for geodesic runs."""

from __future__ import annotations

import numpy as np

from .spectral import ScalarField, SpectralGrid, gradient_perp


def initial_stream(spec: str, g: SpectralGrid) -> ScalarField:
    """Resolve an initial-condition spec to a stream function.

    Supported: "cosy" (steady shear), "shear" (cosy with a 0.1 cos x
    perturbation, non-steady), and "random:SEED:KMAX" (seeded low-mode
    field normalized to unit maximum speed).
    """
    if spec == "cosy":
        return ScalarField.from_function(g, lambda x, y: -np.cos(y))
    if spec == "shear":
        return ScalarField.from_function(g, lambda x, y: -np.cos(y) + 0.1 * np.cos(x))
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad random preset {spec!r}, want random:SEED:KMAX")
        seed, kmax = int(parts[1]), int(parts[2])
        return random_stream(g, seed, kmax)
    raise ValueError(f"unknown initial condition {spec!r}")


def random_stream(g: SpectralGrid, seed: int, kmax: int,
                  max_speed: float = 1.0) -> ScalarField:
    """Random real field supported on 0 < |k| <= kmax, smooth amplitudes."""
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
        psi = psi * (max_speed / speed)
    return psi
