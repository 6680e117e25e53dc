"""Counting bound on conjugate points and its blow-up toward beta = 1.

Given the two run constants delta (worst inverse-adjoint norm) and C (the
sharpest rotation-term inequality constant), every conjugate point in [0, T]
is matched to a pair (k, n) with Laplacian eigenvalue below the threshold

    lambda_n < (C T^2 / (4 delta^2 k^2 pi^2))^(1 / (1 - beta)),

so the count aleph_beta is a finite sum of exact eigenvalue counts.  The
exponent 1/(1 - beta) makes the bound diverge as beta -> 1, consistent with
the clustering of sphere conjugate times at criticality.  On the sphere the
Morse index of the second variation, a sine-basis eigenvalue count, checks
the detected conjugate points independently of the sampling.
"""

import numpy as np
from scipy.linalg import block_diag

from sqglab import jacobi, morse, sphere

sp = morse.Spectrum.torus(256)
print("torus spectrum, (delta, C, T) = (1, 16, pi)")
print(f"{'beta':>6} {'k_max':>6} {'aleph':>8} {'weyl device':>12}")
for beta in (0.0, 0.25, 0.5, 0.75):
    b = morse.morse_bound(morse.MorseInput(1.0, 16.0, np.pi, beta, sp))
    print(f"{beta:6.2f} {b.k_max:6d} {b.aleph:8d} {b.aleph_weyl:12.1f}")

print("\nsphere rotation, degrees 1..30: Morse index = detected count <= bound")
degrees = range(1, 31)
for beta in (0.0, 0.5, 0.75):
    horizon = 1.1 * sphere.conjugate_time(1, beta)
    times = np.linspace(0.0, horizon, 801)
    report = jacobi.detect_conjugate(sphere.sphere_phi_samples(degrees, beta, times))
    detected = sum(m for _, m in report.detected)
    k0 = block_diag(*[morse.sphere_mode_k0(sphere.SphereMode(n, beta)) for n in degrees])
    index = morse.morse_index(k0, horizon)
    delta, c = morse.sphere_rotation_constants(beta, 50)
    aleph = morse.morse_bound(
        morse.MorseInput(delta, c, horizon, beta, morse.Spectrum.sphere(30))).aleph
    print(f"  beta = {beta:4.2f}: index {index:3d}, detected {detected:3d} <= bound {aleph:3d} "
          f"(delta = {delta}, C = {c:.3f}, T = {horizon:.3f})")
