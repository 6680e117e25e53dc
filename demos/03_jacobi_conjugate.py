"""Jacobi fields along a geodesic and conjugate-point detection.

The linearized geodesic equation is solved as a matrix ODE for the solution
operator Phi(t) on a Galerkin subspace of exact velocity fields.  Two things
are demonstrated:

1. the decomposition Phi = Omega + Gamma, where Omega (the integral of
   Lambda^{-1}, exact on the piecewise-linear Lambda that Phi is evolved
   on) is symmetric positive definite by construction and Gamma, a
   Simpson quadrature, collects the rotation part; the residual measures
   that quadrature plus the RK4 error of Phi;
2. conjugate-point detection from the smallest singular value of Phi(t)/t,
   run on the closed-form sphere backend where the answer is known exactly.
"""

import numpy as np

from sqglab import euler_arnold as ea, jacobi, sphere
from sqglab.presets import initial_stream
from sqglab.spectral import grid

# --- part 1: decomposition on a genuinely curved torus geodesic -----------
g = grid(64)
beta = 0.5
cfg = ea.SolverConfig(beta=beta, dt=2e-3, t_final=0.5, n=64, snapshot_stride=25)
record = ea.simulate(initial_stream("shear", g), cfg)

basis = jacobi.make_basis(g, 4, beta)
lams = jacobi.lambda_samples(record, basis, beta)
phi = jacobi.evolve_phi(record, basis, beta, lambdas=lams)
omega, gamma, resid = jacobi.omega_gamma_split(record, basis, beta, phi,
                                               lambdas=lams)

print(f"Galerkin dimension {basis.dim}, {len(record.times)} snapshots")
print(f"decomposition residual max ||Phi - Omega - Gamma|| / ||Phi||: {resid:.2e}")
eigs = np.linalg.eigvalsh(omega[-1].matrix)
print(f"Omega(t={record.times[-1]}) eigenvalue range: "
      f"[{eigs.min():.4f}, {eigs.max():.4f}]\n")

# --- part 2: conjugate points where the answer is exact -------------------
beta_s = 1.0
horizon = 1.15 * sphere.conjugate_time(1, beta_s)
times = np.linspace(0.0, horizon, 801)
samples = sphere.sphere_phi_samples(range(1, 9), beta_s, times)
report = jacobi.detect_conjugate(samples)

print(f"sphere backend, beta = {beta_s}, horizon {horizon:.4f}")
print("detected conjugate times (multiplicity) vs closed form:")
expected = sorted(sphere.conjugate_time(n, beta_s) for n in range(1, 9))
for (t_det, mult), t_ref in zip(report.detected, expected):
    print(f"  {t_det:.6f} (x{mult})   closed form {t_ref:.6f}   "
          f"err {abs(t_det - t_ref):.1e}")
