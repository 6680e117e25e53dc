"""Fast self-contained invariant suite backing the ``verify`` command.

Each check is deterministic and small (N = 32, short runs); the suite is
a smoke screen over the package's core identities, not the full pytest
acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import euler_arnold, group_ops, jacobi, morse, sphere
from .presets import random_stream
from .spectral import (
    ScalarField,
    frac_laplacian,
    gradient_perp,
    grid,
    inner_product_beta,
    poisson_bracket,
)


def run_all():
    """Returns a list of (name, passed, measured) tuples."""
    g = grid(32)
    out = []

    f = random_stream(g, 1, 4)
    a = frac_laplacian(frac_laplacian(f, 0.35), 0.4)
    b = frac_laplacian(f, 0.75)
    err = np.max(np.abs(a.coeff - b.coeff))
    out.append(("frac_laplacian_semigroup", err < 1e-12, err))

    h = random_stream(g, 2, 4)
    br = poisson_bracket(f, h) + poisson_bracket(h, f)
    err = np.max(np.abs(br.coeff))
    out.append(("bracket_antisymmetry", err < 1e-12, err))

    beta = 0.5
    u, v, w = (gradient_perp(random_stream(g, s, 4)) for s in (3, 4, 5))
    lhs = inner_product_beta(group_ops.coadjoint_algebra(u, v, beta).stream,
                             w.stream, beta)
    rhs = inner_product_beta(v.stream,
                             group_ops.ad_bracket(u, w).stream, beta)
    err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    out.append(("coadjoint_duality", err < 1e-8, err))

    psi0 = ScalarField.from_function(g, lambda x, y: -np.cos(y))
    cfg = euler_arnold.SolverConfig(beta=0.5, dt=2e-3, t_final=0.2, n=32,
                                    snapshot_stride=50)
    rec = euler_arnold.simulate(psi0, cfg)
    drift = (rec.thetas[-1] - rec.thetas[0]).norm_l2() / rec.thetas[0].norm_l2()
    out.append(("steady_state_fixed", drift < 1e-10, drift))

    mode = sphere.SphereMode(2, 1.0)
    t_num = sphere.first_sigma_zero(mode, dt=1e-3)
    err = abs(t_num - sphere.conjugate_time(2, 1.0))
    out.append(("sphere_conjugate_time", err < 1e-5, err))

    inp = morse.MorseInput(1.0, 16.0, np.pi, 0.0, morse.Spectrum.torus(8))
    bound = morse.morse_bound(inp)
    out.append(("morse_bound_reference", bound.aleph == 8, float(bound.aleph)))

    times = np.linspace(0.0, 1.2 * sphere.conjugate_time(2, 1.0), 301)
    phi = sphere.sphere_phi_samples([2], 1.0, times)
    report = jacobi.detect_conjugate(phi)
    err = (abs(report.detected[0][0] - sphere.conjugate_time(2, 1.0))
           if report.detected else np.inf)
    out.append(("sphere_detection", err < 1e-4, err))
    return out
