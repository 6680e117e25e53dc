"""Shared fixtures: one moderately expensive geodesic reused across tests."""

import sys

import numpy as np
import pytest

from sqglab import euler_arnold, flow, jacobi
from sqglab.presets import initial_stream
from sqglab.spectral import TWO_PI, grid

SHEAR_BETA = 0.5


@pytest.fixture(scope="session")
def shear_record():
    """Geodesic from psi0 = -cos y + 0.1 cos x, beta = 0.5, t in [0, 1].

    Steady: psi0 lies in the |k| = 1 eigenspace, so theta is a multiple of
    psi and {psi, theta} = 0; its flow map is still not a shear.
    """
    g = grid(64)
    psi0 = initial_stream("shear", g)
    cfg = euler_arnold.SolverConfig(beta=SHEAR_BETA, dt=2e-3, t_final=1.0, n=64,
                                    snapshot_stride=25)
    return euler_arnold.simulate(psi0, cfg)


@pytest.fixture(scope="session")
def shear_basis(shear_record):
    return jacobi.make_basis(grid(64), 6, SHEAR_BETA)


@pytest.fixture(scope="session")
def shear_lambdas(shear_record, shear_basis):
    return jacobi.lambda_samples(shear_record, shear_basis, SHEAR_BETA)


@pytest.fixture(scope="session")
def shear_phi(shear_record, shear_basis, shear_lambdas):
    return jacobi.evolve_phi(shear_record, shear_basis, SHEAR_BETA,
                             lambdas=shear_lambdas)


def _densify(blocks):
    """The one-block ``jacobi.PhiBlocks`` with the entries of blocks and zeros elsewhere."""
    nt, nb, s, _ = blocks.values.shape
    stack = np.zeros((nt, nb * s, nb * s))
    for j in range(nb):  # block j on the indices j s ... (j + 1) s - 1
        stack[:, j * s:(j + 1) * s, j * s:(j + 1) * s] = blocks.values[:, j]
    return dense_phi(blocks.times, stack)


def dense_phi(times, matrices):
    """Dense Phi samples as the single block of a ``jacobi.PhiBlocks``."""
    return jacobi.PhiBlocks(np.asarray(times, dtype=float), np.asarray(matrices)[:, None])


def coords_many(basis, coeffs):
    """Coordinates in ``basis`` of a (m, N, N) stack of real streams, one column per stream.

    The pairing of e_j with a real stream f reads f only at +-k_j, where
    f_-k = conj(f_k): (2 pi)^2 |k|^(2-beta) s Re f_k for the cos stream
    and minus the same times Im f_k for the sin stream.
    """
    g = basis.grid
    kx, ky = basis.k[:, 0] % g.n, basis.k[:, 1] % g.n
    w = g.k_power(1.0 - basis.beta / 2.0)[kx, ky] * basis.scale * TWO_PI**2
    f = w * coeffs[:, kx, ky]  # (m, d/2)
    return np.stack([f.real, -f.imag], axis=-1).reshape(len(coeffs), basis.dim).T


def coords_of(basis, psi):
    """Coordinates <e_j, f>_beta in ``basis`` of the exact field with stream psi."""
    return coords_many(basis, psi.coeff[None])[:, 0]


@pytest.fixture
def densify():
    return _densify


@pytest.fixture
def inversions(monkeypatch):
    """The forward maps passed to ``flow.invert``, one entry per call, at every lookup site."""
    calls, invert = [], flow.invert

    def counted(fwd, *args):
        calls.append(fwd)
        return invert(fwd, *args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("sqglab") and getattr(mod, "invert", None) is invert:
            monkeypatch.setattr(mod, "invert", counted)
    return calls


@pytest.fixture
def segment_eighs(monkeypatch):
    """The (t_0, t_1) of each ``jacobi._segment_eigh`` call, one entry per call."""
    calls, eigh = [], jacobi._segment_eigh

    def counted(t0, lam0, t1, lam1):
        calls.append((t0, t1))
        return eigh(t0, lam0, t1, lam1)

    monkeypatch.setattr(jacobi, "_segment_eigh", counted)
    return calls
