"""Adjoint/coadjoint actions and the Lambda operator family."""

import numpy as np
import pytest

from sqglab.flow import FlowMap, NumericalAbort, invert, jacobian
from sqglab.group_ops import (
    DiffeoSample,
    ad_bracket,
    adjoint,
    coadjoint_algebra,
    coadjoint_group,
    compose_stream,
    lambda_apply,
    lambda_inverse_apply,
)
from sqglab.presets import random_stream
from sqglab.spectral import (
    ScalarField,
    VectorFieldExact,
    frac_laplacian,
    gradient_perp,
    grid,
    inner_product_beta,
    interpolate,
    norm_beta,
    poisson_bracket,
)

BETAS = (0.0, 0.5, 1.0)


def _coadjoint_group_l2route(eta, u, beta):
    """Ad*_eta via the L2 adjoint: (-Lap)^(b/2) Dgamma^T R_gamma (-Lap)^(-b/2).

    Reference route; the pointwise Jacobian transpose produces a general
    vector field whose exact part is recovered by inverting the curl.
    """
    g = u.grid
    v = VectorFieldExact(frac_laplacian(u.stream, -beta / 2.0))
    vx, vy = v.component_fields()
    px, py = eta.forward.points()
    pts = np.column_stack([px.ravel(), py.ravel()])
    wx = interpolate(vx, pts).reshape(px.shape)
    wy = interpolate(vy, pts).reshape(px.shape)
    jac = jacobian(eta.forward)
    # D gamma^T applied pointwise
    rx = jac[0, 0] * wx + jac[1, 0] * wy
    ry = jac[0, 1] * wx + jac[1, 1] * wy
    fx = ScalarField.from_values(g, rx, zero_mean=False)
    fy = ScalarField.from_values(g, ry, zero_mean=False)
    # exact part: curl(grad_perp psi) = Lap psi, so psi = -(-Lap)^-1 curl
    curl = ScalarField(g, g.ikx * fy.coeff - g.iky * fx.coeff).dealiased()
    psi = -1.0 * frac_laplacian(curl, -1.0)
    return gradient_perp(frac_laplacian(psi, beta / 2.0))


def _lambda_composed(d, v, beta):
    """Reference Lambda(t) v as the composition Ad*_gamma (Ad_gamma v) of the two actions."""
    return coadjoint_group(d, adjoint(d, v), beta)


@pytest.fixture(scope="module")
def diffeo():
    """A genuinely curved diffeomorphism from a short geodesic run."""
    from sqglab.euler_arnold import SolverConfig, simulate
    from sqglab.presets import initial_stream

    g = grid(64)
    psi0 = initial_stream("shear", g)
    cfg = SolverConfig(beta=0.0, dt=2e-3, t_final=0.3, n=64, snapshot_stride=150)
    rec = simulate(psi0, cfg)
    return rec.diffeos[-1]


def test_identity_diffeo_acts_trivially():
    g = grid(32)
    d = DiffeoSample.identity(g)
    v = gradient_perp(random_stream(g, 1, 4))
    out = adjoint(d, v)
    assert np.max(np.abs(out.stream.coeff - v.stream.coeff)) < 1e-12


def test_ad_bracket_stream_is_poisson_bracket():
    g = grid(32)
    u = gradient_perp(random_stream(g, 2, 4))
    v = gradient_perp(random_stream(g, 3, 4))
    got = ad_bracket(u, v).stream
    want = poisson_bracket(u.stream, v.stream)
    assert np.max(np.abs(got.coeff - want.coeff)) < 1e-13


@pytest.mark.parametrize("beta", BETAS)
def test_coadjoint_algebra_duality(beta):
    g = grid(64)
    rng = np.random.default_rng(17)
    for _ in range(5):
        seeds = rng.integers(0, 10**6, size=3)
        u, v, w = (gradient_perp(random_stream(g, int(s), 5)) for s in seeds)
        lhs = inner_product_beta(coadjoint_algebra(u, v, beta).stream,
                                 w.stream, beta)
        rhs = inner_product_beta(v.stream, ad_bracket(u, w).stream, beta)
        assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("beta", BETAS)
def test_coadjoint_group_duality(beta, diffeo):
    g = grid(64)
    rng = np.random.default_rng(29)
    for _ in range(3):
        seeds = rng.integers(0, 10**6, size=2)
        u, v = (gradient_perp(random_stream(g, int(s), 5)) for s in seeds)
        lhs = inner_product_beta(coadjoint_group(diffeo, u, beta).stream,
                                 v.stream, beta)
        rhs = inner_product_beta(u.stream, adjoint(diffeo, v).stream, beta)
        assert abs(lhs - rhs) < 1e-6 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("beta", BETAS)
def test_coadjoint_group_two_routes_agree(beta, diffeo):
    g = grid(64)
    u = gradient_perp(random_stream(g, 31, 5))
    a = coadjoint_group(diffeo, u, beta)
    b = _coadjoint_group_l2route(diffeo, u, beta)
    rel = (np.max(np.abs(a.stream.coeff - b.stream.coeff))
           / np.max(np.abs(a.stream.coeff)))
    assert rel < 1e-6


def test_compose_stream_identity_and_mean():
    g = grid(32)
    from sqglab.flow import FlowMap

    psi = random_stream(g, 5, 4)
    out = compose_stream(psi, FlowMap.identity(g))
    assert np.max(np.abs(out.coeff - psi.dealiased().coeff)) < 1e-12
    assert abs(out.mean()) < 1e-14


@pytest.mark.parametrize("beta", BETAS)
def test_lambda_fused_matches_composed(beta, diffeo):
    g = grid(64)
    v = gradient_perp(random_stream(g, 37, 5))
    a = lambda_apply(diffeo, v, beta)
    b = _lambda_composed(diffeo, v, beta)
    rel = (np.max(np.abs(a.stream.coeff - b.stream.coeff))
           / np.max(np.abs(a.stream.coeff)))
    assert rel < 1e-8


@pytest.mark.parametrize("beta", BETAS)
def test_lambda_positive_and_invertible(beta, diffeo):
    g = grid(64)
    v = gradient_perp(random_stream(g, 41, 4))
    lv = lambda_apply(diffeo, v, beta)
    quad = inner_product_beta(v.stream, lv.stream, beta)
    assert quad > 0.1 * norm_beta(v.stream, beta) ** 2
    back = lambda_inverse_apply(diffeo, lv, beta)
    rel = norm_beta(back.stream - v.stream, beta) / norm_beta(v.stream, beta)
    # composition/truncation error dominates the roundtrip at K <= 4 data
    assert rel < 1e-4


def test_lambda_at_identity_is_identity():
    g = grid(32)
    d = DiffeoSample.identity(g)
    v = gradient_perp(random_stream(g, 43, 4))
    out = lambda_apply(d, v, 0.5)
    assert np.max(np.abs(out.stream.coeff - v.stream.coeff)) < 1e-12


def test_field_operators_refuse_an_unconverged_inverse():
    # x + 1.5 sin x folds back where 1 + 1.5 cos x < 0: Newton leaves a large residual
    g = grid(32)
    fwd = FlowMap(g, 1.5 * np.sin(g.x), np.zeros((g.n, g.n)))
    inv, residual = invert(fwd, FlowMap.identity(g))
    assert residual > 1e-3
    d = DiffeoSample(fwd, inv, 1.0, residual)
    v = gradient_perp(random_stream(g, 7, 4))
    match = rf"t = 1 \(N = 32\) has residual {residual:.3e}"
    with pytest.raises(NumericalAbort, match=match):
        adjoint(d, v)
    with pytest.raises(NumericalAbort, match=match):
        lambda_apply(d, v, 0.5)
    with pytest.raises(NumericalAbort, match=match):
        lambda_inverse_apply(d, v, 0.5)
