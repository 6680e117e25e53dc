"""Flow maps: particle advection, Newton inversion against the label-transport
oracle, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from sqglab import euler_arnold as ea
from sqglab import flow
from sqglab.flow import (
    RK4_NODES,
    FlowMap,
    NumericalAbort,
    _rk4,
    advance_back_to_labels,
    advance_forward,
    inverse_consistency,
    invert,
    jacobian,
    jacobian_det_error,
    label_rhs,
    load_flowmap,
    save_flowmap,
    transport_check,
)
from sqglab.presets import initial_stream, random_stream
from sqglab.spectral import (
    ScalarField,
    _spline_coefficients,
    _spline_eval,
    frac_laplacian,
    gradient_perp,
    grid,
    multiply_dealiased,
)


def shear_velocity(i, x, y):
    # steady horizontal shear u = (sin y, 0); exact flow x -> x + t sin y
    return np.sin(y) + 0j


def shear_fields(g):
    """The shear as the grid fields of all four RK4 stages."""
    ux = ScalarField.from_function(g, lambda x, y: np.sin(y))
    return [(ux, ScalarField.zero(g))] * 4


def labels_to_flowmap(labels: tuple[ScalarField, ScalarField]) -> FlowMap:
    a1, a2 = labels
    return FlowMap(a1.grid, a1.values() + 1j * a2.values())


def test_rk4_fourth_order_on_nonautonomous_ode():
    # y' = y cos t, y(0) = 1, exact y(t) = exp(sin t); stage i sits at t + RK4_NODES[i] dt
    def error(nsteps, t_final=2.0):
        dt = t_final / nsteps
        y = (1.0,)
        for j in range(nsteps):
            y = _rk4(lambda i, s: (s[0] * np.cos(j * dt + RK4_NODES[i] * dt),), y, dt)
        return abs(y[0] - np.exp(np.sin(t_final)))

    errors = [error(n) for n in (10, 20, 40)]
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(coarse / fine - 16.0) < 1.0


def test_identity_flowmap():
    g = grid(32)
    fm = FlowMap.identity(g)
    j = jacobian(fm)
    assert np.allclose(j[0, 0], 1.0) and np.allclose(j[1, 1], 1.0)
    assert np.allclose(j[0, 1], 0.0) and np.allclose(j[1, 0], 0.0)
    assert jacobian_det_error(fm) < 1e-14


def test_forward_shear_flow_exact():
    g = grid(32)
    fm = FlowMap.identity(g)
    dt, nsteps = 1e-2, 50
    for _ in range(nsteps):
        fm = advance_forward(fm, shear_velocity, dt)
    t = nsteps * dt
    # y is constant along trajectories, so RK4 integrates exactly
    assert np.max(np.abs(fm.disp.real - t * np.sin(g.y))) < 1e-13
    assert np.max(np.abs(fm.disp.imag)) < 1e-14
    assert jacobian_det_error(fm) < 1e-12


def test_back_to_labels_shear_inverse():
    g = grid(32)
    stage_fields = shear_fields(g)
    labels = (ScalarField.zero(g), ScalarField.zero(g))
    fwd = FlowMap.identity(g)
    dt, nsteps = 1e-2, 50
    for _ in range(nsteps):
        fwd = advance_forward(fwd, shear_velocity, dt)
        labels = advance_back_to_labels(labels, stage_fields, dt)
    t = nsteps * dt
    inv = labels_to_flowmap(labels)
    # gamma^-1(x, y) = (x - t sin y, y)
    assert np.max(np.abs(inv.disp.real + t * np.sin(g.y))) < 1e-10
    assert np.max(np.abs(inv.disp.imag)) < 1e-10
    assert inverse_consistency(fwd, inv) < 1e-9


def test_invert_exact_shear():
    # gamma(x, y) = (x + t sin y, y), so gamma^-1(x, y) = (x - t sin y, y)
    g = grid(32)
    t = 0.7
    fwd = FlowMap(g, t * np.sin(g.y) + 0j)
    inv, residual = invert(fwd)
    assert np.max(np.abs(inv.disp.real + t * np.sin(g.y))) < 1e-12
    assert np.max(np.abs(inv.disp.imag)) < 1e-12
    assert residual < 1e-12


def _random_steps(nsteps):
    """The first theta and the RK4 stage velocity spectra of ``nsteps`` steps of random:1:4."""
    g = grid(32)
    beta, dt = 0.5, 1e-2
    theta = frac_laplacian(initial_stream("random:1:4", g), 1.0 - beta / 2.0)
    stages = []
    for _ in range(nsteps):
        theta, packed = ea._theta_step(theta, beta, dt)
        stages.append([_spline_coefficients(p) for p in packed])
    return g, dt, stages


def test_packed_particle_step_equals_component_step():
    # advance_forward steps d_x + i d_y as one complex array; the same RK4 over
    # the real pair (d_x, d_y) with the same stage velocities gives the same bits
    g, dt, stages = _random_steps(4)
    x0, y0 = g.x, g.y
    fm = FlowMap.identity(g)
    ref = (np.zeros((g.n, g.n)), np.zeros((g.n, g.n)))
    for grids in stages:
        def velocity(i, x, y):
            return _spline_eval((grids[i],), x, y)[0]

        def component_velocity(i, d):
            u = velocity(i, (x0 + d[0]).ravel(), (y0 + d[1]).ravel()).reshape(x0.shape)
            return u.real, u.imag

        fm = advance_forward(fm, velocity, dt)
        ref = _rk4(component_velocity, ref, dt)
    assert np.max(np.abs(ref[0])) > 1e-3
    assert np.array_equal(fm.disp.real, ref[0]) and np.array_equal(fm.disp.imag, ref[1])


def test_invert_derivative_grids_reproduce_jacobian(monkeypatch):
    # one D gamma: the spline grids of d_,x and d_,y that Newton samples give
    # the entries of jacobian at the grid points, where the spline interpolates
    g = grid(64)
    cfg = ea.SolverConfig(beta=0.5, dt=1e-2, t_final=0.2, n=64, snapshot_stride=20)
    fm = ea.simulate(initial_stream("random:1:4", g), cfg).diffeos[-1].forward
    grids = []

    def recording(coeff):
        grids.append(_spline_coefficients(coeff))
        return grids[-1]

    monkeypatch.setattr(flow, "_spline_coefficients", recording)
    invert(fm)
    assert len(grids) == 3
    dx, dy = _spline_eval(grids[1:], g.x, g.y)
    want = jacobian(fm)
    assert np.max(np.abs(want - np.eye(2)[:, :, None, None])) > 1e-2
    got = np.stack([[dx.real + 1.0, dy.real], [dx.imag, dy.imag + 1.0]]).reshape(want.shape)
    assert np.max(np.abs(got - want)) < 1e-12


def _label_oracle(psi0, beta, dt, nsteps, stride):
    """gamma^-1 by label transport on theta's RK4 stages, every ``stride`` steps."""
    g = psi0.grid
    theta = frac_laplacian(psi0, 1.0 - beta / 2.0)
    labels = (ScalarField.zero(g), ScalarField.zero(g))
    out = []
    for step in range(nsteps):
        stages = []

        def f(i, y):
            stages.append(gradient_perp(ea.stream_of(y[0], beta)).component_fields())
            return (ea.rhs(y[0], beta),)

        (theta,) = _rk4(f, (theta,), dt)
        labels = advance_back_to_labels(labels, stages, dt)
        if (step + 1) % stride == 0:
            out.append(labels_to_flowmap(labels))
    return out


def test_invert_beats_label_transport_along_a_geodesic():
    g = grid(64)
    psi0 = initial_stream("random:1:4", g)
    # both errors are spatial: dt = 2e-3 gives the same figures from t = 0.4 on
    cfg = ea.SolverConfig(beta=0.5, dt=1e-2, t_final=1.0, n=64, snapshot_stride=10)
    rec = ea.simulate(psi0, cfg)
    oracle = _label_oracle(psi0, cfg.beta, cfg.dt, 100, cfg.snapshot_stride)
    assert len(oracle) == len(rec.diffeos) - 1
    for d, labels in zip(rec.diffeos[1:], oracle):
        assert d.residual < 1e-12
        newton = inverse_consistency(d.forward, d.inverse)
        if d.t >= 0.4:
            assert newton < inverse_consistency(d.forward, labels), d.t
    assert rec.times[-1] == 1.0 and newton <= 1e-6


def test_label_rhs_matches_two_dealiased_products():
    g = grid(64)
    ux, uy = gradient_perp(random_stream(g, 5, 6)).component_fields()
    rng = np.random.default_rng(6)
    labels = tuple(ScalarField.from_values(g, 0.05 * rng.normal(size=(g.n, g.n)))
                   for _ in range(2))
    got = label_rhs(labels, ux, uy)
    for a, u, r in zip(labels, (ux, uy), got):
        ax, ay = ScalarField(g, g.ikx * a.coeff), ScalarField(g, g.iky * a.coeff)
        want = -(multiply_dealiased(ux, ax) + multiply_dealiased(uy, ay)).coeff - u.coeff
        assert np.max(np.abs(r.coeff - want)) / np.max(np.abs(want)) < 1e-14


def test_transport_check_shear():
    g = grid(32)
    fm = FlowMap.identity(g)
    dt, nsteps = 1e-2, 30
    for _ in range(nsteps):
        fm = advance_forward(fm, shear_velocity, dt)
    t = nsteps * dt
    theta0 = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.sin(y))
    # theta(t) = theta0 o gamma(t)^-1 = cos(x - t sin y) + sin y
    theta_t = ScalarField.from_function(
        g, lambda x, y: np.cos(x - t * np.sin(y)) + np.sin(y))
    assert transport_check(theta_t, fm, theta0) < 1e-10


def test_transport_check_working_memory_is_bounded():
    # a warmed check at N = 64 of a field filling the 2/3 band: the direct
    # Fourier sum works on point chunks, so its phase and product buffers
    # take about 0.5 MB of the peak, not a table over all 4096 points
    g = grid(64)
    fm = advance_forward(FlowMap.identity(g), shear_velocity, 0.1)
    theta_t, theta0 = random_stream(g, 5, g.cutoff), random_stream(g, 6, g.cutoff)
    assert np.count_nonzero(np.any(theta_t.coeff != 0, axis=1)) == 2 * g.cutoff + 1
    transport_check(theta_t, fm, theta0)
    tracemalloc.start()
    try:
        transport_check(theta_t, fm, theta0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_advance_forward_aborts_on_nan():
    g = grid(32)

    def bad(i, x, y):
        return np.full_like(x, np.nan, dtype=complex)

    with pytest.raises(NumericalAbort):
        advance_forward(FlowMap.identity(g), bad, 1e-2)


def test_flowmap_checkpoint_roundtrip(tmp_path):
    g = grid(32)
    fm = FlowMap.identity(g)
    dt = 1e-2
    for _ in range(20):
        fm = advance_forward(fm, shear_velocity, dt)
    p = tmp_path / "gamma.gsqgf"
    save_flowmap(p, fm)
    fm2 = load_flowmap(p)
    assert fm2.grid.n == 32
    assert np.max(np.abs(fm2.disp.real - fm.disp.real)) < 1e-12
    assert np.max(np.abs(fm2.disp.imag - fm.disp.imag)) < 1e-12


@pytest.mark.parametrize("edit, found", [(lambda b: b[:-1], 13 + 32 * 32**2 - 1),
                                         (lambda b: b + b"\x00" * 16, 13 + 32 * 32**2 + 16)],
                         ids=["truncated", "trailing"])
def test_flowmap_checkpoint_wrong_length_rejected(tmp_path, edit, found):
    p = tmp_path / "gamma.gsqgf"
    save_flowmap(p, FlowMap.identity(grid(32)))
    p.write_bytes(edit(p.read_bytes()))
    with pytest.raises(ValueError, match=f"should have {13 + 32 * 32**2} bytes, found {found}"):
        load_flowmap(p)


def test_flowmap_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.gsqgf"
    p.write_bytes(b"WRONG" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_flowmap(p)
