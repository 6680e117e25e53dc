"""Simulate the transport equation on the torus and check its invariants.

A geodesic of the beta metric is integrated from a random low-mode stream
function.  Along the way the solver advances the forward particle map and
builds its inverse at each snapshot by Newton inversion; the diagnostics
table reports energy, the L2 norm
of theta (a Casimir), the volume distortion of the flow map, and the
transport residual ||theta(t) o gamma(t) - theta_0|| / ||theta_0|| that
expresses the coadjoint conservation law.
"""

from sqglab import euler_arnold as ea
from sqglab.flow import inverse_consistency
from sqglab.presets import initial_stream
from sqglab.spectral import grid

g = grid(64)
psi0 = initial_stream("random:3:4", g)
beta = 1.0

cfg = ea.SolverConfig(beta=beta, dt=2e-3, t_final=0.5, n=64, snapshot_stride=50)
record = ea.simulate(psi0, cfg)

print(f"beta = {beta}, N = 64, dt = {cfg.dt}, {len(record.times)} snapshots")
print(f"{'t':>6} {'energy':>12} {'theta_L2':>12} {'det_err':>10} {'transport':>10}")
for r in record.diagnostics_rows:
    print(f"{r['t']:6.2f} {r['energy']:12.9f} {r['theta_l2']:12.9f} "
          f"{r['det_jac_err']:10.2e} {r['transport_residual']:10.2e}")

d = record.diffeos[-1]
print(f"\nforward/inverse map consistency at t = {d.t}: "
      f"{inverse_consistency(d.forward, d.inverse):.2e}")

e0 = record.diagnostics_rows[0]["energy"]
drift = max(abs(r["energy"] - e0) / e0 for r in record.diagnostics_rows)
print(f"relative energy drift over the run: {drift:.2e}")
