"""The benchmark workloads: inputs from a seed, one repetition, its output check.

Each workload keeps the code path and resolution of the command a user
runs and shortens only the time horizon; see README.md for why each one was
chosen and which layers it stresses.  ``setup`` builds the inputs,
``body`` is the timed repetition, and ``check`` returns a list of problems
(empty when the outputs are correct), using the tolerances the acceptance
suite pins.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from sqglab import cli, euler_arnold, jacobi, morse, sphere
from sqglab.euler_arnold import SolverConfig, simulate
from sqglab.flow import load_flowmap
from sqglab.presets import initial_stream
from sqglab.spectral import frac_laplacian, grid, load_field

# acceptance criterion 04 (conservation run)
ENERGY_DRIFT_TOL = 1e-8
L2_DRIFT_TOL = 1e-8
TRANSPORT_TOL = 1e-3
DET_ERR_TOL = 1e-6
# acceptance criterion 07 (Omega + Gamma decomposition)
RESIDUAL_TOL = 1e-3
# closed-form sphere conjugate times
T_CONJ_TOL = 1e-6
# the CLI recomputes the seeded initial condition; its energy must match ours
SEED_ENERGY_TOL = 1e-12


def _set_args(**kv) -> list[str]:
    out = []
    for k, v in kv.items():
        out += ["--set", f"{k}={v}"]
    return out


def _conjugate_csv(path: Path) -> tuple[list[list[str]], list[tuple[float, int]]]:
    """(sigma_min trace rows, detected (t_conj, multiplicity)) of conjugate.csv."""
    rows = list(csv.reader(path.read_text().splitlines()))
    if rows[0] != ["t", "sigma_min", "det_sign"]:
        raise ValueError(f"bad conjugate.csv header {rows[0]}")
    split = rows.index(["t_conj", "multiplicity"])
    return rows[1:split], [(float(t), int(m)) for t, m in rows[split + 1:]]


class Workload:
    """Input sizes: the defaults below, overridden by keyword (smoke test)."""

    name = ""
    defaults: dict = {}

    def __init__(self, seed: int, **params):
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown {self.name} parameters {sorted(unknown)}")
        self.params = {**self.defaults, **params}
        self.seed = seed

    @property
    def ic(self) -> str:
        """The seeded random initial condition, as the CLI spells it."""
        return f"random:{self.seed}:{self.params['kmax']}"


class Geodesic(Workload):
    """``sqglab simulate`` through ``cli.main`` on seeded random data."""

    name = "geodesic"
    defaults = dict(N=64, dt=1e-3, beta=0.5, t_final=0.05, snapshot_stride=25, kmax=4)

    def setup(self):
        p = self.params
        psi0 = initial_stream(self.ic, grid(p["N"]))
        theta0 = frac_laplacian(psi0, 1.0 - p["beta"] / 2.0)
        self.energy0 = euler_arnold.energy(theta0, p["beta"])

    def body(self, out: Path):
        p = self.params
        return cli.main(["simulate", "--out", str(out)] + _set_args(
            N=p["N"], dt=p["dt"], beta=p["beta"], ic=self.ic, t_final=p["t_final"],
            snapshot_stride=p["snapshot_stride"]))

    def check(self, rc, out: Path) -> list[str]:
        if rc != 0:
            return [f"simulate exited with {rc}"]
        p = self.params
        rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()))
        col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        e, l2 = col["energy"], col["theta_l2"]
        measured = {
            "energy drift": (np.max(np.abs(e - e[0])) / abs(e[0]), ENERGY_DRIFT_TOL),
            "L2 drift": (np.max(np.abs(l2 - l2[0])) / abs(l2[0]), L2_DRIFT_TOL),
            "transport": (np.max(col["transport_residual"]), TRANSPORT_TOL),
            "det err": (np.max(col["det_jac_err"]), DET_ERR_TOL),
            "seeded energy": (abs(e[0] - self.energy0) / self.energy0, SEED_ENERGY_TOL),
        }
        problems = [f"{k} {v:.3e} >= {tol:g}" for k, (v, tol) in measured.items()
                    if not v < tol]
        if abs(col["t"][-1] - p["t_final"]) > 1e-12:
            problems.append(f"last diagnostics row at t = {col['t'][-1]}")
        theta = load_field(out / "theta_final.gsqg")
        fm = load_flowmap(out / "gamma_final.gsqgf")
        if theta.grid.n != p["N"] or not np.all(np.isfinite(theta.coeff)):
            problems.append("theta checkpoint does not reload")
        if fm.grid.n != p["N"] or not fm.is_finite():
            problems.append("flow-map checkpoint does not reload")
        return problems


class Jacobi(Workload):
    """The post-processing of ``sqglab jacobi`` on a record built in set-up."""

    name = "jacobi"
    defaults = dict(N=64, dt=2e-3, beta=0.5, t_final=0.2, snapshot_stride=25, kmax=4, K=6)

    def setup(self):
        p = self.params
        self.record = None  # release the previous record before building anew
        solver = SolverConfig(beta=p["beta"], dt=p["dt"], t_final=p["t_final"], n=p["N"],
                              snapshot_stride=p["snapshot_stride"])
        self.record = simulate(initial_stream(self.ic, grid(p["N"])), solver)

    def body(self, out: Path):
        p, rec = self.params, self.record
        beta = p["beta"]
        basis = jacobi.make_basis(grid(p["N"]), p["K"], beta)
        lams = jacobi.lambda_samples(rec, basis, beta)
        phi = jacobi.evolve_phi(rec, basis, beta, lambdas=lams)
        omega, _, resid = jacobi.omega_gamma_split(rec, basis, beta, phi, lambdas=lams)
        report = jacobi.detect_conjugate(phi)
        (out / "conjugate.csv").write_text(report.csv())
        return omega, resid

    def check(self, result, out: Path) -> list[str]:
        omega, resid = result
        problems = []
        if not resid < RESIDUAL_TOL:
            problems.append(f"Omega + Gamma residual {resid:.3e} >= {RESIDUAL_TOL:g}")
        min_eig = min(np.linalg.eigvalsh(0.5 * (s.matrix + s.matrix.T)).min()
                      for s in omega[1:])
        if not min_eig > 0.0:
            problems.append(f"sym(Omega_i) not positive-definite: min eig {min_eig:.3e}")
        trace, _ = _conjugate_csv(out / "conjugate.csv")
        if len(trace) != len(self.record.times) - 1:
            problems.append(f"conjugate.csv has {len(trace)} samples")
        return problems


class SphereScan(Workload):
    """``sqglab conjugate-scan`` at the README example plus criterion 10's pass.

    The inputs are closed-form, so the seed is not used.
    """

    name = "sphere_scan"
    defaults = dict(n_max=30, T=7.2, bound_beta=0.5, samples=801, constants_n_max=50)

    def setup(self):
        p = self.params
        self.t_exact = np.array([sphere.conjugate_time(n, 1.0)
                                 for n in range(1, p["n_max"] + 1)])
        self.horizon = 1.1 * sphere.conjugate_time(1, p["bound_beta"])

    def body(self, out: Path):
        p = self.params
        rc = cli.main(["conjugate-scan", "--out", str(out)]
                      + _set_args(beta=1, n_max=p["n_max"], T=p["T"]))
        beta = p["bound_beta"]
        times = np.linspace(0.0, self.horizon, p["samples"])
        phi = sphere.sphere_phi_samples(range(1, p["n_max"] + 1), beta, times)
        report = jacobi.detect_conjugate(phi)
        delta, c = morse.sphere_rotation_constants(beta, p["constants_n_max"])
        bound = morse.morse_bound(morse.MorseInput(
            delta, c, self.horizon, beta, morse.Spectrum.sphere(p["n_max"])))
        return rc, sum(m for _, m in report.detected), bound.aleph

    def check(self, result, out: Path) -> list[str]:
        rc, detected, aleph = result
        if rc != 0:
            return [f"conjugate-scan exited with {rc}"]
        problems = []
        _, found = _conjugate_csv(out / "conjugate.csv")
        if not found:
            problems.append("conjugate-scan detected no conjugate time")
        for t, _ in found:
            err = np.min(np.abs(self.t_exact - t))
            if not err < T_CONJ_TOL:
                problems.append(f"t_conj {t:.12g} is {err:.3e} from every T_n(1)")
        if not 2 <= detected <= aleph:
            problems.append(f"beta={self.params['bound_beta']}: detected {detected} "
                            f"outside [2, aleph = {aleph}]")
        return problems


WORKLOADS = {w.name: w for w in (Geodesic, Jacobi, SphereScan)}
