"""Command-line interface: config parsing, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sqglab
from sqglab import cli, euler_arnold, morse, sphere
from sqglab.cli import ConfigError, RunConfig, main, parse_config
from sqglab.spectral import load_field
from sqglab.flow import NumericalAbort, load_flowmap


def test_parse_config_basic():
    cfg = parse_config("beta = 0.5\nN = 32\n# comment\ndt=2e-3\n\nic = shear\n")
    assert cfg.beta == 0.5
    assert cfg.N == 32
    assert cfg.dt == 2e-3
    assert cfg.ic == "shear"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("beta = 0.5\nbogus = 1\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("N = not_a_number\n")


def test_parse_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        parse_config("beta = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("dt = -1\n")


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    rc = main(["sphere-example", "--set", "beta=7", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_on_malformed_set(tmp_path):
    assert main(["sphere-example", "--set", "beta", "--out", str(tmp_path)]) == 2


def test_exit_code_2_on_t_final_not_multiple_of_dt(tmp_path, capsys):
    rc = main(["simulate", "--set", "dt=0.003", "--set", "t_final=0.01",
               "--set", "N=32", "--out", str(tmp_path)])
    assert rc == 2
    assert "not a multiple of dt" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "jacobi"])
@pytest.mark.parametrize("ic", ["random:1", "random:x:4", "bogus", "random:1:0", "random:-1:4"])
def test_exit_code_2_on_malformed_ic(tmp_path, capsys, command, ic):
    rc = main([command, "--set", "N=32", "--set", "t_final=0.004", "--set", f"ic={ic}",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(ic) in err
    assert not any(tmp_path.iterdir())


def test_exit_code_3_on_cfl_blowup(tmp_path, capsys):
    rc = main(["simulate", "--set", "dt=1", "--set", "t_final=2",
               "--set", "N=32", "--set", "ic=shear", "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical abort" in capsys.readouterr().err


def test_exit_code_3_on_stage_cfl(tmp_path, capsys):
    # the start of the step passes the CFL check and RK4 stage 1 trips it
    rc = main(["simulate", "--set", "N=32", "--set", "beta=1", "--set", "dt=0.098",
               "--set", "t_final=0.098", "--set", "ic=random:1:4", "--out", str(tmp_path)])
    assert rc == 3
    assert "in RK4 stage 1" in capsys.readouterr().err


def test_aborted_simulate_keeps_streamed_diagnostics(tmp_path, monkeypatch, capsys):
    # snapshots at t = 0 and t = dt, then the second step aborts
    step, calls = euler_arnold._joint_rk4_step, []

    def abort_on_second_step(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalAbort("injected abort")
        return step(*args)

    monkeypatch.setattr(euler_arnold, "_joint_rk4_step", abort_on_second_step)
    rc = main(["simulate", "--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.05",
               "--set", "ic=shear", "--set", "snapshot_stride=1", "--out", str(tmp_path)])
    assert rc == 3
    assert "injected abort" in capsys.readouterr().err
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == euler_arnold.DIAG_HEADER
    assert [float(row.split(",")[0]) for row in diag[1:]] == [0.0, 5e-3]
    assert load_field(tmp_path / "theta_last.gsqg").grid.n == 32
    assert not (tmp_path / "theta_final.gsqg").exists()


def test_exit_code_4_on_coverage(tmp_path, capsys):
    rc = main(["morse-bound", "--set", "spectrum=torus:2", "--set", "C=1000",
               "--out", str(tmp_path)])
    assert rc == 4
    assert "coverage error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["torus:0", "torus:-3", "sphere:0"])
def test_exit_code_2_on_spectrum_cutoff_below_one(tmp_path, capsys, spec):
    rc = main(["morse-bound", "--set", f"spectrum={spec}", "--out", str(tmp_path)])
    assert rc == 2
    assert "cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sphere-example", "morse-bound", "conjugate-scan"])
def test_manifest_configuration_reads_back_with_config(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--out", str(first)]) == 0
    keys = {f.name for f in fields(RunConfig)}
    manifest = (first / "manifest.txt").read_text().splitlines()
    config_lines = [line for line in manifest if line.split(" = ")[0] in keys]
    assert len(config_lines) == len(keys)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("\n".join(config_lines) + "\n")
    assert main([command, "--config", str(cfgfile), "--out", str(second)]) == 0

    def digests(out):
        return [line for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("sha256 ")]

    assert digests(first) and digests(first) == digests(second)


def test_sphere_example_artifacts(tmp_path):
    rc = main(["sphere-example", "--set", "beta=1", "--set", "n_max=10",
               "--out", str(tmp_path)])
    assert rc == 0
    scan = (tmp_path / "scan.csv").read_text()
    assert scan == sphere.cluster_scan_csv(1.0, 10)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "command = sphere-example" in manifest
    assert "sha256 scan.csv" in manifest
    import hashlib

    digest = hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest()
    assert digest in manifest


def test_manifest_records_provenance(tmp_path):
    import scipy

    assert main(["sphere-example", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    entries = dict(line.split(" = ", 1) for line in lines)
    assert entries["sqglab"] == sqglab.__version__
    assert entries["numpy"] == np.__version__
    assert entries["scipy"] == scipy.__version__
    rev = cli._git_revision()
    assert entries["git_revision"] == (rev if rev is not None else "null")


def test_manifest_phases_use_benchmark_layer_names(tmp_path):
    # the benchmark declares its layers in BENCHMARK.json; read it, run nothing
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    layers = {m["name"] for m in bench["per_layer"]}
    short = ["--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.05",
             "--set", "ic=shear", "--set", "snapshot_stride=2", "--set", "K=3"]
    runs = {
        "simulate": (short, {"euler_arnold.simulate"}),
        "jacobi": (short, {"euler_arnold.simulate", "jacobi.make_basis",
                           "jacobi.lambda_samples", "jacobi.k0_matrix",
                           "jacobi.evolve_phi", "jacobi.omega_gamma_split",
                           "jacobi.detect_conjugate"}),
        "conjugate-scan": (["--set", "n_max=5"], {"sphere.sphere_phi_samples",
                                                  "jacobi.detect_conjugate"}),
    }
    for command, (args, expected) in runs.items():
        out = tmp_path / command
        assert main([command, "--out", str(out)] + args) == 0
        phases = {}
        for line in (out / "manifest.txt").read_text().splitlines():
            if line.startswith("phase "):
                name, seconds = line[len("phase "):].split(" = ")
                phases[name] = float(seconds)
        assert set(phases) == expected
        assert all(s >= 0 for s in phases.values())
        assert {f"{name}.self_s" for name in phases} <= layers


SCIPY_SUBMODULES = ("scipy.ndimage", "scipy.linalg", "scipy.integrate", "scipy.interpolate",
                    "scipy.sparse", "scipy.special", "scipy.optimize")


def _scipy_loaded_by(tmp_path, runs) -> set[str]:
    """The scipy submodules a fresh interpreter holds after ``cli.main`` runs each argv."""
    script = "\n".join([
        "import sys",
        "from sqglab import cli",
        f"for argv in {runs!r}:",
        "    assert cli.main(argv) == 0, argv",
        f"print('loaded:', *(m for m in {SCIPY_SUBMODULES!r} if m in sys.modules))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the commands' own output (``verify`` prints its checks) comes first
    return set(done.stdout.splitlines()[-1].split()[1:])


def test_commands_load_only_the_scipy_submodules_they_use(tmp_path):
    sphere_runs = [[c, "--out", str(tmp_path / c)]
                   for c in ("conjugate-scan", "sphere-example", "morse-bound")]
    assert _scipy_loaded_by(tmp_path, sphere_runs) == set()
    # the stepping samples its spline with the package's own kernel
    simulate = [["simulate", "--set", "t_final=0.01", "--out", str(tmp_path / "simulate")]]
    assert _scipy_loaded_by(tmp_path, simulate) == set()
    verify = [["verify", "--out", str(tmp_path / "verify")]]
    assert _scipy_loaded_by(tmp_path, verify) == set()
    jacobi = [["jacobi", "--set", "t_final=0.004", "--set", "snapshot_stride=1",
               "--out", str(tmp_path / "jacobi")]]
    loaded = _scipy_loaded_by(tmp_path, jacobi)
    assert "scipy.linalg" in loaded
    assert not loaded & {"scipy.integrate", "scipy.sparse", "scipy.optimize", "scipy.interpolate"}


def test_git_revision_reads_refs_without_git(tmp_path):
    assert cli._git_revision(tmp_path) is None  # not a checkout
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert cli._git_revision(tmp_path) is None  # no commit yet
    (git / "packed-refs").write_text("# pack-refs\n" + "a" * 40 + " refs/heads/main\n")
    assert cli._git_revision(tmp_path) == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert cli._git_revision(tmp_path) == "b" * 40  # a loose ref wins
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert cli._git_revision(tmp_path) == "c" * 40  # detached HEAD


def test_sphere_example_deterministic_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["sphere-example", "--set", "beta=1", "--out", str(out)])
        assert rc == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()


def test_morse_bound_artifact(tmp_path):
    rc = main(["morse-bound", "--set", "beta=0", "--set", "C=16",
               "--set", "delta=1", "--set", "spectrum=torus:8",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bound.csv").read_text().strip().split("\n")
    assert lines[0] == morse.BOUND_HEADER
    assert int(lines[1].split(",")[5]) == 8


def test_morse_bound_rejects_critical_beta(tmp_path):
    assert main(["morse-bound", "--set", "beta=1", "--out", str(tmp_path)]) == 2


def test_simulate_artifacts_roundtrip(tmp_path):
    rc = main(["simulate", "--set", "N=32", "--set", "dt=5e-3",
               "--set", "t_final=0.05", "--set", "ic=shear",
               "--set", "snapshot_stride=5", "--out", str(tmp_path)])
    assert rc == 0
    diag = (tmp_path / "diagnostics.csv").read_text().strip().split("\n")
    assert diag[0] == "t,energy,theta_l2,max_u,det_jac_err,transport_residual"
    assert len(diag) >= 3
    theta = load_field(tmp_path / "theta_final.gsqg")
    assert theta.grid.n == 32
    fm = load_flowmap(tmp_path / "gamma_final.gsqgf")
    assert fm.grid.n == 32
    assert np.all(np.isfinite(fm.disp_x))


def test_conjugate_scan_artifact(tmp_path):
    t1 = sphere.conjugate_time(1, 1.0)
    rc = main(["conjugate-scan", "--set", "beta=1", "--set", "n_max=5",
               "--set", f"T={1.05 * t1}", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "conjugate.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,sigma_min,det_sign"
    idx = lines.index("t_conj,multiplicity")
    detected = [float(l.split(",")[0]) for l in lines[idx + 1:]]
    # n_max modes with T_n below the horizon should all be flagged
    expected = [sphere.conjugate_time(n, 1.0) for n in range(1, 6)]
    expected = sorted(t for t in expected if t < 1.05 * t1)
    assert len(detected) == len(expected)
    assert np.allclose(sorted(detected), expected, atol=1e-4)


def test_config_file_plus_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("beta = 1\nn_max = 4\n")
    out = tmp_path / "out"
    rc = main(["sphere-example", "--config", str(cfgfile),
               "--set", "n_max=6", "--out", str(out)])
    assert rc == 0
    assert (out / "scan.csv").read_text() == sphere.cluster_scan_csv(1.0, 6)


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.beta == 0.0
    assert cfg.N == 64
    assert cfg.dt == 1e-3
    assert cfg.t_final == 1.0
    assert cfg.K == 6
