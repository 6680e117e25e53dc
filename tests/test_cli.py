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
from sqglab import cli, euler_arnold, jacobi, morse, sphere
from sqglab.cli import ConfigError, RunConfig, main
from sqglab.spectral import load_field
from sqglab.flow import FlowMap, NumericalAbort, load_flowmap
from sqglab.group_ops import DiffeoSample


def _parse(text):
    """The configuration of a ``--config`` file as ``main`` reads it: lines, then validation."""
    cfg = RunConfig()
    cli._apply_text(cfg, text)
    cli._validate(cfg)
    return cfg


def test_parse_config_basic():
    cfg = _parse("beta = 0.5\nN = 32\n# comment\ndt=2e-3\n\nic = shear\n")
    assert cfg.beta == 0.5
    assert cfg.N == 32
    assert cfg.dt == 2e-3
    assert cfg.ic == "shear"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown key 'bogus' \(line 2\)"):
        _parse("beta = 0.5\nbogus = 1\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError, match=r"bad value 'not_a_number' for key 'N' \(line 1\)"):
        _parse("N = not_a_number\n")


def test_parse_config_rejects_out_of_range():
    with pytest.raises(ConfigError, match=r"beta must lie in \[0, 1\], got 2\.0"):
        _parse("beta = 2.0\n")
    with pytest.raises(ConfigError, match="dt and t_final must be positive"):
        _parse("dt = -1\n")


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    rc = main(["sphere-example", "--set", "beta=7", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_on_malformed_set(tmp_path):
    assert main(["sphere-example", "--set", "beta", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_exit_code_2_on_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"beta = 0.5  # \xff\n")
    rc = main(["sphere-example", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and str(path) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["file", "inside-file"])
def test_exit_code_2_on_out_that_cannot_be_a_directory(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken if where == "file" else taken / "run"
    assert main(["sphere-example", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert taken.read_text() == "not a directory\n"


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


@pytest.mark.parametrize("command", ["simulate", "jacobi"])
def test_random_ic_beyond_dealias_cutoff_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                           command):
    # KMAX = 11 > N // 3 = 10 puts modes outside the 2/3 band: refused before any step
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: calls.append(1))
    rc = main([command, "--set", "N=32", "--set", "t_final=0.004", "--set", "ic=random:1:11",
               "--out", str(tmp_path)])
    assert rc == 2 and calls == []
    assert "KMAX = 11 exceeds the dealias cutoff N // 3 = 10" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_random_ic_at_dealias_cutoff_runs(tmp_path):
    rc = main(["simulate", "--set", "N=32", "--set", "t_final=0.004", "--set", "snapshot_stride=2",
               "--set", "ic=random:1:10", "--out", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [
    ("simulate", "beta"), ("simulate", "dt"), ("simulate", "t_final"),
    ("morse-bound", "C"), ("morse-bound", "delta"), ("morse-bound", "T"),
    ("conjugate-scan", "T"),
])
def test_non_finite_real_key_is_a_config_error(tmp_path, capsys, command, key, value):
    # a NaN passes every ordering check such as T <= 0
    rc = main([command, "--set", f"{key}={value}", "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: {key} must be finite, got {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_jacobi_basis_beyond_dealias_cutoff_is_a_config_error(tmp_path, monkeypatch, capsys):
    # K = 11 > N // 3 = 10: refused before the record is stepped
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: calls.append(1))
    rc = main(["jacobi", "--set", "N=32", "--set", "K=11", "--set", "t_final=0.004",
               "--out", str(tmp_path)])
    assert rc == 2 and calls == []
    assert "K = 11 exceeds the dealias cutoff N // 3 = 10" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_jacobi_with_fewer_than_3_snapshots_is_a_config_error(tmp_path, monkeypatch, capsys):
    # 4 steps at stride 2 give 2 snapshots after t = 0: refused before the record is stepped
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: calls.append(1))
    rc = main(["jacobi", "--set", "N=32", "--set", "t_final=0.004", "--set", "snapshot_stride=2",
               "--out", str(tmp_path)])
    assert rc == 2 and calls == []
    err = capsys.readouterr().err
    assert ("jacobi needs at least 3 snapshots after t = 0, got 2 "
            "(t_final = 0.004, dt = 0.001, snapshot_stride = 2)") in err
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


def test_simulate_command_builds_no_inverse(tmp_path, inversions):
    rc = main(["simulate", "--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.05",
               "--set", "ic=random:1:4", "--set", "snapshot_stride=2", "--out", str(tmp_path)])
    assert rc == 0 and inversions == []


def test_exit_code_3_on_folded_flow_map(tmp_path, monkeypatch, capsys):
    # the record's last map folds (det D gamma = 1 + 1.05 cos x) while Newton converges
    def folded(psi0, config):
        rec = euler_arnold.simulate(psi0, config)
        g = psi0.grid
        fwd = FlowMap(g, 1.05 * np.sin(g.x) + 0j)
        rec.diffeos[-1] = DiffeoSample(fwd, rec.times[-1])
        return rec

    monkeypatch.setattr(cli, "simulate", folded)
    rc = main(["jacobi", "--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.015",
               "--set", "snapshot_stride=1", "--set", "K=3", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "gamma at t = 0.015 (N = 32) has min det D gamma = -5.000e-02 <= 0" in err


def test_exit_code_3_on_indefinite_lambda(tmp_path, monkeypatch, capsys):
    # a Lambda sample with a negative eigenvalue stops the Jacobi chain: every
    # sample (named at the first, t = 0), or only the last, which no interval
    # starts at
    for which in ("every", "last"):
        named = []

        def indefinite(record, basis, beta):
            d = basis.dim
            bad = record.times if which == "every" else record.times[-1:]
            named.append(bad[0])
            return jacobi.LambdaPath(
                jacobi.OperatorSample(t, np.diag([1.0, -1.0 if t in bad else 1.0]
                                                 + [1.0] * (d - 2)))
                for t in record.times)

        monkeypatch.setattr(jacobi, "lambda_samples", indefinite)
        out = tmp_path / which
        rc = main(["jacobi", "--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.015",
                   "--set", "snapshot_stride=1", "--set", "K=3", "--out", str(out)])
        assert rc == 3
        assert f"Lambda({named[0]}) is not positive-definite" in capsys.readouterr().err
        assert not (out / "conjugate.csv").exists()
    assert named[0] == 0.015


def test_jacobi_factors_each_snapshot_interval_once(tmp_path, segment_eighs):
    rc = main(["jacobi", "--set", "N=32", "--set", "dt=5e-3", "--set", "t_final=0.015",
               "--set", "snapshot_stride=1", "--set", "K=3", "--out", str(tmp_path)])
    assert rc == 0
    # four snapshots, t = 0 .. 0.015: one factorization per interval, in order
    assert len(segment_eighs) == 3
    assert all(a[1] == b[0] for a, b in zip(segment_eighs, segment_eighs[1:]))


def test_exit_code_4_on_coverage(tmp_path, capsys):
    rc = main(["morse-bound", "--set", "spectrum=torus:2", "--set", "C=1000",
               "--out", str(tmp_path)])
    assert rc == 4
    assert "coverage error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("T", "1e200"), ("delta", "1e-300")])
def test_exit_code_4_on_threshold_beyond_floats(tmp_path, capsys, key, value):
    # T^2 overflows a float; delta^2 underflows to 0: the threshold is +inf
    rc = main(["morse-bound", "--set", f"{key}={value}", "--out", str(tmp_path)])
    assert rc == 4
    assert "coverage error: threshold inf exceeds spectrum coverage" in capsys.readouterr().err


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


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: with it blocked a command runs and its
    # manifest records scipy = null
    script = "\n".join([
        "import sys",
        'sys.modules["scipy"] = None',
        "from sqglab import cli",
        f"sys.exit(cli.main(['sphere-example', '--out', {str(tmp_path / 'run')!r}]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "scipy = null" in (tmp_path / "run" / "manifest.txt").read_text().splitlines()


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


def _modules_loaded_by(tmp_path, runs, prelude="") -> set[str]:
    """The modules a fresh interpreter holds after ``cli.main`` runs each argv,
    beyond those ``import scipy`` itself loads; ``prelude`` runs first."""
    script = "\n".join([
        "import sys",
        prelude,
        "import scipy",
        "bare = set(sys.modules)",
        "from sqglab import cli",
        f"for argv in {runs!r}:",
        "    assert cli.main(argv) == 0, argv",
        "print('loaded:', *(m for m in sys.modules if m not in bare))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the commands' own output (``verify`` prints its checks) comes first
    return set(done.stdout.splitlines()[-1].split()[1:])


def _scipy_loaded_by(tmp_path, runs) -> set[str]:
    return {m for m in _modules_loaded_by(tmp_path, runs) if m.startswith("scipy.")}


def _heavy_modules_loaded_by(tmp_path, runs, prelude="") -> set[str]:
    """Which of OpenSSL's ``_hashlib`` and ``numpy.ma`` the runs loaded."""
    return _modules_loaded_by(tmp_path, runs, prelude) & {"_hashlib", "numpy.ma"}


def test_commands_load_only_the_scipy_submodules_they_use(tmp_path):
    sphere_runs = [[c, "--out", str(tmp_path / c)]
                   for c in ("conjugate-scan", "sphere-example", "morse-bound")]
    assert _scipy_loaded_by(tmp_path, sphere_runs) == set()
    # the stepping samples its spline with the package's own kernel
    simulate = [["simulate", "--set", "t_final=0.01", "--out", str(tmp_path / "simulate")]]
    assert _scipy_loaded_by(tmp_path, simulate) == set()
    verify = [["verify", "--out", str(tmp_path / "verify")]]
    assert _scipy_loaded_by(tmp_path, verify) == set()
    jacobi_run = [["jacobi", "--set", "t_final=0.004", "--set", "snapshot_stride=1",
                   "--out", str(tmp_path / "jacobi")]]
    # the segment eigensolver reduces its pencil with numpy.linalg alone
    assert _scipy_loaded_by(tmp_path, jacobi_run) == set()


def test_commands_at_default_ic_load_neither_openssl_nor_numpy_ma(tmp_path):
    # the manifest digests come from CPython's builtin SHA-256, detection's
    # threshold from a median without numpy's NaN check
    sphere_runs = [[c, "--out", str(tmp_path / c)]
                   for c in ("conjugate-scan", "sphere-example", "morse-bound")]
    assert _heavy_modules_loaded_by(tmp_path, sphere_runs) == set()
    simulate = [["simulate", "--set", "t_final=0.01", "--out", str(tmp_path / "simulate")]]
    assert _heavy_modules_loaded_by(tmp_path, simulate) == set()
    jacobi_run = [["jacobi", "--set", "t_final=0.004", "--set", "snapshot_stride=1",
                   "--out", str(tmp_path / "jacobi")]]
    assert _heavy_modules_loaded_by(tmp_path, jacobi_run) == set()


def test_no_command_loads_numpy_ma(tmp_path):
    # a random ic seeds numpy.random, whose secrets -> hmac import loads
    # _hashlib, so only numpy.ma is pinned on these runs
    runs = [["verify", "--out", str(tmp_path / "verify")],
            ["jacobi", "--set", "ic=random:1:4", "--set", "t_final=0.004",
             "--set", "snapshot_stride=1", "--out", str(tmp_path / "jacobi")],
            ["simulate", "--set", "ic=random:1:4", "--set", "t_final=0.01",
             "--out", str(tmp_path / "simulate")]]
    assert "numpy.ma" not in _heavy_modules_loaded_by(tmp_path, runs)


def test_manifest_digest_falls_back_to_hashlib(tmp_path):
    # with CPython's builtin SHA-256 modules blocked the digest comes from
    # hashlib, and it is the same
    run = [["sphere-example", "--out", str(tmp_path / "run")]]
    blocked = 'sys.modules["_sha2"] = sys.modules["_sha256"] = None'
    assert "_hashlib" in _heavy_modules_loaded_by(tmp_path, run, prelude=blocked)
    import hashlib

    digest = hashlib.sha256((tmp_path / "run" / "scan.csv").read_bytes()).hexdigest()
    assert f"sha256 scan.csv = {digest}" in (tmp_path / "run" / "manifest.txt").read_text()


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
    assert np.all(np.isfinite(fm.disp))
    # each loader refuses the other kind; a field's magic is a prefix of a flow map's
    with pytest.raises(ValueError, match=r"bad magic b'GSQGF', expected b'GSQG'$"):
        load_field(tmp_path / "gamma_final.gsqgf")
    with pytest.raises(ValueError, match=r"bad magic b'GSQG\\x01', expected b'GSQGF'$"):
        load_flowmap(tmp_path / "theta_final.gsqg")


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


def test_config_file_validated_after_override(tmp_path):
    # the file alone (dt = 0.003 against the default t_final = 1) is invalid; the
    # --set lines apply before the one validation, as they do with no file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dt = 0.003\n")
    out = tmp_path / "out"
    rc = main(["sphere-example", "--config", str(cfgfile), "--set", "t_final=0.3",
               "--out", str(out)])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "dt = 0.003" in manifest and "t_final = 0.3" in manifest


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.beta == 0.0
    assert cfg.N == 64
    assert cfg.dt == 1e-3
    assert cfg.t_final == 1.0
    assert cfg.K == 6
