"""Command-line front end: configuration, run orchestration, CSV artifacts.

Configuration is plain ``key = value`` lines with ``#`` comments, whose
keys are the fields of ``RunConfig``; every run writes its artifacts plus a
``manifest.txt`` recording the package, numpy and scipy versions (scipy
``null`` where it is not installed: only the tests need it), the git
revision (``null`` outside a checkout), the resolved configuration under
the config keys (so those lines can be read back with ``--config``), the
wall seconds of each timed phase and the SHA-256 of each emitted file.
Exit codes: 0 ok, 2 configuration error (a NaN or infinite real value
included, a ``--config`` that cannot be read as UTF-8 text and an ``--out``
that cannot be a directory; for ``jacobi`` also fewer than 3 snapshots
after t = 0), 3 numerical abort, 4 spectrum coverage too small.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

try:
    import scipy
except ImportError:
    scipy = None

from . import __version__, euler_arnold, jacobi, morse, sphere
from .euler_arnold import SolverConfig, simulate
from .flow import NumericalAbort, save_flowmap
from .presets import check_spec, initial_stream
from .spectral import grid, save_field

# the artifact digests come from CPython's own SHA-256 module (``_sha2`` since
# 3.12, ``_sha256`` before); ``hashlib`` loads OpenSSL's ``_hashlib``, about
# 3.6 MB resident, for one digest per artifact
try:
    from _sha2 import sha256 as _sha256_of
except ImportError:
    try:
        from _sha256 import sha256 as _sha256_of
    except ImportError:
        from hashlib import sha256 as _sha256_of


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Configuration of one run; the field names are the config keys."""

    beta: float = 0.0
    N: int = 64
    dt: float = 1e-3
    t_final: float = 1.0
    K: int = 6
    ic: str = "cosy"
    snapshot_stride: int = 50
    n_max: int = 30
    spectrum: str = "torus:16"
    C: float = 16.0
    delta: float = 1.0
    T: float = float(np.pi)


def _validate(cfg: RunConfig):
    for f in fields(cfg):  # a NaN would pass every ordering check below
        value = getattr(cfg, f.name)
        if type(f.default) is float and not np.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if cfg.N < 16 or cfg.N % 2:
        raise ConfigError("N must be an even integer >= 16")
    if cfg.n_max < 2:
        raise ConfigError("n_max must be >= 2")
    if cfg.delta <= 0:
        raise ConfigError("delta must be positive")
    if cfg.C < 0:
        raise ConfigError("C must be nonnegative")
    if cfg.T <= 0:
        raise ConfigError("T must be positive")
    try:
        check_spec(cfg.ic, cfg.N)
        _solver_config(cfg).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _apply_line(cfg: RunConfig, line: str, where: str):
    """Set one ``key = value`` line; the key is a RunConfig field, the value
    is converted with the type of that field's default."""
    if "=" not in line:
        raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
    key, value = (s.strip() for s in line.split("=", 1))
    defaults = {f.name: f.default for f in fields(RunConfig)}
    if key not in defaults:
        raise ConfigError(f"unknown key {key!r} ({where})")
    try:
        setattr(cfg, key, type(defaults[key])(value))
    except ValueError:
        raise ConfigError(f"bad value {value!r} for key {key!r} ({where})") from None


def _read_config(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read --config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"--config {path} is not UTF-8 text") from None


def _make_out(out: Path):
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out} as a directory: {exc.strerror}") from None


def _apply_text(cfg: RunConfig, text: str):
    """Set each ``key = value`` line of text on cfg; unknown keys rejected with line number."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _apply_line(cfg, line, f"line {lineno}")


def _sha256(path: Path) -> str:
    return _sha256_of(path.read_bytes()).hexdigest()


def _git_revision(root: Path = Path(__file__).resolve().parents[2]) -> str | None:
    """Commit of the checkout holding the package, read from .git; None outside one."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Phases(dict):
    """Wall seconds per phase of a command, keyed ``module.function``.

    The keys are the span names of the benchmark's traced run
    (``perfbench``), so the manifest and a bench file share one set of names.
    """

    def run(self, fn, *args, **kwargs):
        """Call fn and add its wall time to the phase named after it."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self[name] = self.get(name, 0.0) + time.perf_counter() - t0
        return result


def _write_manifest(out: Path, command: str, cfg: RunConfig, artifacts: list[Path],
                    phases: Phases):
    lines = [f"command = {command}",
             f"sqglab = {__version__}",
             f"numpy = {np.__version__}",
             f"scipy = {scipy.__version__ if scipy else 'null'}",
             f"git_revision = {_git_revision() or 'null'}"]
    for f in fields(cfg):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    for name, seconds in phases.items():
        lines.append(f"phase {name} = {seconds:.6f}")
    for a in artifacts:
        lines.append(f"sha256 {a.name} = {_sha256(a)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _parse_spectrum(spec: str) -> morse.Spectrum:
    try:
        kind, num = spec.split(":")
        num = int(num)
    except ValueError:
        raise ConfigError(f"bad spectrum spec {spec!r}, want torus:KMAX or sphere:NMAX") \
            from None
    build = {"torus": morse.Spectrum.torus, "sphere": morse.Spectrum.sphere}
    if kind not in build:
        raise ConfigError(f"unknown spectrum kind {kind!r}")
    try:
        return build[kind](num)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# commands

def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(beta=cfg.beta, dt=cfg.dt, t_final=cfg.t_final, n=cfg.N,
                        snapshot_stride=cfg.snapshot_stride)


def cmd_simulate(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    g = grid(cfg.N)
    psi0 = initial_stream(cfg.ic, g)
    solver = _solver_config(cfg)

    def on_abort(record):
        if record.thetas:
            save_field(out / "theta_last.gsqg", record.thetas[-1])

    diag = out / "diagnostics.csv"
    with diag.open("w") as f:
        # one flushed row per snapshot, so an aborted run keeps its trace
        f.write(euler_arnold.DIAG_HEADER + "\n")
        f.flush()

        def on_snapshot(row):
            f.write(euler_arnold.diagnostics_line(row) + "\n")
            f.flush()

        record = phases.run(simulate, psi0, solver, on_abort=on_abort,
                            on_snapshot=on_snapshot)
    theta_ck = out / "theta_final.gsqg"
    save_field(theta_ck, record.thetas[-1])
    flow_ck = out / "gamma_final.gsqgf"
    save_flowmap(flow_ck, record.diffeos[-1].forward)
    return [diag, theta_ck, flow_ck]


def cmd_jacobi(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    g = grid(cfg.N)
    try:  # the basis rules on K, checked before any step is taken
        basis = phases.run(jacobi.make_basis, g, cfg.K, cfg.beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    snapshots = -(-euler_arnold.whole_steps(cfg.t_final, cfg.dt) // cfg.snapshot_stride)
    if snapshots < 3:  # conjugate detection needs 3 samples after t = 0
        raise ConfigError(f"jacobi needs at least 3 snapshots after t = 0, got {snapshots} "
                          f"(t_final = {cfg.t_final:g}, dt = {cfg.dt:g}, "
                          f"snapshot_stride = {cfg.snapshot_stride})")
    psi0 = initial_stream(cfg.ic, g)
    record = phases.run(simulate, psi0, _solver_config(cfg))
    lams = phases.run(jacobi.lambda_samples, record, basis, cfg.beta)
    k0 = phases.run(jacobi.k0_matrix, record.u0(), cfg.beta, basis)
    phi = phases.run(jacobi.evolve_phi, record, basis, cfg.beta, lambdas=lams, k0=k0)
    _, _, resid = phases.run(jacobi.omega_gamma_split, record, basis, cfg.beta, phi,
                             lambdas=lams, k0=k0)
    report = phases.run(jacobi.detect_conjugate, phi)
    conj = out / "conjugate.csv"
    conj.write_text(report.csv())
    (out / "decomposition_residual.txt").write_text(f"{resid:.17g}\n")
    return [conj, out / "decomposition_residual.txt"]


def cmd_conjugate_scan(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    times = np.linspace(0.0, cfg.T, 801)
    phi = phases.run(sphere.sphere_phi_samples, range(1, cfg.n_max + 1), cfg.beta, times)
    report = phases.run(jacobi.detect_conjugate, phi)
    conj = out / "conjugate.csv"
    conj.write_text(report.csv())
    return [conj]


def cmd_sphere_example(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    scan = out / "scan.csv"
    scan.write_text(sphere.cluster_scan_csv(cfg.beta, cfg.n_max))
    return [scan]


def cmd_morse_bound(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    if cfg.beta >= 1.0:
        raise ConfigError("morse-bound requires beta < 1")
    spectrum = _parse_spectrum(cfg.spectrum)
    inp = morse.MorseInput(cfg.delta, cfg.C, cfg.T, cfg.beta, spectrum)
    bound = morse.morse_bound(inp)
    path = out / "bound.csv"
    path.write_text(morse.bound_csv_rows(
        [(cfg.beta, cfg.T, cfg.delta, cfg.C, bound)]))
    return [path]


def cmd_verify(cfg: RunConfig, out: Path, phases: Phases) -> list[Path]:
    """Fast invariant suite; prints one PASS/FAIL line per property."""
    from . import verify as verify_mod

    results = verify_mod.run_all()
    ok = True
    lines = ["property,passed,measure"]
    for name, passed, measure in results:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({measure:.3e})")
        lines.append(f"{name},{int(passed)},{measure:.17g}")
        ok = ok and passed
    path = out / "verify.csv"
    path.write_text("\n".join(lines) + "\n")
    if not ok:
        raise NumericalAbort("verify suite reported failures")
    return [path]


_COMMANDS = {
    "simulate": cmd_simulate,
    "jacobi": cmd_jacobi,
    "conjugate-scan": cmd_conjugate_scan,
    "sphere-example": cmd_sphere_example,
    "morse-bound": cmd_morse_bound,
    "verify": cmd_verify,
}


def _keys_help() -> str:
    """The config keys, which are RunConfig's fields, with their defaults."""
    keys = (f"{f.name} ({f.default if isinstance(f.default, str) else format(f.default, 'g')})"
            for f in fields(RunConfig))
    return ("config keys (defaults): " + ", ".join(keys)
            + "; ic is cosy, shear or random:SEED:KMAX (KMAX <= N // 3), spectrum is "
            "torus:KMAX or sphere:NMAX; real values must be finite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqglab",
        description="Generalized SQG geodesic laboratory",
        epilog=_keys_help(),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, help="key = value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    args = parser.parse_args(argv)

    phases = Phases()
    try:
        cfg = RunConfig()  # the file lines, then --set, then one validation of the result
        if args.config is not None:
            _apply_text(cfg, _read_config(args.config))
        for item in args.set:
            _apply_line(cfg, item, "--set")
        _validate(cfg)
        _make_out(args.out)
        artifacts = _COMMANDS[args.command](cfg, args.out, phases)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except morse.CoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 4
    except (NumericalAbort, euler_arnold.CflViolation, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    _write_manifest(args.out, args.command, cfg, artifacts, phases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
