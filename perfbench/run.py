"""sqglab benchmark: one workload per process, closed loop, JSON result last.

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the package is imported from ``src/`` next to this
directory.  A single caller runs repetitions back to back (the next starts
only after the previous one finished) for ``--seconds`` seconds and at
least ``MIN_REPS`` times.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics.  ``--workload all``
runs every workload in its own fresh process and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("geodesic", "jacobi", "sphere_scan")
# one BLAS thread: steady timings on a small shared machine, and a plain
# single-threaded baseline; set before numpy is first imported
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 5        # per kind of repetition (untraced / traced)
SETUP_REPEATS = 3   # set-up is timed this often and the median reported


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2),
            "value": sorted(samples)[n - 11]}


def _git_head():
    """Commit of the checkout, read from .git without leaving it; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed, params):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_head": _git_head(), "seed": seed, "params": params}


def run_repetitions(wl, seconds, tracer=None):
    """Closed loop of repetitions.

    Repetition 0 is a warm-up: checked and counted, but not timed.  Returns
    (untraced walls, traced walls, failures, attempted); walls are
    (repetition, seconds) pairs of the timed repetitions whose body returned.
    """
    walls, traced_walls, failures = [], [], []
    min_reps = 1 + MIN_REPS * (2 if tracer else 1)
    start = time.perf_counter()
    rep = 0
    while rep < min_reps or time.perf_counter() - start < seconds:
        traced = tracer is not None and rep % 2 == 0 and rep > 0
        with tempfile.TemporaryDirectory(dir=OUT) as d:
            out = Path(d)
            try:
                with tracer.repetition(rep) if traced else nullcontext():
                    t0 = time.perf_counter()
                    result = wl.body(out)
                    wall = time.perf_counter() - t0
                if rep > 0:  # repetition 0 warms caches and lazy imports
                    (traced_walls if traced else walls).append((rep, wall))
                problems = wl.check(result, out)
            except Exception:  # a failed repetition is counted, not fatal
                problems = [traceback.format_exc()]
        if problems:
            failures.append({"rep": rep, "problems": problems})
            print(f"repetition {rep} failed: {problems}", file=sys.stderr)
        rep += 1
    return walls, traced_walls, failures, rep


def layer_metrics(tracer, walls, traced_walls):
    """Per-layer metrics: medians over the traced repetitions."""
    per_rep = [tracer.per_rep(rep) for rep, _ in traced_walls]
    out = {k: _median([r[k] for r in per_rep]) for k in per_rep[0]}
    untraced = _median([w for _, w in walls])
    traced = _median([w for _, w in traced_walls])
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    out["trace.coverage_frac"] = _median(
        [r["trace.covered_s"] / w for r, (_, w) in zip(per_rep, traced_walls)])
    return out


def run_one(args, spec, **params) -> dict:
    """Set up, run and check one workload; returns the result object.

    ``params`` overrides the workload's input sizes (used by the smoke test).
    """
    # the package (with numpy and scipy) is imported here, after the thread
    # pinning, and its import time is part of set-up
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import sqglab
    import workloads
    import_s = time.perf_counter() - t0
    if not Path(sqglab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sqglab imported from {sqglab.__file__}, not {ROOT / 'src'}")

    wl = workloads.WORKLOADS[args.workload](args.seed % 2**32, **params)
    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    walls, traced_walls, failures, attempted = run_repetitions(wl, args.seconds, tracer)

    wall_samples = [w for _, w in walls]
    if tracer is None:
        kind = "end_to_end"
        values = {"wall_s": _median(wall_samples), "setup_s": import_s + _median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        kind = "per_layer"
        values = layer_metrics(tracer, walls, traced_walls)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}

    details = {"workload": args.workload, "provenance": provenance(args.seed, wl.params),
               "import_s": import_s, "setup_samples_s": setups,
               "wall_samples_s": wall_samples, "wall_tail": tail(wall_samples),
               "traced_wall_samples_s": [w for _, w in traced_walls],
               "fail_frac": len(failures) / attempted, "failures": failures}
    print(json.dumps({"details": details}))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if tracer is None:
        print(f"# {args.workload} wall_s: median of {len(wall_samples)} samples, "
              f"tail {details['wall_tail']}, fail_frac {details['fail_frac']:.3g}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh child process; a summary table, then all results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({k for r in results.values() for k in r["metrics"]})
    print("workload".ljust(12) + "".join(n.rjust(14) for n in names) + "fail_frac".rjust(11))
    for name, r in results.items():
        cells = "".join(f"{r['metrics'][n]['value']:14.4g}" for n in names)
        print(name.ljust(12) + cells + f"{r['failed'] / r['attempted']:11.3g}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sqglab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no sqglab source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args, json.loads(spec_path.read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
