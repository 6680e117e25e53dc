"""Record a baseline: several seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Each run is ``run.py`` in its own process, one after another.  For every
end-to-end metric the file keeps the values, their median and quartiles,
and the spread (third minus first quartile, as a share of the median); the
traced run gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(x)["details"] for x in lines if x.startswith('{"details"'))
    return json.loads(lines[-1]), details


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workload or run.WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, details = _run(workload, seed, seconds, 0)
            results.append(result)
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        traced, _ = _run(workload, args.first_seed, seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "params": details["provenance"]["params"],
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                                 for r in results])
                           for m in spec["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        out["workloads"][workload] = entry
        out["provenance"] = {k: v for k, v in details["provenance"].items()
                             if k not in ("seed", "params")}
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
