"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "geodesic": dict(N=32, dt=1e-3, t_final=0.004, snapshot_stride=2),
    "jacobi": dict(N=32, dt=2e-3, t_final=0.008, snapshot_stride=1, K=3),
    "sphere_scan": dict(n_max=5, samples=201),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(workload, trace):
    args = Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    result = run.run_one(args, SPEC, **TINY[workload])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_REPS * (2 if trace else 1)
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    wl = workloads.Geodesic(3, **TINY["geodesic"])
    wl.setup()
    tracer = spans.Tracer()
    for rep in range(2):
        with tracer.repetition(rep):
            wl.body(tmp_path / str(rep))
    _, start, end, parent, rep = tracer.arrays()
    assert len(start) > 100
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    assert (rep[child] == rep[parent[child]]).all()
    assert (tracer.self_times() >= -1e-12).all()
    per_rep = [tracer.per_rep(r) for r in range(2)]
    counts = [{k: v for k, v in r.items() if k.endswith(".calls") or k.startswith("kernel.")}
              for r in per_rep]
    assert counts[0] == counts[1]
    assert per_rep[0]["flow.advance_forward.calls"] == 4


class _CorruptEveryOther(workloads.Geodesic):
    """Feeds the check an energy drift of 1e-6 on every other repetition."""

    reps = 0

    def body(self, out: Path):
        rc = super().body(out)
        self.reps += 1
        if self.reps % 2 == 0:
            path = out / "diagnostics.csv"
            header, *rows = path.read_text().splitlines()
            t, e, rest = rows[-1].split(",", 2)
            rows[-1] = f"{t},{float(e) * (1 + 1e-6)!r},{rest}"
            path.write_text("\n".join([header, *rows]) + "\n")
        return rc


def test_out_of_tolerance_output_counts_as_failure():
    wl = _CorruptEveryOther(3, **TINY["geodesic"])
    wl.setup()
    run.OUT.mkdir(exist_ok=True)
    walls, _, failures, attempted = run.run_repetitions(wl, 0.0)
    assert attempted == 1 + run.MIN_REPS
    assert len(failures) == attempted // 2
    assert all("energy drift" in f["problems"][0] for f in failures)
    assert len(walls) == run.MIN_REPS  # timed, but counted as failed
