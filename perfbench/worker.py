"""Measure one workload in its own process and write the result as JSON.

`run.py` starts one worker per workload, so `ru_maxrss` is that workload's
own peak and input generation stays out of it.  The worker repeats the
workload's timed unit until the time budget is spent, at least twice so the
repetitions can be compared bit for bit, and times a batch of set-ups ahead
of each repetition (median `setup_s`).  With `--trace 1` each untraced repetition is followed by a
traced one: one set-up plus one unit under `tracer.instrument`.  The
per-layer metrics come from the traced repetitions, and the tracing overhead
is the difference between the two kinds' median `run_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# (name, unit): the end-to-end metrics BENCHMARK.json declares
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
]
SETUP_BATCH_S, SETUP_BATCH_MAX = 0.1, 10  # set-ups timed ahead of each repetition
MIN_REPS = 2


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _rep(w, ctx, out_dir: Path):
    try:
        return workloads.run(w, ctx, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(w, seed: int, manifest: Path, work: Path, seconds: float, trace: bool, spans_path: Path) -> dict:
    tr = tracer.Tracer()
    setup_times, plain, traced = [], [], []
    cpu = wall = 0.0
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_REPS or time.perf_counter() < deadline:
        # Set-ups are spread over the run, a batch ahead of each repetition, so
        # their median sees the same changes in machine speed as run_s does.
        batch_start = time.perf_counter()
        for _ in range(SETUP_BATCH_MAX):
            ctx = None  # free the previous set-up first, so peak RSS holds one
            t0 = time.perf_counter()
            ctx = workloads.setup(w, seed, manifest)
            setup_times.append(time.perf_counter() - t0)
            if time.perf_counter() - batch_start >= SETUP_BATCH_S:
                break
        k = len(plain)
        c0, t0 = _cpu_seconds(), time.perf_counter()
        plain.append(_rep(w, ctx, work / f"rep{k}"))
        cpu, wall = cpu + _cpu_seconds() - c0, wall + time.perf_counter() - t0
        if trace:
            with tracer.instrument(tr, run=f"rep{k}"):
                traced.append(_rep(w, workloads.setup(w, seed, manifest), work / f"traced{k}"))
        if plain[-1].errors:
            break

    reps = plain + traced
    errors = sorted({e for r in reps for e in r.errors})
    for field in ("output_sha256", "loss_sha256"):
        if len({getattr(r, field) for r in reps}) > 1:
            errors.append(f"repetitions differ in {field}: the run is not deterministic")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    run_s = statistics.median(r.run_s for r in plain)
    if trace:
        tr.write(spans_path)
        overhead = statistics.median(r.run_s for r in traced) - run_s
        values = tracer.layer_metrics(tr.spans, len(traced), overhead, cpu / wall)
    else:
        e2e = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "samples_per_s": statistics.median([r.samples / r.samples_s for r in plain if r.samples_s > 0] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    first = plain[0]
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "errors": errors,
        "detail": {
            "kind": w.kind,
            "test_auc": first.auc,
            "output_sha256": first.output_sha256,
            "loss_sha256": first.loss_sha256,
            "reps": len(plain),
            "traced_reps": len(traced),
            "setups": len(setup_times),
            "run_s_each": [r.run_s for r in plain],
            "setup_s_each": setup_times,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    w = workloads.sized(workloads.WORKLOADS[args.workload], args.size)
    result = measure(w, args.seed, args.manifest, args.work, args.seconds, bool(args.trace), args.spans)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
