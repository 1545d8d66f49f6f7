"""musedec benchmark: seeded workloads through the public API, checked and timed.

    python3 perfbench/run.py --workload pooled-train --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn.  For each workload this script
generates the seeded synthetic experiment (not timed), then starts
`worker.py` in a fresh process to set up, measure and check it.  It prints
one line per metric, the provenance of the run, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
traced run and writes its spans under `.perfbench/out/`.

The exit code is 0 only when every correctness check passed.  `--size tiny`
shrinks every workload for the smoke test.
"""

import os

# Pinned before numpy loads, here and in the worker, which inherits them.
# Unlike cli._cap_threads this overrides the caller's values: the benchmark
# measures one BLAS thread, whatever the environment says.
THREAD_VARS = ("MUSEDEC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150


def _git_sha() -> str:
    # the ceiling stops git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(name: str, args, work: Path, out: Path) -> dict:
    import workloads

    w = workloads.sized(workloads.WORKLOADS[name], args.size)
    wdir = work / name
    manifest = workloads.generate(w, args.seed, wdir / "experiment")
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    result_path, spans_path = out / f"{stem}.json", out / f"{stem}.spans.jsonl"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--size", args.size,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--manifest", str(manifest), "--work", str(wdir), "--spans", str(spans_path),
        "--result", str(result_path),
    ]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if args.trace:
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def _print_report(name: str, res: dict):
    d = res["detail"]
    for metric, m in res["metrics"].items():
        print(f"{name:14s} {metric:34s} {m['value']:.6g} {m['unit']}")
    if "samples_per_s" in res["metrics"]:
        rate = res["metrics"]["samples_per_s"]["value"]
        infer = d["kind"] == "infer"
        alias = "predict_samples_per_s" if infer else "train_samples_per_s"
        unit = "rows/s" if infer else "samples/s"
        print(f"{name:14s} {alias:34s} {rate:.6g} {unit}")
    print(f"{name:14s} {'test_auc':34s} {d['test_auc']:.6g} AUC")
    print(f"{name:14s} {'failed_ratio':34s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    print(f"{name:14s} reps={d['reps']} traced_reps={d['traced_reps']} setups={d['setups']} "
          f"output_sha256={d['output_sha256']} loss_sha256={d['loss_sha256']}")
    if "spans_file" in res:
        print(f"{name:14s} spans written to {res['spans_file']}")
    for err in res["errors"]:
        print(f"{name:14s} CHECK FAILED: {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "musedec" / "__init__.py").is_file():
        print(f"error: musedec sources not found under {src.name}/ next to {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; valid: all, {', '.join(workloads.WORKLOADS)}")
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    out = ROOT / ".perfbench" / "out"
    work = ROOT / ".perfbench" / "work" / str(os.getpid())
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: run_workload(name, args, work, out) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance()
    for name, res in results.items():
        _print_report(name, res)
    print("provenance " + json.dumps(prov, sort_keys=True))
    (out / "provenance.json").write_text(json.dumps(prov, indent=1, sort_keys=True))

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, res in results.items() for m, v in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
