"""Smoke test for the benchmark itself, at tiny size: `python3 perfbench/smoke.py`.

For every workload, with tracing off and on, it checks that run.py exits 0,
reports a correct run, and emits exactly the metrics BENCHMARK.json declares,
each with its declared unit.  It also checks that run.py fails without a
result in a directory holding only BENCHMARK.json and the benchmark files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                failures.append(f"{where}: bad result keys or incorrect run: {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                failures.append(f"{where}: attempted must be a whole number >= 1")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared:
                missing = sorted(set(declared) - set(emitted))
                extra = sorted(set(emitted) - set(declared))
                units = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
                failures.append(f"{where}: missing {missing}, undeclared {extra}, wrong units {units}")
            print(f"ok {where}: {len(emitted)} metrics")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("without the musedec sources run.py must fail and print no result")
        else:
            print("ok bare checkout fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
