"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny scale, untraced and traced, and checks
that the result line is well formed, that the outputs are correct, and
that every metric named in ``BENCHMARK.json`` is emitted with the unit
given there.  Then checks that the benchmark refuses to run, without a
result line, in a directory that holds only the benchmark's own files.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct:\n{proc.stdout[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted = {result.get('attempted')!r}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric.get("unit") for name, metric in result.get("metrics", {}).items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing or wrong unit {sorted(set(wanted.items()) - set(got.items()))}, "
                      f"extra {sorted(set(got.items()) - set(wanted.items()))}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def check_bare_directory() -> list[str]:
    """The benchmark must exit non-zero, printing no result, without the sources."""
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    errors = []
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_result(workload["name"], trace)
    errors += check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
