"""Smoke test for the benchmark: tiny inputs, every workload, both modes.

    python3 bench/smoke.py

Checks that each run exits 0 and that its last stdout line names every
metric of BENCHMARK.json with the declared unit, with ``failed`` (and so
``error_rate``) at 0. It also checks that the benchmark refuses to run,
without printing a result, in a copy that holds only BENCHMARK.json and
``bench/``. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    what = f"{workload} --trace {trace}"
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    if done.returncode != 0:
        return [f"{what}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{what}: {result['failed']} of {result['attempted']} operations failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{what}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{what}: {m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{what}: end-to-end metric {m['name']} is {value}")
    return problems


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        return [f"bare copy: exit {done.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, w["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
