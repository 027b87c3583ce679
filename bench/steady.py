"""Steadiness report: run each workload N times and compare spreads with bounds.

    python3 bench/steady.py --runs 10 [--workload cli-chain ...] [--first-seed 1]

Each run uses its own seed (``first-seed``, ``first-seed + 1``, ...) and the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound. A spread should stay
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeat to pick several (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    metrics = spec["end_to_end"]
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls, failed = [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(workload, seed, spec["run_seconds"])
            walls.append(wall)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {failed} failed operations, "
              f"run wall {min(walls):.1f}..{max(walls):.1f} s")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            steady &= spread <= bound
            print(f"  {m['name']:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound:>6}  {verdict}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in vals)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
