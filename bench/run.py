"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-plain --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, then runs passes for
``--seconds``, building the inputs again at even times through the run and
timing each set-up. With ``--trace 0`` it reports the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-module metrics. Every output
is checked against the reference path. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output was correct.
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
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, installed, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUPS = 9  # set-ups per run, spread over it


def run_record(args, workload) -> dict:
    """What a later comparison needs to know about this run."""
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": args.seed,
        # Kept aside: a seed no one tunes against, for checking a claim later.
        "claim_check_seed": int(np.random.SeedSequence([args.seed, 0xC1A1]).generate_state(1)[0]),
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Outcome:
    """Operation counts and problems found, across all passes of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._first: dict = {}  # input key -> [outputs, operations that produced them]

    def record(self, key, outputs) -> None:
        ops = self.workload.ops_per_pass
        self.attempted += ops
        if key not in self._first:
            self._first[key] = [outputs, 0]
        if outputs == self._first[key][0]:
            self._first[key][1] += ops
        else:
            self.failed += ops
            self.problems.append(f"input {key}: outputs differ from the first pass on it")

    def crashed(self) -> None:
        self.attempted += self.workload.ops_per_pass
        self.failed += self.workload.ops_per_pass
        self.problems.append(traceback.format_exc())

    def check(self) -> None:
        """Reference-check the first outputs of each input; charge every pass that matched."""
        for key, (outputs, ops) in self._first.items():
            try:
                found = self.workload.check(key, outputs)
            except Exception:
                found = [traceback.format_exc()]
            if found:
                self.problems += found
                self.failed += ops


def timed_setup(workload, setup_times: list[float]) -> None:
    t0 = time.perf_counter()
    workload.setup()
    setup_times.append(time.perf_counter() - t0)


def measure(workload, seconds: float, traced: bool, setup_times: list[float]):
    """Run passes for ``seconds`` after one warm-up pass.

    The warm-up runs on cold caches and a fresh heap, so it is checked like
    every pass but not measured. The run goes on past ``seconds`` until
    every input has had a measured pass. In traced mode each measured pass
    is an untraced/traced pair on the same input. The set-ups after the
    first are made between passes at even times, so that ``setup_s`` samples
    the same stretch of time as the passes: a shared CPU's speed drifts
    within a run.
    """
    outcome = Outcome(workload)
    passes, keys, traced_passes, layers, spans = [], [], [], [], []

    def run(i: int, tracer=None):
        if tracer is None:
            p = workload.run_pass(i, in_process=traced)
        else:
            with installed(tracer):
                p = workload.run_pass(i, in_process=True, tracer=tracer)
        # Outputs are dropped once compared: kept, they would make memory and
        # garbage-collection cost grow with the number of passes.
        outcome.record(workload.input_key(i), p.outputs)
        p.outputs = None
        return p

    try:
        run(0)
        start = time.perf_counter()
        i = 1
        while len(set(keys)) < workload.n_inputs or time.perf_counter() - start < seconds:
            passes.append(run(i))
            keys.append(workload.input_key(i))
            if traced:
                tracer = Tracer()
                traced_passes.append(run(i, tracer))
                layers.append(layer_metrics(tracer.spans, workload.n_queries))
                spans = tracer.spans
            i += 1
            if len(setup_times) < SETUPS and (
                    time.perf_counter() - start >= len(setup_times) * seconds / SETUPS):
                timed_setup(workload, setup_times)
        while len(setup_times) < SETUPS:
            timed_setup(workload, setup_times)
    except Exception:
        outcome.crashed()
    return outcome, passes, keys, traced_passes, layers, spans


def by_input(keys, samples) -> list[list]:
    """Group a run's samples by the input they were measured on."""
    groups: dict = {}
    for key, sample in zip(keys, samples):
        groups.setdefault(key, []).append(sample)
    return list(groups.values())


def typical(keys, samples) -> float:
    """A run's figure for a time measured once per pass.

    Passes on the same input do the same work, so their times differ only
    by the host; different inputs are different work. The figure is the
    median over inputs of each input's median over its passes.
    """
    return float(statistics.median(statistics.median(g) for g in by_input(keys, samples)))


def latency_ms(passes, keys) -> tuple[float, float]:
    """p50 and p99 over calls of each call's median latency, per input.

    A call is one query predicted on one input (one ``lambda_hat``), and
    every burst of every pass on that input repeats it. The median over
    repeats drops the host's interruptions, which hit one repeat of a call
    and not the others. Pooled, they would make up most of the p99 of calls
    that take a few microseconds; this way p99 is the latency of the queries
    that cost most. As for the other times, the figure is the median over
    inputs: a slow spell of the host that covers one input's passes does
    not move it, nor does the one input with the lowest ``lambda_hat``.
    """
    per_input = [np.percentile(np.median(np.vstack(g), axis=0), [50, 99])
                 for g in by_input(keys, [p.latencies_ms for p in passes])]
    p50, p99 = np.median(per_input, axis=0)
    return float(p50), float(p99)


def end_to_end(passes, keys, setup_times, peak_mb) -> dict:
    p50, p99 = latency_ms(passes, keys)
    return {
        "setup_s": statistics.median(setup_times),
        "trials_per_s": passes[0].trials / typical(keys, [p.trials_s for p in passes]),
        "calibrate_s": typical(keys, [p.calibrate_s for p in passes]),
        "predict_p50_ms": p50,
        "predict_p99_ms": p99,
        "chain_s": typical(keys, [p.pass_s for p in passes]),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, passes, keys, traced_passes, layers, setup_layers,
              setup_times) -> dict:
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["data.generate_s"] += setup_layers["data.generate_s"]
    out["cli.startup_s"] = statistics.median(setup_times) if workload.uses_cli else 0.0
    out["trace.overhead_ratio"] = (typical(keys, [p.pass_s for p in traced_passes])
                                   / typical(keys, [p.pass_s for p in passes]))
    return out


def main(argv=None) -> int:
    declared = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not declared.is_file() or not (src / "rankcal" / "__init__.py").is_file():
        print(f"error: {ROOT} has no BENCHMARK.json or no src/rankcal to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rankcal

    if Path(rankcal.__file__).resolve().parent != (src / "rankcal").resolve():
        print(f"error: imported rankcal from {rankcal.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads(declared.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size == "tiny", WORK)
    # Runs of another size or length (the smoke test's) keep their own files.
    run_name = f"{workload.name}-{args.size}-{args.seconds:g}s-seed{args.seed}-trace{args.trace}"
    record = run_record(args, workload)
    print("run record: " + json.dumps(record))

    try:
        setup_times = []
        timed_setup(workload, setup_times)
        if args.trace:
            tracer = Tracer()
            with installed(tracer):
                workload.setup()
            setup_layers = layer_metrics(tracer.spans, workload.n_queries)
        outcome, passes, keys, traced_passes, layers, spans = measure(
            workload, args.seconds, bool(args.trace), setup_times)
        peak_mb = peak_rss_mb(of_children=workload.uses_cli)
        outcome.check()
        if not passes:
            raise RuntimeError("no pass completed:\n" + "\n".join(outcome.problems))
        if args.trace:
            metrics = per_layer(workload, passes, keys, traced_passes, layers, setup_layers,
                                setup_times)
            write_spans(WORK / f"spans-{run_name}.csv", spans)
        else:
            metrics = end_to_end(passes, keys, setup_times, peak_mb)
    finally:
        workload.close()

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    n_lat = sum(p.latencies_ms.size for p in passes)
    print(f"{workload.name}: {len(passes)} passes, predict latency from {n_lat} calls")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'error_rate':40s} {outcome.failed / outcome.attempted:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    record["metrics"] = metrics
    record["passes"] = [{"pass_s": p.pass_s, "calibrate_s": p.calibrate_s,
                         "trials_per_s": p.trials / p.trials_s,
                         "predict_p50_ms": float(np.percentile(p.latencies_ms, 50)),
                         "predict_p99_ms": float(np.percentile(p.latencies_ms, 99))}
                        for p in passes]
    record["setup_s"] = setup_times
    (WORK / "runs").mkdir(exist_ok=True)
    (WORK / "runs" / f"{run_name}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
