"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
*passes*: closed-loop chains of library or CLI calls, each call starting
only after the previous one returned, in one process (``n_jobs=1``). A pass
returns its outputs, which the runner compares with the first pass on the
same inputs and hands once to ``check`` for the reference comparison.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rankcal as rc
import rankcal.cli
from checks import check_calibration, check_sets, check_sweep

clock = time.perf_counter


@dataclass
class Pass:
    outputs: object
    pass_s: float
    calibrate_s: float
    trials: int
    trials_s: float
    latencies_ms: np.ndarray  # one row per burst of predicts, one column per query


def derived_seed(*keys: int) -> int:
    """An independent generator seed for one part of a workload's inputs."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def timed_predicts(queries, lambda_hat: float, config):
    """Predict one query at a time; return the sets and per-call latency in ms."""
    sets = [None] * len(queries)  # no list growth inside the timed calls
    lat = np.empty(len(queries))
    for j, q in enumerate(queries):
        t0 = clock()
        pred = rc.predict(q, lambda_hat, config)
        lat[j] = clock() - t0
        sets[j] = pred
    return sets, lat * 1e3


class Workload:
    uses_cli = False  # peak memory is then the largest child's, not this process's
    n_inputs = 1  # distinct inputs, the values of ``input_key``; a run measures each

    def input_key(self, i: int) -> int:
        """Passes with equal keys run on equal inputs and must give equal outputs."""
        return 0

    def close(self) -> None:
        pass


class SweepPlain(Workload):
    """Repeated-split protocol: ``sweep`` over alpha, plain family, K = 3..8.

    A pass is one ``sweep`` (``trials`` splits per alpha), then one
    ``calibrate`` on the first ``n_cal`` queries and ``predict`` on the rest.
    """

    name = "sweep-plain"
    alphas = (0.2, 0.3, 0.4)

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.n_queries, self.n_cal, self.trials = (300, 100, 1) if tiny else (6000, 2000, 2)
        self.config = rc.CalibrationConfig(alpha=0.3, delta=0.1)
        self.protocol = rc.TrialProtocol(n_cal=self.n_cal, config=self.config,
                                         trials=self.trials, seed=seed)
        self.ops_per_pass = 2 + self.n_queries - self.n_cal
        self.data = None

    def setup(self) -> None:
        self.data = None
        self.data = rc.generate_synthetic(rc.SyntheticSpec(
            seed=self.seed, n_queries=self.n_queries, k_min=3, k_max=8, embedding_dim=None))

    def run_pass(self, i: int, in_process: bool = False, tracer=None) -> Pass:
        cal, test = self.data[: self.n_cal], self.data[self.n_cal:]
        t0 = clock()
        rows = rc.sweep("alpha", self.alphas, self.data, self.protocol)
        t1 = clock()
        result = rc.calibrate(cal, self.config)
        t2 = clock()
        sets, lat = timed_predicts(test, result.lambda_hat, self.config)
        t3 = clock()
        return Pass((rows, result, sets), t3 - t0, t2 - t1,
                    len(self.alphas) * self.trials, t1 - t0, lat)

    def check(self, key: int, outputs) -> list[str]:
        rows, result, sets = outputs
        cal, test = self.data[: self.n_cal], self.data[self.n_cal:]
        return (check_sweep(rows, self.alphas, self.data, self.protocol)
                + check_calibration(result, cal, self.config, "calibrate")
                + check_sets(sets, test, result.lambda_hat, self.config, "predict"))


class DiverseLargeK(Workload):
    """Diverse family, cap 5, K = 50..100: ``calibrate`` then ``predict``.

    A pass calibrates on one of ``n_splits`` calibration sets, cycling, and
    predicts every held-out query, in ``bursts`` bursts one after the other.
    Each calibration set has one query per evenly spaced K, and the held-out
    set the same number of queries at every K, so the profile and prune work
    is the same whatever the seed.
    """

    name = "diverse-largek"

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.k_min, self.k_max = (8, 16) if tiny else (50, 100)
        # The predict cost falls steeply as lambda_hat rises, and lambda_hat
        # changes from split to split. A sharper model (noise 0.25) makes the
        # FDP curve steeper, so lambda_hat varies less between splits. Every
        # run calibrates on each split at least once, so that its figures,
        # medians over the splits, cover the same lambda_hats whatever the
        # host's speed. A call's latency is its median over the bursts.
        self.n_cal, self.per_k, self.n_splits = (20, 12, 2) if tiny else (20, 20, 6)
        self.n_test = self.per_k * (self.k_max - self.k_min + 1)
        self.n_inputs, self.bursts = self.n_splits, 3
        self.noise = 0.25
        self.config = rc.CalibrationConfig(alpha=0.35, delta=0.1, family="diverse", max_items=5)
        self.n_queries = self.n_cal + self.n_test  # distinct queries one pass touches
        self.ops_per_pass = 1 + self.bursts * self.n_test
        self.cal_sets = self.test = None

    def _queries(self, n: int, k: int, *keys: int) -> list[rc.LabeledQuery]:
        spec = rc.SyntheticSpec(seed=derived_seed(self.seed, *keys), n_queries=n,
                                k_min=k, k_max=k, noise=self.noise)
        return rc.generate_synthetic(spec)

    def setup(self) -> None:
        self.cal_sets = self.test = None
        ks = np.linspace(self.k_min, self.k_max, self.n_cal).round().astype(int)
        self.cal_sets = [[self._queries(1, int(k), 1, split, j)[0] for j, k in enumerate(ks)]
                         for split in range(self.n_splits)]
        self.test = [q for k in range(self.k_min, self.k_max + 1)
                     for q in self._queries(self.per_k, k, 2, k)]

    def input_key(self, i: int) -> int:
        return i % self.n_splits

    def run_pass(self, i: int, in_process: bool = False, tracer=None) -> Pass:
        t0 = clock()
        result = rc.calibrate(self.cal_sets[self.input_key(i)], self.config)
        t1 = clock()
        bursts = [timed_predicts(self.test, result.lambda_hat, self.config)
                  for _ in range(self.bursts)]
        t2 = clock()
        return Pass((result, [sets for sets, _ in bursts]), t2 - t0, t1 - t0, 1, t2 - t0,
                    np.vstack([lat for _, lat in bursts]))

    def check(self, key: int, outputs) -> list[str]:
        result, sets = outputs
        what = f"calibration set {key}"
        problems = check_calibration(result, self.cal_sets[key], self.config, what)
        if any(burst != sets[0] for burst in sets[1:]):
            problems.append(f"predict, {what}: the bursts of one pass disagree")
        return problems + check_sets(sets[0], self.test, result.lambda_hat, self.config,
                                     f"predict, {what}")


class CliChain(Workload):
    """``synth -> calibrate --diverse -> predict --manifest -> evaluate --diverse``.

    Each command runs as a subprocess, as users run it; the traced run calls
    ``rankcal.cli.main`` in process instead so its modules can be traced.
    After each command from calibrate on, the library ``predict`` is timed
    per query on the chain's data: that is the call the predict command
    makes per query.
    """

    name = "cli-chain"
    uses_cli = True
    commands = ("synth", "calibrate", "predict", "evaluate")

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.n_queries, self.n_cal, self.trials = (60, 30, 2) if tiny else (1000, 500, 4)
        # At alpha 0.4, 8 to 11% of the queries' sets exceed the cap and are
        # pruned, for every seed. At the default 0.3 that share is 0.5 to 2%,
        # so predict_p99_ms would flip between the pruned and unpruned calls.
        self.config = rc.CalibrationConfig(alpha=0.4, delta=0.1, family="diverse", max_items=3)
        self.ops_per_pass = len(self.commands) + 3 * self.n_queries
        self.work = work / self.name
        self.src = Path(rc.__file__).resolve().parents[1]
        self.data = None

    def _env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "RANKCAL_OUT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        return env

    def _subprocess(self, argv: list[str]) -> bytes:
        done = subprocess.run([sys.executable, "-m", "rankcal", *argv], env=self._env(),
                              capture_output=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"rankcal {argv[0]} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace').strip()}")
        return done.stdout

    def _in_process(self, argv: list[str]) -> bytes:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rankcal.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rankcal {argv[0]} returned {code}: {err.getvalue().strip()}")
        return out.getvalue().encode()

    def setup(self) -> None:
        """Start the interpreter once with rankcal imported: every command pays this.

        Runs again between passes, so it leaves the chain's files alone; each
        pass clears them before it starts.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        if self._subprocess(["--version"]) != f"rankcal {rc.__version__}\n".encode():
            raise RuntimeError("rankcal --version printed an unexpected version")

    @property
    def paths(self) -> dict[str, str]:
        return {kind: str(self.work / f"synth.{kind}.txt")
                for kind in ("scores", "rankings", "embeddings")}

    def argv(self, command: str) -> list[str]:
        data = [arg for kind, path in self.paths.items() for arg in (f"--{kind}", path)]
        family = ["--alpha", repr(self.config.alpha), "--diverse",
                  "--max-items", str(self.config.max_items)]
        out = ["--out", str(self.work)]
        return {
            "synth": ["synth", "--seed", str(self.seed), "--queries", str(self.n_queries),
                      "--k-min", "3", "--k-max", "8", "--dim", "8", *out],
            "calibrate": ["calibrate", *data, *family, *out],
            "predict": ["predict", *data, *family,
                        "--manifest", str(self.work / "calibrate.manifest.json"), *out],
            "evaluate": ["evaluate", *data, *family, "--ncal", str(self.n_cal),
                         "--trials", str(self.trials), "--seed", str(self.seed), *out],
        }[command]

    def _sample_latency(self):
        """Time the library ``predict`` per query on the chain's data at its threshold."""
        if self.data is None:
            self.data = rc.load_dataset(*self.paths.values())
        with open(self.work / "calibrate.manifest.json", encoding="utf-8") as f:
            lambda_hat = json.load(f)["lambda_hat"]
        return timed_predicts(self.data, lambda_hat, self.config)

    def run_pass(self, i: int, in_process: bool = False, tracer=None) -> Pass:
        for path in self.work.iterdir():
            path.unlink()
        run = self._in_process if in_process or tracer is not None else self._subprocess
        stdout, wall, bursts = {}, {}, []
        for command in self.commands:
            t0 = clock()
            with tracer.span(f"cli.{command}") if tracer else nullcontext():
                stdout[command] = run(self.argv(command))
            wall[command] = clock() - t0
            if command != "synth":
                # Sampled after calibrate, predict and evaluate, to spread the
                # samples over the pass: shared CPUs change speed within a second.
                # Untraced, so the per-module figures cover only the commands.
                with tracer.paused() if tracer else nullcontext():
                    bursts.append(self._sample_latency())
        files = {p.name: p.read_bytes() for p in sorted(self.work.iterdir())}
        return Pass((stdout, files, [sets for sets, _ in bursts]), sum(wall.values()),
                    wall["calibrate"], self.trials, wall["evaluate"],
                    np.vstack([lat for _, lat in bursts]))

    def check(self, key: int, outputs) -> list[str]:
        stdout, files, sets = outputs
        data = rc.load_dataset(*self.paths.values())
        problems = []
        spec = rc.SyntheticSpec(seed=self.seed, n_queries=self.n_queries, k_min=3, k_max=8,
                                embedding_dim=8)
        if data != rc.generate_synthetic(spec):
            problems.append("synth: written dataset differs from generate_synthetic")
        if stdout["synth"] != "".join(f"{p}\n" for p in self.paths.values()).encode():
            problems.append(f"synth: stdout {stdout['synth']!r}")

        result = rc.calibrate(data, self.config)
        if stdout["calibrate"] != f"{result.lambda_hat!r}\n".encode():
            problems.append(f"calibrate: stdout {stdout['calibrate']!r}, "
                            f"library {result.lambda_hat!r}")
        problems += check_calibration(result, data, self.config, "cli calibrate")

        if any(burst != sets[0] for burst in sets[1:]):
            problems.append("library predict: the latency samples of one pass disagree")
        sets = sets[0]
        problems += check_sets(sets, data, result.lambda_hat, self.config, "library predict")
        rows = [line.split(",") for line in files["predictions.csv"].decode().splitlines()[2:]]
        m_rule = self.config.m_rule
        want = [[q.query_id, " ".join(map(str, s.items)), str(len(s)),
                 repr(rc.fdp(s, q.ranking, rc.derive_m(q.k, m_rule)))]
                for q, s in zip(data, sets)]
        if rows != want:
            problems.append("predict: predictions.csv differs from the library's sets and FDPs")

        report = json.loads(files["report.json"])
        report.pop("manifest", None)
        protocol = rc.TrialProtocol(n_cal=self.n_cal, config=self.config, trials=self.trials,
                                    seed=self.seed)
        if report != json.loads(json.dumps(rc.run_trials(data, protocol).to_dict())):
            problems.append("evaluate: report.json differs from the library's run_trials")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepPlain, DiverseLargeK, CliChain)}
