"""In-memory span tracer that wraps rankcal's public functions from outside.

The library carries no instrumentation of its own, so the traced run swaps
each public function listed in ``TARGETS`` for a timing wrapper. The swap
covers every ``rankcal`` module that imported the function by name (the
callers), not only the module that defines it. Spans stay in memory; the
caller turns them into per-module metrics and writes them out at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (defining module, function name, span name). Looked up through sys.modules:
# the package attribute ``rankcal.calibrate`` is the function, not the module.
TARGETS = (
    ("rankcal.core", "item_scores", "core.item_scores"),
    ("rankcal.calibrate", "calibrate", "calibrate.calibrate"),
    ("rankcal.calibrate", "predict", "calibrate.predict"),
    ("rankcal.evaluate", "run_trials", "evaluate.run_trials"),
    ("rankcal.diversity", "greedy_prune", "diversity.greedy_prune"),
    ("rankcal.diversity", "diversity", "diversity.diversity"),
    ("rankcal.risk", "fdp", "risk.fdp"),
    ("rankcal.data", "generate_synthetic", "data.generate"),
    ("rankcal.data", "load_dataset", "data.load"),
    ("rankcal.data", "write_dataset", "data.write"),
    ("rankcal.data", "write_predictions_csv", "data.write"),
    ("rankcal.data", "write_trials_csv", "data.write"),
    ("rankcal.data", "write_strata_csv", "data.write"),
    ("rankcal.data", "write_report_json", "data.write"),
)

# Spans whose arguments and result are kept for post-processing, so that
# no bookkeeping runs inside a timed span.
KEEP_CALLS = {"calibrate.calibrate", "diversity.greedy_prune", "data.load", "data.write"}

NAME, START, END, PARENT, CHILD_S, CALL = range(6)


class Tracer:
    """Records spans as ``[name, start, end, parent index, child seconds, call]``.

    ``child seconds`` accumulates the durations of direct children; calls are
    single-threaded and strictly nested, so a span's self time is its
    duration minus that sum.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        """Let the patched functions run unrecorded, for the harness's own calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        keep = name in KEEP_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span[CALL] = (args, kwargs, result)
            return result

        return traced

    def wrap_bound_lookup(self, get_bound):
        """``get_bound`` whose returned bound functions are traced as ``risk.bound``."""
        wrapped = {}

        @functools.wraps(get_bound)
        def traced_get_bound(name):
            fn = get_bound(name)
            if fn not in wrapped:
                wrapped[fn] = self.wrap("risk.bound", fn)
            return wrapped[fn]

        return traced_get_bound


def _rankcal_modules():
    return [m for n, m in list(sys.modules.items()) if n == "rankcal" or n.startswith("rankcal.")]


@contextmanager
def installed(tracer: Tracer):
    """Patch every caller's name for each target; restore them on exit."""
    replacements = [
        (getattr(sys.modules[mod], func), func, tracer.wrap(span, getattr(sys.modules[mod], func)))
        for mod, func, span in TARGETS
    ]
    get_bound = sys.modules["rankcal.risk"].get_bound
    replacements.append((get_bound, "get_bound", tracer.wrap_bound_lookup(get_bound)))
    saved = []
    try:
        for original, func, wrapped in replacements:
            for module in _rankcal_modules():
                if module.__dict__.get(func) is original:
                    saved.append((module, func, original))
                    setattr(module, func, wrapped)
        yield tracer
    finally:
        for module, func, original in reversed(saved):
            setattr(module, func, original)


def write_spans(path, spans) -> None:
    """One CSV row per span: index, name, start, end, parent, self seconds."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("index,name,start_s,end_s,parent,self_s\n")
        t0 = spans[0][START] if spans else 0.0
        for i, s in enumerate(spans):
            self_s = s[END] - s[START] - s[CHILD_S]
            f.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},{s[PARENT]},{self_s:.9f}\n")


def _call_arg(call, index: int, name: str):
    args, kwargs = call[0], call[1]
    return args[index] if len(args) > index else kwargs.get(name)


def _useful_prunes(data, config, result) -> int:
    """Profile prunes at a set size that some tested grid column reaches.

    Calibration prunes every count above the cap for every query; only the
    counts that the walk's tested thresholds select can change its outcome.
    """
    if config.family != "diverse":
        return 0
    item_scores = sys.modules["rankcal.core"].item_scores
    tested = np.array([entry.lam for entry in result.trace])
    useful = 0
    for q in data:
        counts = q.k - np.searchsorted(np.sort(item_scores(q.scores)), tested, side="left")
        useful += len({int(c) for c in counts if c > config.max_items})
    return useful


def layer_metrics(spans, n_queries: int) -> dict[str, float]:
    """Per-module counts and times for one traced pass.

    Must run before the pass's output files are overwritten: written and
    loaded byte counts are read from the files themselves.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    trials_s = calibrate_in_trials_s = 0.0
    walk_steps = items_in = profile_prunes = useful = 0
    loaded = written = 0
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - s[CHILD_S]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "evaluate.run_trials":
            trials_s += dur
        elif name == "calibrate.calibrate":
            result = s[CALL][2]
            walk_steps += len(result.trace)
            useful += _useful_prunes(_call_arg(s[CALL], 0, "data"),
                                     _call_arg(s[CALL], 1, "config"), result)
            if parent == "evaluate.run_trials":
                calibrate_in_trials_s += dur
        elif name == "diversity.greedy_prune":
            items_in += len(_call_arg(s[CALL], 0, "pred"))
            if parent == "calibrate.calibrate":
                profile_prunes += 1
        elif name == "data.load":
            loaded += sum(os.path.getsize(p) for p in s[CALL][0] if p)
        elif name == "data.write":
            result = s[CALL][2]
            targets = result.values() if isinstance(result, dict) else [s[CALL][0][0]]
            written += sum(os.path.getsize(t) for t in targets if isinstance(t, (str, Path)))

    def per(name):
        return {f"{name}.calls": calls.get(name, 0), f"{name}.self_s": self_s.get(name, 0.0)}

    load_s = total.get("data.load", 0.0)
    return {
        **per("core.item_scores"),
        "core.item_scores.calls_per_query": calls.get("core.item_scores", 0) / n_queries,
        **per("calibrate.calibrate"),
        "calibrate.walk_steps": walk_steps,
        **per("calibrate.predict"),
        "evaluate.run_trials.self_s": self_s.get("evaluate.run_trials", 0.0),
        "evaluate.test_side_s": trials_s - calibrate_in_trials_s,
        "evaluate.calibrate_share": calibrate_in_trials_s / trials_s if trials_s else 0.0,
        **per("diversity.greedy_prune"),
        "diversity.greedy_prune.items_in": items_in,
        "diversity.greedy_prune.useful_ratio": useful / profile_prunes if profile_prunes else 0.0,
        **per("diversity.diversity"),
        **per("risk.fdp"),
        **per("risk.bound"),
        "data.generate_s": total.get("data.generate", 0.0),
        "data.write_s": total.get("data.write", 0.0),
        "data.load_s": load_s,
        "data.load_mb_per_s": loaded / 1e6 / load_s if load_s else 0.0,
        "data.bytes_written": written,
        **{f"cli.{cmd}_s": total.get(f"cli.{cmd}", 0.0)
           for cmd in ("synth", "calibrate", "predict", "evaluate")},
    }
