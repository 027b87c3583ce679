"""Reference checks that every benchmark output must pass.

They run outside the timed region and use the library's reference path:
``empirical_fdr`` over ``plain_family``/``diverse_family`` scored with
``hoeffding_ucb``, one grid column at a time, which is what the fast
per-query loss profiles inside ``calibrate`` must reproduce.
Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import rankcal as rc

# Means are summed in a different order on the fast path (numpy pairwise vs
# left-to-right), so they agree to rounding, not bit for bit.
TOL = 1e-12


def family_fn(config: rc.CalibrationConfig):
    return rc.plain_family if config.family == "plain" else rc.diverse_family(config.max_items)


def reference_walk(data, config: rc.CalibrationConfig, means: dict | None = None):
    """The fixed-sequence walk done by hand: ``(lambda_hat, stopped_reason, entries)``.

    ``means`` caches the mean FDP per grid column for one data set, so walks
    at several ``alpha`` on the same split share the work.
    """
    means = {} if means is None else means
    family = family_fn(config)
    entries = []
    last = None
    for col, lam in enumerate(rc.lambda_grid(config.d_lambda)):
        if col not in means:
            means[col] = rc.empirical_fdr(float(lam), data, config.m_rule, family)
        ucb = rc.hoeffding_ucb(means[col], len(data), config.delta)
        entries.append((float(lam), means[col], ucb, ucb < config.alpha))
        if not ucb < config.alpha:
            return (1.0 if last is None else last), "failed_to_reject", entries
        last = float(lam)
    if last is None:
        return 1.0, "failed_to_reject", entries
    return last, "exhausted_grid", entries


def check_calibration(result: rc.CalibrationResult, data, config, what: str) -> list[str]:
    """Compare ``lambda_hat`` and every tested column with the reference walk."""
    lam, reason, entries = reference_walk(data, config)
    problems = []
    if (result.lambda_hat, result.stopped_reason) != (lam, reason):
        problems.append(f"{what}: lambda_hat={result.lambda_hat!r} ({result.stopped_reason}), "
                        f"reference {lam!r} ({reason})")
    if len(result.trace) != len(entries):
        problems.append(f"{what}: walk tested {len(result.trace)} columns, reference {len(entries)}")
    for got, (ref_lam, ref_mean, ref_ucb, ref_rejected) in zip(result.trace, entries):
        if (got.lam != ref_lam or got.rejected != ref_rejected
                or not math.isclose(got.mean_fdp, ref_mean, rel_tol=0.0, abs_tol=TOL)
                or not math.isclose(got.ucb, ref_ucb, rel_tol=0.0, abs_tol=TOL)):
            problems.append(f"{what}: column {got.lam!r} is {got}, reference "
                            f"mean={ref_mean!r} ucb={ref_ucb!r} rejected={ref_rejected}")
            break
    return problems


def check_sets(sets, queries, lambda_hat: float, config, what: str) -> list[str]:
    """Each predicted set must be the calibrated family's set at ``lambda_hat``."""
    if len(sets) != len(queries):
        return [f"{what}: {len(sets)} sets for {len(queries)} queries"]
    family = family_fn(config)
    for got, q in zip(sets, queries):
        want = family(q, lambda_hat)
        if got != want:
            return [f"{what}: query {q.query_id} got {got.items}, reference {want.items}"]
    return []


def trial_split(data, protocol, trial: int):
    """The calibration/test split of one protocol trial (seeded per trial)."""
    rng = np.random.default_rng(np.random.SeedSequence(protocol.seed, spawn_key=(trial,)))
    perm = rng.permutation(len(data))
    return [data[j] for j in perm[: protocol.n_cal]], [data[j] for j in perm[protocol.n_cal:]]


def check_sweep(rows, values, data, protocol) -> list[str]:
    """Recompute each row's mean test FDR trial by trial on the reference path."""
    per_value = {v: [] for v in values}
    for trial in range(protocol.trials):
        cal, test = trial_split(data, protocol, trial)
        means: dict = {}
        for v in values:
            config = replace(protocol.config, alpha=float(v))
            lam, _, _ = reference_walk(cal, config, means)
            per_value[v].append(rc.empirical_fdr(lam, test, config.m_rule, family_fn(config)))
    problems = []
    if [r.value for r in rows] != list(values):
        problems.append(f"sweep: row values {[r.value for r in rows]} != {list(values)}")
    for row in rows:
        want = float(np.mean(per_value.get(row.value, [math.nan])))
        if not math.isclose(row.mean_test_fdr, want, rel_tol=0.0, abs_tol=TOL):
            problems.append(f"sweep: alpha={row.value} mean_test_fdr={row.mean_test_fdr!r}, "
                            f"reference {want!r}")
    return problems
