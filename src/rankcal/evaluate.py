"""Repeated-split evaluation protocol: risk histograms, stratified risk, sweeps.

Each query is profiled once per dataset into one loss table, whose columns are
the thresholds ``[1.0, *grid]``. Each trial shuffles the dataset with its own
derived substream, walks the table rows of the first ``n_cal`` queries, and
reads the rest's set sizes, FDPs and diversity ratios at the selected column.
An alpha sweep shares one table. A diverse set is pruned when a walk or a test
split first reads it, and its diversity ratio is computed when a test split
first reads it. Repeating over many splits turns the per-run guarantee into an
observable: at most a ``delta``-fraction of trials should show test FDR above
``alpha`` (plus binomial slack from the finite trial count).

Set sizes are recorded for every test query by default, which strictly
dominates sampling a single uniform query per trial; the single-sample
variant is available via ``single_size_sample`` for protocol fidelity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .calibrate import CalibrationConfig, _loss_table, _walk
from .core import LabeledQuery, PredictionSet, item_scores, threshold_set
from .diversity import _checked_cap, _diversity_ratio
from .risk import MRule, derive_m, fdp

__all__ = [
    "TrialProtocol",
    "TrialRecord",
    "Stratum",
    "DiversityStats",
    "EvalReport",
    "SweepRow",
    "run_trials",
    "stratified_fdr",
    "relative_diversity_improvement",
    "sweep",
]

STRATUM_LABELS = ("Short", "Short-Medium", "Medium-Long", "Long")


@dataclass(frozen=True)
class TrialProtocol:
    """Repeated random-split experiment description."""

    n_cal: int
    config: CalibrationConfig
    trials: int = 100
    seed: int = 0
    single_size_sample: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.n_cal < 1:
            raise ValueError(f"n_cal must be >= 1, got {self.n_cal}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    lambda_hat: float
    stopped_reason: str
    test_fdr: float
    mean_set_size: float
    sampled_set_size: Optional[int]
    set_sizes: np.ndarray
    fdps: np.ndarray
    diversity_ratios: np.ndarray
    n_modified: int
    n_zero_denominator: int


@dataclass(frozen=True)
class Stratum:
    label: str
    size_lo: float
    size_hi: float
    count: int
    fdr: Optional[float]  # None marks an empty (undefined) stratum


@dataclass(frozen=True)
class DiversityStats:
    """Pooled effect of the diversity pruning across evaluated queries.

    ``mean_ratio`` averages pruned-over-unpruned diversity across modified
    sets (those whose thresholded set exceeded the cap), excluding -- and
    counting -- sets whose unpruned diversity is zero. None when nothing was
    modified.
    """

    mean_ratio: Optional[float]
    fraction_modified: float
    n_modified: int
    n_evaluated: int
    n_zero_denominator: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalReport:
    records: tuple[TrialRecord, ...]
    risk_hist: tuple[np.ndarray, np.ndarray]  # (counts, bin edges)
    size_hist: tuple[np.ndarray, np.ndarray]
    strata: tuple[Stratum, ...]
    diversity: Optional[DiversityStats]

    @property
    def mean_test_fdr(self) -> float:
        return float(np.mean([r.test_fdr for r in self.records]))

    def to_dict(self) -> dict:
        return {
            "trials": [
                {
                    "trial": r.trial,
                    "lambda_hat": r.lambda_hat,
                    "stopped_reason": r.stopped_reason,
                    "test_fdr": r.test_fdr,
                    "mean_set_size": r.mean_set_size,
                    "sampled_set_size": r.sampled_set_size,
                }
                for r in self.records
            ],
            "risk_hist": {
                "counts": self.risk_hist[0].tolist(),
                "edges": self.risk_hist[1].tolist(),
            },
            "size_hist": {
                "counts": self.size_hist[0].tolist(),
                "edges": self.size_hist[1].tolist(),
            },
            "strata": [asdict(s) for s in self.strata],
            "diversity": self.diversity.to_dict() if self.diversity else None,
            "mean_test_fdr": self.mean_test_fdr,
        }


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    mean_test_fdr: float
    mean_relative_diversity: Optional[float]
    fraction_modified: Optional[float]


def _split_marks(marked: np.ndarray) -> tuple[np.ndarray, int, int]:
    """``(ratios, n_modified, n_zero_denominator)``: a -1.0 mark is counted, not averaged."""
    ratios = marked[marked >= 0.0]
    return ratios, marked.size, marked.size - ratios.size


def _diversity_stats(ratios: np.ndarray, n_modified: int, n_zero: int, n_evaluated: int):
    return DiversityStats(mean_ratio=float(ratios.mean()) if ratios.size else None,
                          fraction_modified=n_modified / n_evaluated if n_evaluated else 0.0,
                          n_modified=n_modified, n_evaluated=n_evaluated,
                          n_zero_denominator=n_zero)


def _trial_table(data: Sequence[LabeledQuery], protocol: TrialProtocol):
    """The dataset's loss table, once ``n_cal`` is known to leave a test query."""
    if protocol.n_cal >= len(data):
        raise ValueError(
            f"n_cal={protocol.n_cal} must leave at least one test query "
            f"(dataset has {len(data)})"
        )
    return _loss_table(data, protocol.config)


def _run_one_trial(data, protocol: TrialProtocol, trial: int, table):
    config = protocol.config
    rng = np.random.default_rng(np.random.SeedSequence(protocol.seed, spawn_key=(trial,)))
    perm = rng.permutation(len(data))
    cal, test = perm[: protocol.n_cal], perm[protocol.n_cal :]

    result, col = _walk(table, cal, config)
    counts = table.sizes[test, col].astype(int)
    losses = table.losses(test, col)
    set_sizes, ratios, n_modified, n_zero = counts, np.array([]), 0, 0
    cap = config.max_items  # None exactly for the plain family, whose sets are never pruned
    if cap is not None:
        set_sizes = np.minimum(counts, cap)
        ratios, n_modified, n_zero = _split_marks(table.ratios(test[counts > cap], col))

    sampled = int(set_sizes[rng.integers(len(test))]) if protocol.single_size_sample else None
    return TrialRecord(
        trial=trial,
        lambda_hat=result.lambda_hat,
        stopped_reason=result.stopped_reason,
        test_fdr=float(losses.mean()),
        mean_set_size=float(set_sizes.mean()),
        sampled_set_size=sampled,
        set_sizes=set_sizes,
        fdps=losses,
        diversity_ratios=ratios,
        n_modified=n_modified,
        n_zero_denominator=n_zero,
    )


def run_trials(data: Sequence[LabeledQuery], protocol: TrialProtocol) -> EvalReport:
    """Run the repeated-split protocol and aggregate into an :class:`EvalReport`.

    Each query is profiled once, into one loss table for every trial. Trial
    ``t`` draws all its randomness from its own substream of
    ``(protocol.seed, t)``, so each trial's record depends only on that pair:
    the first trials of a longer run equal those of a shorter one.
    """
    return _run_trials(data, protocol, _trial_table(data, protocol))


def _run_trials(data: Sequence[LabeledQuery], protocol: TrialProtocol, table) -> EvalReport:
    records = [_run_one_trial(data, protocol, t, table) for t in range(protocol.trials)]

    risks = np.array([r.test_fdr for r in records])
    if protocol.single_size_sample:
        size_stat = np.array([r.sampled_set_size for r in records], dtype=float)
    else:
        size_stat = np.array([r.mean_set_size for r in records])
    risk_hist = np.histogram(risks, bins=20)
    size_hist = np.histogram(size_stat, bins=20)

    pooled_sizes = np.concatenate([r.set_sizes for r in records])
    pooled_fdps = np.concatenate([r.fdps for r in records])
    strata = _stratify(pooled_sizes, pooled_fdps)

    div_stats = None
    if protocol.config.family == "diverse":
        div_stats = _diversity_stats(np.concatenate([r.diversity_ratios for r in records]),
                                     sum(r.n_modified for r in records),
                                     sum(r.n_zero_denominator for r in records), pooled_sizes.size)
    return EvalReport(tuple(records), risk_hist, size_hist, tuple(strata), div_stats)


def _nearest_rank_quantile(sorted_values: np.ndarray, p: float) -> float:
    """Smallest order statistic with at least a p-fraction of the data at or below."""
    n = sorted_values.size
    if p <= 0.0:
        return float(sorted_values[0])
    return float(sorted_values[min(n, math.ceil(p * n)) - 1])


def _stratify(sizes: np.ndarray, losses: np.ndarray) -> list[Stratum]:
    order = np.sort(sizes)
    edges = [_nearest_rank_quantile(order, j / 4) for j in range(5)]
    # The first bin whose upper edge a size does not exceed: the first bin is
    # closed, later ones left-open, and the lowest index wins on tied edges.
    bins = np.searchsorted(edges[1:], sizes, side="left")
    strata = []
    for j in range(4):
        lo, hi = edges[j], edges[j + 1]
        member = bins == j
        count = int(member.sum())
        strata.append(
            Stratum(
                label=STRATUM_LABELS[j],
                size_lo=lo,
                size_hi=hi,
                count=count,
                fdr=float(losses[member].mean()) if count else None,
            )
        )
    return strata


def stratified_fdr(
    queries: Sequence[LabeledQuery],
    sets: Sequence[PredictionSet],
    m_rule: MRule,
) -> list[Stratum]:
    """Mean false discovery proportion within each set-size quartile.

    Bin edges are nearest-rank empirical quantiles of the set sizes; the
    first bin is closed on both ends and later bins are left-open, with every
    query assigned to the lowest-index bin containing its size -- a
    deterministic partition even under heavy ties. Empty bins report an
    undefined risk (None), never a fabricated zero.
    """
    if len(queries) < 4:
        raise ValueError(f"stratification needs at least 4 queries, got {len(queries)}")
    if len(sets) != len(queries):
        raise ValueError("one prediction set per query required")
    sizes = np.array([len(s) for s in sets])
    losses = np.array(
        [fdp(s, q.ranking, derive_m(q.k, m_rule)) for q, s in zip(queries, sets)]
    )
    return _stratify(sizes, losses)


def relative_diversity_improvement(
    queries: Sequence[LabeledQuery], lambda_hat: float, m_cap: int
) -> DiversityStats:
    """How much the size-capped pruning changes diversity at a fixed threshold.

    A query is *modified* when its thresholded set exceeds the cap; each
    modified query contributes the ratio of pruned to unpruned diversity.
    Zero-diversity denominators are excluded from the mean and counted.
    """
    m_cap = _checked_cap(m_cap)
    marked = []
    for q in queries:
        if q.embeddings is None:
            raise ValueError(f"query {q.query_id!r} has no embeddings")
        base = threshold_set(item_scores(q.scores), lambda_hat)
        if len(base) > m_cap:  # the embeddings were checked when q was built
            marked.append(_diversity_ratio(base, q.embeddings, m_cap))
    return _diversity_stats(*_split_marks(np.array(marked)), len(queries))


def sweep(
    param: str,
    values: Sequence[float],
    data: Sequence[LabeledQuery],
    protocol: TrialProtocol,
) -> list[SweepRow]:
    """Re-run the trial protocol for each value of ``alpha`` or ``max_items``.

    Every run shares the protocol's base seed, so rows differ only through
    the swept parameter. ``alpha`` moves only the walk, so an alpha sweep
    profiles each query once and shares one loss table; a ``max_items``
    sweep builds one table per cap.
    """
    if param not in ("alpha", "max_items"):
        raise ValueError(f"param must be 'alpha' or 'max_items', got {param!r}")
    if len(values) == 0:
        raise ValueError("sweep requires at least one value")
    rows = []
    table = _trial_table(data, protocol) if param == "alpha" else None
    for value in values:
        run = replace(protocol, config=replace(protocol.config, **{param: value}))
        report = _run_trials(data, run, table if table is not None else _trial_table(data, run))
        div = report.diversity
        rows.append(SweepRow(param=param, value=value, mean_test_fdr=report.mean_test_fdr,
                             mean_relative_diversity=div.mean_ratio if div else None,
                             fraction_modified=div.fraction_modified if div else None))
    return rows
