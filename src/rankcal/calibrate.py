"""Threshold calibration by fixed-sequence testing of FDR control.

The score threshold is selected on i.i.d. calibration queries by walking a
descending grid and testing, at each candidate, the null hypothesis that the
family's FDR exceeds the target ``alpha``. The test rejects when the upper
confidence bound on the mean false discovery proportion falls below
``alpha``. Because candidates are tested in a fixed predeclared order and
the walk stops at the first failure, no multiplicity correction is needed,
and the returned threshold controls FDR at level ``alpha`` except with
probability ``delta``.

The guarantee is agnostic to the set family: both the plain threshold family
and its diversity-pruned, size-capped variant are calibrated by the same
walk, with the pruning applied to every calibration point inside the loop.

Each query is profiled once into a loss table whose columns are the thresholds
``[1.0, *lambda_grid(d_lambda)]``; the walk reads only the columns it tests,
over every row for ``calibrate`` and over its calibration rows for a trial.
A diverse set above the cap is pruned only when a walk or a test split reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import LabeledQuery, PairwiseScores, PredictionSet, item_scores, threshold_set
from .core import _checked_embeddings
from .diversity import _greedy_prune, greedy_prune
from .risk import MRule, derive_m, fdp, get_bound

__all__ = [
    "CalibrationConfig",
    "TraceEntry",
    "CalibrationResult",
    "lambda_grid",
    "calibrate",
    "predict",
    "plain_family",
    "diverse_family",
]


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything the calibration walk needs besides the data.

    ``family`` selects the set-valued rule under calibration: ``"plain"``
    thresholds item scores; ``"diverse"`` additionally prunes each set to at
    most ``max_items`` members, greedily keeping the most diverse remainder.
    """

    alpha: float
    delta: float
    d_lambda: float = 0.01
    m_rule: MRule = field(default_factory=lambda: MRule.fraction(0.2))
    bound: str = "hoeffding"
    family: str = "plain"
    max_items: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.d_lambda < 1.0:
            raise ValueError(f"d_lambda must be in (0, 1), got {self.d_lambda}")
        if self.family not in ("plain", "diverse"):
            raise ValueError(f"family must be 'plain' or 'diverse', got {self.family!r}")
        if self.family == "diverse":
            cap = self.max_items
            if cap is None or not float(cap).is_integer() or cap < 1:
                raise ValueError(f"diverse family requires an integer max_items >= 1, got {cap!r}")
            object.__setattr__(self, "max_items", int(cap))
        elif self.max_items is not None:
            raise ValueError("max_items only applies to the diverse family")
        get_bound(self.bound)  # fail fast on unknown bounds


@dataclass(frozen=True)
class TraceEntry:
    """One grid step: threshold, mean FDP, its UCB, and the test outcome."""

    lam: float
    mean_fdp: float
    ucb: float
    rejected: bool


@dataclass(frozen=True)
class CalibrationResult:
    """Selected threshold plus the full audit trail of the walk.

    ``stopped_reason`` is ``"failed_to_reject"`` when the walk hit a grid
    point whose test failed (``lambda_hat`` is then the previous, larger
    threshold, or 1.0 if the very first test failed) and
    ``"exhausted_grid"`` when every candidate rejected (``lambda_hat`` is the
    smallest grid value).
    """

    lambda_hat: float
    trace: tuple[TraceEntry, ...]
    stopped_reason: str


def lambda_grid(d_lambda: float) -> np.ndarray:
    """Descending threshold candidates ``1 - t*d_lambda`` down to ``d_lambda``.

    Neither 0 nor 1 is ever tested; 1.0 is reserved as the never-rejected
    fallback. For the default step 0.01 this is 0.99, 0.98, ..., 0.01.
    """
    if not 0.0 < d_lambda < 1.0:
        raise ValueError(f"d_lambda must be in (0, 1), got {d_lambda}")
    steps = int(math.floor(1.0 / d_lambda - 1.0 + 1e-9))
    return 1.0 - d_lambda * np.arange(1, steps + 1)


def plain_family(query: LabeledQuery, lam: float) -> PredictionSet:
    """Threshold the query's item scores at ``lam``."""
    return threshold_set(item_scores(query.scores), lam)


def diverse_family(m_cap: int):
    """Set family that thresholds then prunes to at most ``m_cap`` diverse items."""

    def family(query: LabeledQuery, lam: float) -> PredictionSet:
        if query.embeddings is None:
            raise ValueError(f"query {query.query_id!r} has no embeddings")
        return greedy_prune(plain_family(query, lam), query.embeddings, m_cap)

    return family


def _query_loss_profile(query: LabeledQuery, config: CalibrationConfig):
    """Reduce one query to (ascending scores, FDP indexed by set size, score order).

    The thresholded set depends on ``lam`` only through how many scores reach
    it, and score ties are all-in or all-out, so caching the FDP per distinct
    count reproduces the per-threshold evaluation exactly. For the diverse
    family the counts above the cap are left NaN, for the loss table to prune
    on first read -- pruned sets are not nested, so each count is pruned on its own.
    """
    m = derive_m(query.k, config.m_rule)
    s = item_scores(query.scores)
    order = np.argsort(-s, kind="stable")
    false_by_position = query.ranking.ranks[order] > m
    false_prefix = np.concatenate(([0], np.cumsum(false_by_position)))
    sizes = np.arange(query.k + 1)
    fdp_by_count = false_prefix / np.maximum(sizes, 1)
    if config.family == "diverse":
        fdp_by_count[config.max_items + 1 :] = np.nan
    return np.sort(s), fdp_by_count, order


def _thresholds(d_lambda: float) -> np.ndarray:
    """The loss table's columns: the never-tested fallback 1.0, then the grid."""
    return np.concatenate(([1.0], lambda_grid(d_lambda)))


class _LossTable:
    """Each query's FDP by set size, and its set size at each threshold column.

    ``fdp_by_size`` is zero-padded to the largest K; ``sizes`` has one column per
    threshold of :func:`_thresholds` and the smallest unsigned dtype that holds K.
    NaN entries are filled by ``fill(row, size)`` when :meth:`losses` first reads them.
    """

    def __init__(self, fdp_by_size: np.ndarray, sizes: np.ndarray, fill=None):
        self.fdp_by_size, self.sizes, self._fill = fdp_by_size, sizes, fill

    def losses(self, rows: np.ndarray, col: int) -> np.ndarray:
        """The FDP at column ``col`` of each of ``rows``, in ``rows`` order; rows may repeat."""
        counts = self.sizes[rows, col]
        out = self.fdp_by_size[rows, counts]
        if self._fill is not None:
            for i in np.flatnonzero(np.isnan(out)):
                row, count = rows[i], counts[i]
                if np.isnan(self.fdp_by_size[row, count]):  # a repeated row fills once
                    self.fdp_by_size[row, count] = self._fill(row, count)
                out[i] = self.fdp_by_size[row, count]
        if not np.isfinite(out).all():  # FDPs lie in [0, 1]; a NaN would compare false with alpha
            raise RuntimeError(f"non-finite loss in column {col}: the loss table missed a fill")
        return out


def _loss_table(data: Sequence[LabeledQuery], config: CalibrationConfig) -> _LossTable:
    """Profile each query once; a diverse entry is pruned when it is first read."""
    if len(data) == 0:
        raise ValueError("calibration requires at least one query")
    missing = [q.query_id for q in data if config.family == "diverse" and q.embeddings is None]
    if missing:
        raise ValueError(f"diverse family requires embeddings; query {missing[0]!r} has none")
    thresholds = _thresholds(config.d_lambda)
    k_max = max(q.k for q in data)
    fdp_by_size = np.zeros((len(data), k_max + 1))
    sizes = np.empty((len(data), thresholds.size), dtype=np.min_scalar_type(k_max))
    orders = np.zeros((len(data), k_max), dtype=sizes.dtype)
    for row, query in enumerate(data):
        scores_asc, fdp_by_count, order = _query_loss_profile(query, config)
        fdp_by_size[row, : query.k + 1] = fdp_by_count
        orders[row, : query.k] = order
        sizes[row] = query.k - np.searchsorted(scores_asc, thresholds, side="left")

    def pruned_fdp(row, count):  # FDP of the query's top-``count`` items, pruned
        query, members = data[row], PredictionSet((np.sort(orders[row, :count]) + 1).tolist())
        pruned = _greedy_prune(members, query.embeddings, config.max_items)
        return fdp(pruned, query.ranking, derive_m(query.k, config.m_rule))

    return _LossTable(fdp_by_size, sizes, pruned_fdp if config.family == "diverse" else None)


def _walk(table, rows: np.ndarray, config: CalibrationConfig) -> tuple[CalibrationResult, int]:
    """The fixed-sequence test down the grid over the loss ``table``'s ``rows``.

    Each tested column's losses are read as a 1-D array in ``rows`` order.
    Returns the result and ``lambda_hat``'s table column (0 for the 1.0 fallback).
    """
    thresholds = _thresholds(config.d_lambda).tolist()
    bound_fn = get_bound(config.bound)
    trace: list[TraceEntry] = []
    for col in range(1, len(thresholds)):
        losses = table.losses(rows, col)
        ucb = bound_fn(losses, config.delta)
        rejected = ucb < config.alpha
        trace.append(TraceEntry(thresholds[col], float(losses.mean()), float(ucb), rejected))
        if not rejected:
            return CalibrationResult(thresholds[col - 1], tuple(trace), "failed_to_reject"), col - 1
    # A step above 0.5 gives an empty grid: nothing is tested, and 1.0 is the fallback.
    reason = "exhausted_grid" if trace else "failed_to_reject"
    return CalibrationResult(thresholds[-1], tuple(trace), reason), len(trace)


def calibrate(data: Sequence[LabeledQuery], config: CalibrationConfig) -> CalibrationResult:
    """Select the smallest grid threshold whose FDR test still rejects.

    Walks the grid from the largest candidate downward. At each threshold the
    per-query false discovery proportions of the configured family feed the
    configured bound; the null "FDR > alpha" is rejected iff the bound falls
    below ``alpha``. The walk stops at the first failure and backtracks one
    step. Deterministic: identical data and config give an identical result.
    """
    return _walk(_loss_table(data, config), np.arange(len(data)), config)[0]


def predict(
    query: Union[LabeledQuery, PairwiseScores],
    lambda_hat: float,
    config: CalibrationConfig,
    embeddings=None,
) -> PredictionSet:
    """Produce the calibrated set for a new query at the selected threshold.

    Accepts a full :class:`LabeledQuery` (embeddings taken from it) or a bare
    :class:`PairwiseScores` for unlabeled test points, with ``embeddings``
    passed separately when the diverse family is in use; embeddings passed
    separately must have one row per item. The guarantee only transfers when
    ``lambda_hat`` came from a calibration run with this exact family and cap.
    """
    scores = query.scores if isinstance(query, LabeledQuery) else query
    if embeddings is not None:
        embeddings = _checked_embeddings(embeddings, scores.k)
    elif isinstance(query, LabeledQuery):
        embeddings = query.embeddings  # checked when the query was built
    base = threshold_set(item_scores(scores), lambda_hat)
    if config.family == "plain":
        return base
    if embeddings is None:
        raise ValueError("diverse family requires embeddings")
    return _greedy_prune(base, embeddings, config.max_items)
