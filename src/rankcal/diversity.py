"""Embedding diversity of prediction sets and size-capped diverse pruning.

Diversity of a set is the sum of pairwise Euclidean distances between its
members' embeddings divided by ``max(m_cap, |set|)``: it grows as items are
added up to the cap, after which only average spread matters. The metric is
intentionally behind a plain function contract -- any other set diversity
measure could be swapped in without touching the calibration machinery.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import PredictionSet, _checked_embeddings

__all__ = ["diversity", "greedy_prune", "exhaustive_prune"]

_EXHAUSTIVE_GUARD = 20


def _checked_for(pred: PredictionSet, embeddings: np.ndarray) -> np.ndarray:
    """Checked embeddings that hold a row for every member of ``pred``."""
    mat = _checked_embeddings(embeddings)
    if len(pred) and pred.items[-1] > mat.shape[0]:
        raise ValueError(f"item index {pred.items[-1]} exceeds embedding count {mat.shape[0]}")
    return mat


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def diversity(pred: PredictionSet, embeddings: np.ndarray, m_cap: int) -> float:
    """Sum of pairwise member distances over ``max(m_cap, |pred|)``.

    Empty and singleton sets have no pairs and score 0.
    """
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    return _diversity(pred, _checked_for(pred, embeddings), m_cap)


def _diversity(pred: PredictionSet, embeddings: np.ndarray, m_cap: int) -> float:
    """:func:`diversity` on trusted input, as :func:`_greedy_prune` is to :func:`greedy_prune`."""
    pts = embeddings[pred.as_array() - 1]
    n = pts.shape[0]
    if n <= 1:
        return 0.0
    dist = _distance_matrix(pts)
    total = float(dist[np.triu_indices(n, k=1)].sum())
    return total / max(m_cap, n)


def greedy_prune(pred: PredictionSet, embeddings: np.ndarray, m_cap: int) -> PredictionSet:
    """Shrink a set to at most ``m_cap`` items, one removal at a time.

    Each step drops the element whose removal leaves the most diverse
    remainder (the element contributing least); on ties the smallest item
    index is dropped.

    Each removal sums the rows of the remaining members' distance matrix, scores
    every candidate from those sums, and copies the matrix without the dropped row
    and column: O(s^2) time and memory per removal.
    """
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    return _greedy_prune(pred, _checked_for(pred, embeddings), m_cap)


def _greedy_prune(pred: PredictionSet, embeddings: np.ndarray, m_cap: int) -> PredictionSet:
    """:func:`greedy_prune` without its checks or copy: ``m_cap >= 1``, and ``embeddings``
    already checked (a :class:`LabeledQuery`'s own) with a row for every member.
    """
    if len(pred) <= m_cap:
        return pred
    items = pred.as_array()
    dist = _distance_matrix(embeddings[items - 1])
    while items.size > m_cap:
        rowsums = dist.sum(axis=1)
        total = float(rowsums.sum()) / 2.0
        denom = max(m_cap, items.size - 1)
        remainder_div = (total - rowsums) / denom
        t = int(np.argmax(remainder_div))
        keep = np.arange(items.size) != t
        items = items[keep]
        dist = dist[np.ix_(keep, keep)]
    return PredictionSet(items.tolist())


def exhaustive_prune(pred: PredictionSet, embeddings: np.ndarray, m_cap: int) -> PredictionSet:
    """Exact argmax-diversity subset of size at most ``m_cap`` (test oracle).

    Because every subset within the cap is divided by the same ``m_cap``,
    diversity is nondecreasing in members up to the cap, so the maximum is
    attained at size ``min(|pred|, m_cap)``; only those subsets are
    enumerated, in lexicographic order, keeping the first maximizer. Guarded
    to ``|pred| <= 20`` -- the search is combinatorial.
    """
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    if len(pred) > _EXHAUSTIVE_GUARD:
        raise ValueError(
            f"exhaustive search limited to sets of size <= {_EXHAUSTIVE_GUARD}, got {len(pred)}"
        )
    if len(pred) <= m_cap:
        return pred
    items = pred.as_array()
    dist = _distance_matrix(_checked_for(pred, embeddings)[items - 1])
    best_combo = None
    best_div = -1.0
    for combo in combinations(range(items.size), m_cap):
        sub = dist[np.ix_(combo, combo)]
        div = float(sub[np.triu_indices(m_cap, k=1)].sum()) / m_cap
        if div > best_div:
            best_div = div
            best_combo = combo
    return PredictionSet(items[list(best_combo)].tolist())
