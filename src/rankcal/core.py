"""Core domain types for pairwise ranking models and threshold prediction sets.

Items within a query are identified by 1-based indices 1..K throughout;
``ranks[j-1]`` is the true rank of item ``j`` (1 = most relevant).
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "PairwiseScores",
    "Ranking",
    "LabeledQuery",
    "PredictionSet",
    "item_scores",
    "threshold_set",
]


@dataclass(frozen=True, eq=False)
class PairwiseScores:
    """K x K matrix of model preference probabilities.

    ``probs[i, j]`` estimates the probability that item ``i+1`` outranks item
    ``j+1``. Off-diagonal entries must lie in [0, 1]. The diagonal carries
    nothing: it is stored (and written) as 0 whatever the input holds, so two
    matrices that differ only there compare equal. Opposing entries are NOT
    assumed to sum to one.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError(f"pairwise matrix must be square 2-D, got shape {probs.shape}")
        if probs.shape[0] < 1:
            raise ValueError("pairwise matrix needs at least one item")
        np.fill_diagonal(probs, 0.0)
        inside = (probs >= 0.0) & (probs <= 1.0)
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise ValueError(
                f"off-diagonal entry probs[{i}][{j}]={probs[i, j]!r} "
                f"(row {i + 1}, column {j + 1}) outside [0, 1]"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairwiseScores):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.array_equal(self.probs, other.probs)
        )


@dataclass(frozen=True, eq=False)
class Ranking:
    """True ranks of a query's items: ``ranks[j-1]`` is item j's rank.

    Must be a permutation of 1..K; rank 1 is the most relevant item.
    """

    ranks: np.ndarray

    def __post_init__(self):
        given = self.ranks
        ranks = np.array(given, dtype=int)
        if getattr(given, "dtype", None) != ranks.dtype and not np.array_equal(ranks, given):
            raise ValueError(f"ranks {np.asarray(given).tolist()} are not all integers")
        if ranks.ndim != 1 or ranks.size < 1:
            raise ValueError("ranks must be a nonempty 1-D integer array")
        if not np.array_equal(np.sort(ranks), np.arange(1, ranks.size + 1)):
            raise ValueError(f"ranks {ranks.tolist()} is not a permutation of 1..{ranks.size}")
        ranks.setflags(write=False)
        object.__setattr__(self, "ranks", ranks)

    @property
    def k(self) -> int:
        return self.ranks.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return bool(np.array_equal(self.ranks, other.ranks))


def _checked_embeddings(embeddings, k: Optional[int] = None) -> np.ndarray:
    """Validate item embeddings and return them as a read-only float copy.

    The matrix must be (K, d) with K, d >= 1 and finite entries; ``k``, when
    given, is the required row count. Every consumer of embeddings -- queries,
    parsers, the diversity functions and ``predict`` -- checks through here.
    """
    emb = np.array(embeddings, dtype=float)
    if emb.ndim != 2 or min(emb.shape) < 1 or (k is not None and emb.shape[0] != k):
        rows = "K" if k is None else k
        raise ValueError(f"embeddings must be a nonempty ({rows}, d) matrix, got {emb.shape}")
    if not np.all(np.isfinite(emb)):
        i, j = np.argwhere(~np.isfinite(emb))[0]
        raise ValueError(
            f"embeddings contain non-finite values: row {i + 1}, column {j + 1} is not finite"
        )
    emb.setflags(write=False)
    return emb


@dataclass(frozen=True, eq=False)
class LabeledQuery:
    """One query's model scores and ground truth, plus optional side data.

    ``embeddings`` is a (K, d) array of item embeddings used only by the
    diversity-aware set family. Raw feature vectors never enter the engine --
    the contract starts at the pairwise matrix and embeddings.
    """

    query_id: str
    scores: PairwiseScores
    ranking: Ranking
    embeddings: Optional[np.ndarray] = None

    def __post_init__(self):
        k = self.scores.k
        if self.ranking.k != k:
            raise ValueError(
                f"query {self.query_id!r}: ranking has {self.ranking.k} items, scores have {k}"
            )
        if self.embeddings is not None:
            try:
                emb = _checked_embeddings(self.embeddings, k)
            except ValueError as exc:
                raise ValueError(f"query {self.query_id!r}: {exc}") from None
            object.__setattr__(self, "embeddings", emb)

    @property
    def k(self) -> int:
        return self.scores.k

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledQuery):
            return NotImplemented

        def opt_eq(a, b):
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(a, b)

        return (
            self.query_id == other.query_id
            and self.scores == other.scores
            and self.ranking == other.ranking
            and opt_eq(self.embeddings, other.embeddings)
        )


@dataclass(frozen=True)
class PredictionSet:
    """A set of recommended items, stored as a strictly increasing index tuple."""

    items: tuple[int, ...]

    def __init__(self, items: Iterable[int] = ()):
        items = tuple(sorted(int(i) for i in items))
        if any(i < 1 for i in items):
            raise ValueError(f"item indices must be >= 1, got {items}")
        if any(a == b for a, b in zip(items, items[1:])):
            raise ValueError(f"duplicate item indices in {items}")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def as_array(self) -> np.ndarray:
        return np.array(self.items, dtype=int)


def item_scores(scores: PairwiseScores) -> np.ndarray:
    """Per-item quality: mean preference probability over all other items.

    ``result[i] = mean_{j != i} probs[i, j]``, the expected fraction of other
    items that item ``i+1`` beats according to the model. A single-item query
    degenerates to ``[1.0]`` so its only item is always eligible. The stored
    diagonal is 0, so it adds nothing to the sum.
    """
    k = scores.k
    if k == 1:
        return np.array([1.0])
    return scores.probs.sum(axis=1) / (k - 1)


def threshold_set(s: np.ndarray, lam: float) -> PredictionSet:
    """Items whose quality score reaches the threshold: ``{i : s[i-1] >= lam}``.

    The families produced by sweeping ``lam`` are nested: a larger threshold
    always yields a subset. An empty result is legal.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"score array must be 1-D, got shape {s.shape}")
    return PredictionSet((np.nonzero(s >= lam)[0] + 1).tolist())
