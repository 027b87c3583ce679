"""False-discovery losses and concentration-based upper confidence bounds.

An item counts as a *false discovery* when its true rank falls outside the
top ``m`` for its query; the per-query loss is the fraction of a prediction
set made up of such items. The ``m`` cutoff is derived per query by an
:class:`MRule` (a fixed fraction of K, or an absolute count clamped to K).

Upper confidence bounds for the mean loss are pluggable: a bound is any
callable ``(losses, delta) -> ucb`` that is a valid (1 - delta) upper bound
for the mean of i.i.d. [0, 1] samples. Only the Hoeffding bound ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import LabeledQuery, PredictionSet, Ranking

__all__ = [
    "MRule",
    "derive_m",
    "fdp",
    "empirical_fdr",
    "hoeffding_ucb",
    "register_bound",
    "get_bound",
]

# Guards ceil() against float products like 0.55 * 20 landing one ulp above
# an exact integer.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class MRule:
    """Policy for the per-query count of acceptable items.

    ``fraction(f)`` keeps the top ``ceil(f * K)`` items (never fewer than
    one); ``absolute(m)`` keeps the top ``m``, clamped to K.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "fraction":
            if not 0.0 < self.value <= 1.0:
                raise ValueError(f"fraction must be in (0, 1], got {self.value}")
        elif self.kind == "absolute":
            if int(self.value) != self.value or self.value < 1:
                raise ValueError(f"absolute m must be an integer >= 1, got {self.value}")
        else:
            raise ValueError(f"unknown m-rule kind {self.kind!r}")

    @classmethod
    def fraction(cls, f: float) -> "MRule":
        return cls("fraction", float(f))

    @classmethod
    def absolute(cls, m: int) -> "MRule":
        return cls("absolute", int(m))


def derive_m(k: int, rule: MRule) -> int:
    """Resolve an m-rule against a query's item count."""
    if k < 1:
        raise ValueError(f"item count must be >= 1, got {k}")
    if rule.kind == "fraction":
        return max(1, math.ceil(rule.value * k - _CEIL_EPS))
    return min(int(rule.value), k)


def fdp(pred: PredictionSet, ranking: Ranking, m: int) -> float:
    """False discovery proportion: fraction of the set ranked below top-m.

    ``|pred ∩ {j : rank(j) > m}| / max(|pred|, 1)``; the empty set has
    proportion 0 by the max-guard.
    """
    if not 1 <= m <= ranking.k:
        raise ValueError(f"m={m} out of range [1, {ranking.k}]")
    if len(pred) == 0:
        return 0.0
    idx = pred.as_array()
    if idx[-1] > ranking.k:
        raise ValueError(f"item index {idx[-1]} exceeds item count {ranking.k}")
    false = int(np.count_nonzero(ranking.ranks[idx - 1] > m))
    return false / len(pred)


def empirical_fdr(
    lam: float,
    data: Sequence[LabeledQuery],
    rule: MRule,
    family: Callable[[LabeledQuery, float], PredictionSet],
) -> float:
    """Mean false discovery proportion of the family's sets at one threshold.

    ``family(query, lam)`` produces the prediction set to score; each query's
    m comes from ``rule``. Summation is fixed left-to-right in data order so
    the result is deterministic.
    """
    if len(data) == 0:
        raise ValueError("empirical_fdr requires at least one query")
    total = 0.0
    for q in data:
        total += fdp(family(q, lam), q.ranking, derive_m(q.k, rule))
    return total / len(data)


def hoeffding_ucb(mean: float, n: int, delta: float) -> float:
    """Hoeffding (1 - delta) upper confidence bound for a bounded-loss mean.

    ``mean + sqrt(log(1/delta) / (2n))``. Deliberately not clamped to [0, 1]:
    callers compare the raw value, and clamping would hide slack magnitude
    in calibration traces.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _hoeffding_bound(losses: np.ndarray, delta: float) -> float:
    losses = np.asarray(losses, dtype=float)
    return hoeffding_ucb(float(losses.mean()), losses.size, delta)


# A bound maps (per-sample losses, delta) to a (1 - delta) UCB on the mean.
BoundFn = Callable[[np.ndarray, float], float]

_BOUNDS: dict[str, BoundFn] = {"hoeffding": _hoeffding_bound}


def register_bound(name: str, fn: BoundFn) -> None:
    """Register an alternative upper-confidence bound under ``name``.

    The caller asserts validity: the function must return a (1 - delta)
    upper confidence bound for the mean of i.i.d. [0, 1] losses.
    """
    _BOUNDS[name] = fn


def get_bound(name: str) -> BoundFn:
    try:
        return _BOUNDS[name]
    except KeyError:
        raise ValueError(f"unknown bound {name!r}; registered: {sorted(_BOUNDS)}") from None

