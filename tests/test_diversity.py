import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcal import (
    PredictionSet,
    SyntheticSpec,
    diversity,
    exhaustive_prune,
    generate_synthetic,
    greedy_prune,
    relative_diversity_improvement,
)

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
COLLINEAR = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])


def brute_force_diversity(items, vectors, m_cap):
    total = 0.0
    for a, b in combinations(items, 2):
        total += math.dist(vectors[a - 1], vectors[b - 1])
    return total / max(m_cap, len(items))


def random_instance(seed, max_size=10, dim=3):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, max_size + 1))
    vectors = rng.standard_normal((k, dim))
    size = int(rng.integers(1, k + 1))
    items = (rng.permutation(k)[:size] + 1).tolist()
    return PredictionSet(items), vectors


class TestDiversity:
    def test_triangle(self):
        val = diversity(PredictionSet([1, 2, 3]), TRIANGLE, 3)
        assert val == pytest.approx((1 + 1 + math.sqrt(2)) / 3, abs=1e-12)
        assert val == pytest.approx(1.1380711874576983, abs=1e-12)

    def test_no_pairs_is_zero(self):
        assert diversity(PredictionSet([]), TRIANGLE, 3) == 0.0
        assert diversity(PredictionSet([1]), TRIANGLE, 5) == 0.0

    def test_pair_with_cap_two(self):
        assert diversity(PredictionSet([1, 2]), TRIANGLE, 2) == pytest.approx(0.5)

    def test_cap_dominates_small_sets(self):
        # below the cap the divisor stays at m_cap, so adding items cannot hurt
        assert diversity(PredictionSet([1, 2]), TRIANGLE, 3) == pytest.approx(1 / 3)

    def test_errors(self):
        with pytest.raises(ValueError):
            diversity(PredictionSet([1]), TRIANGLE, 0)
        with pytest.raises(ValueError, match="exceeds"):
            diversity(PredictionSet([4]), TRIANGLE, 2)

    def test_rejects_bad_embeddings(self):
        with pytest.raises(ValueError, match=r"\(K, d\)"):
            diversity(PredictionSet([1, 2]), np.zeros((3,)), 2)
        with pytest.raises(ValueError, match="non-finite"):
            diversity(PredictionSet([1, 2]), np.array([[np.nan, 0.0], [1.0, 0.0]]), 2)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force(self, seed):
        pred, vectors = random_instance(seed)
        m_cap = int(np.random.default_rng(seed + 1).integers(1, 6))
        got = diversity(pred, vectors, m_cap)
        want = brute_force_diversity(pred.items, vectors.tolist(), m_cap)
        assert got == pytest.approx(want, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_rigid_motion_invariance(self, seed):
        pred, vectors = random_instance(seed, dim=3)
        rng = np.random.default_rng(seed + 7)
        # random rotation via QR, plus a translation
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = vectors @ q_mat.T + rng.standard_normal(3)
        assert diversity(pred, moved, 3) == pytest.approx(
            diversity(pred, vectors, 3), rel=1e-9, abs=1e-9
        )

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_scales_diversity(self, seed, c):
        pred, vectors = random_instance(seed)
        assert diversity(pred, c * vectors, 3) == pytest.approx(
            c * diversity(pred, vectors, 3), rel=1e-9
        )


class TestGreedyPrune:
    def test_triangle_drops_origin(self):
        out = greedy_prune(PredictionSet([1, 2, 3]), TRIANGLE, 2)
        assert out.items == (2, 3)
        assert diversity(out, TRIANGLE, 2) == pytest.approx(math.sqrt(2) / 2)

    def test_small_sets_untouched(self):
        s = PredictionSet([1, 3])
        assert greedy_prune(s, TRIANGLE, 2) is s
        assert greedy_prune(s, TRIANGLE, 5) is s

    def test_collinear_keeps_endpoints(self):
        out = greedy_prune(PredictionSet([1, 2, 3, 4]), COLLINEAR, 2)
        assert out.items == (1, 4)

    def test_rejects_bad_embeddings(self):
        with pytest.raises(ValueError, match=r"\(K, d\)"):
            greedy_prune(PredictionSet([1, 2, 3]), np.zeros((3,)), 2)
        bad = TRIANGLE.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 2, column 1 is not finite"):
            greedy_prune(PredictionSet([1, 2, 3]), bad, 2)

    def test_tie_breaks_drop_smallest_index(self):
        # four corners of a square: first removal ties across all items
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = greedy_prune(PredictionSet([1, 2, 3, 4]), square, 3)
        assert out.items == (2, 3, 4)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=5))
    def test_subset_and_size(self, seed, m_cap):
        pred, vectors = random_instance(seed)
        out = greedy_prune(pred, vectors, m_cap)
        assert set(out.items) <= set(pred.items)
        assert len(out) == min(len(pred), m_cap)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_never_beats_oracle(self, seed, m_cap):
        pred, vectors = random_instance(seed)
        greedy_div = diversity(greedy_prune(pred, vectors, m_cap), vectors, m_cap)
        oracle_div = diversity(exhaustive_prune(pred, vectors, m_cap), vectors, m_cap)
        assert greedy_div <= oracle_div + 1e-12

    # m_cap >= 2: at cap 1 every remainder is a zero-diversity singleton, a
    # structural tie where the two documented tie-break rules deliberately
    # differ (greedy drops the smallest index, the oracle keeps it).
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=6))
    @settings(max_examples=60)
    def test_single_removal_is_exact(self, seed, m_cap):
        rng = np.random.default_rng(seed)
        size = m_cap + 1
        vectors = rng.standard_normal((size + 2, 3))
        items = (rng.permutation(size + 2)[:size] + 1).tolist()
        pred = PredictionSet(items)
        assert (
            greedy_prune(pred, vectors, m_cap).items
            == exhaustive_prune(pred, vectors, m_cap).items
        )

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_leaves_selection_unchanged(self, seed, c):
        pred, vectors = random_instance(seed)
        base = greedy_prune(pred, vectors, 2)
        scaled = greedy_prune(pred, c * vectors, 2)
        assert base.items == scaled.items


class TestExhaustivePrune:
    def test_matches_greedy_examples(self):
        assert exhaustive_prune(PredictionSet([1, 2, 3]), TRIANGLE, 2).items == (2, 3)
        assert exhaustive_prune(PredictionSet([1, 2, 3, 4]), COLLINEAR, 2).items == (1, 4)

    def test_small_sets_untouched(self):
        s = PredictionSet([2, 3])
        assert exhaustive_prune(s, TRIANGLE, 3) is s

    def test_tie_breaks_lexicographic(self):
        # all singletons tie at zero diversity; the smallest index wins
        assert exhaustive_prune(PredictionSet([2, 3]), TRIANGLE, 1).items == (2,)

    def test_guard(self):
        vectors = np.zeros((25, 2))
        big = PredictionSet(range(1, 22))
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_prune(big, vectors, 3)

    def test_scaling_leaves_selection_unchanged(self):
        pred, vectors = random_instance(404)
        assert (
            exhaustive_prune(pred, vectors, 2).items
            == exhaustive_prune(pred, 3.7 * vectors, 2).items
        )


SQUARE_AND_CENTRE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
# Every public function that takes a cap, at a cap of 3 that changes its result.
CAP_TAKERS = {
    "diversity": lambda cap: diversity(PredictionSet([1, 4]), SQUARE_AND_CENTRE, cap),
    "greedy_prune": lambda cap: greedy_prune(PredictionSet(range(1, 6)), SQUARE_AND_CENTRE, cap),
    "exhaustive_prune": lambda cap: exhaustive_prune(PredictionSet(range(1, 6)),
                                                     SQUARE_AND_CENTRE, cap),
    "relative_diversity_improvement": lambda cap: relative_diversity_improvement(
        generate_synthetic(SyntheticSpec(seed=1, n_queries=50, k_min=4, k_max=8)), 0.4, cap),
}


@pytest.mark.parametrize("cap", [2.5, 0, 3.0])
@pytest.mark.parametrize("name", sorted(CAP_TAKERS))
def test_cap_must_be_an_integer_of_at_least_one(name, cap):
    # No calibrated cap is 2.5: every function checks its cap as CalibrationConfig does.
    call = CAP_TAKERS[name]
    if cap == 3.0:
        assert call(cap) == call(3) != call(4)
    else:
        with pytest.raises(ValueError, match="m_cap must be an integer >= 1"):
            call(cap)
