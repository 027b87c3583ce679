import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankcal import (
    LabeledQuery,
    PairwiseScores,
    PredictionSet,
    Ranking,
    item_scores,
    threshold_set,
)


def brute_force_item_scores(probs):
    """Independent double-loop evaluation of the mean-preference score."""
    k = len(probs)
    if k == 1:
        return [1.0]
    out = []
    for i in range(k):
        total = 0.0
        for j in range(k):
            if j != i:
                total += probs[i][j]
        out.append(total / (k - 1))
    return out


class TestPairwiseScores:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            PairwiseScores(np.zeros((2, 3)))

    def test_rejects_out_of_range_off_diagonal(self):
        probs = np.array([[0.0, 1.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match=r"probs\[0\]\[1\]"):
            PairwiseScores(probs)

    def test_diagonal_unconstrained(self):
        PairwiseScores(np.array([[7.5, 0.2], [0.9, -3.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PairwiseScores(np.array([[0.0, np.nan], [0.3, 0.0]]))

    def test_immutable(self):
        p = PairwiseScores(np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            p.probs[0, 1] = 0.9


class TestRanking:
    def test_valid_permutation(self):
        r = Ranking(np.array([2, 1, 3]))
        assert r.k == 3
        assert Ranking(np.array([2.0, 1.0])).ranks.tolist() == [2, 1]  # integral floats pass

    @pytest.mark.parametrize("ranks", [[1, 1, 2], [0, 1, 2], [1, 2, 4], [], [1.5, 2.0]])
    def test_rejects_non_permutations(self, ranks):
        with pytest.raises(ValueError):
            Ranking(np.array(ranks))


class TestLabeledQuery:
    def test_length_mismatch(self):
        scores = PairwiseScores(np.full((3, 3), 0.5))
        with pytest.raises(ValueError, match="ranking has 2"):
            LabeledQuery("q", scores, Ranking(np.array([1, 2])))

    def test_embedding_shape_checked(self):
        scores = PairwiseScores(np.full((2, 2), 0.5))
        ranking = Ranking(np.array([1, 2]))
        with pytest.raises(ValueError, match="embeddings"):
            LabeledQuery("q", scores, ranking, embeddings=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            LabeledQuery("q", scores, ranking, embeddings=np.array([[np.inf], [0.0]]))

    def test_equality_is_structural(self):
        def make():
            return LabeledQuery(
                "q",
                PairwiseScores(np.array([[0.0, 0.4], [0.6, 0.0]])),
                Ranking(np.array([2, 1])),
                embeddings=np.eye(2),
            )

        assert make() == make()


class TestPredictionSet:
    def test_sorts_and_freezes(self):
        assert PredictionSet([3, 1, 2]).items == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PredictionSet([1, 1])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PredictionSet([0, 1])

    def test_container_protocol(self):
        s = PredictionSet([2, 5])
        assert len(s) == 2 and 5 in s and 7 not in s and list(s) == [2, 5]


class TestItemScores:
    def test_three_item_example(self):
        probs = np.array([[0.0, 0.9, 0.8], [0.1, 0.0, 0.6], [0.2, 0.4, 0.0]])
        s = item_scores(PairwiseScores(probs))
        assert s == pytest.approx([0.85, 0.35, 0.30], abs=1e-12)

    def test_two_item_single_term(self):
        probs = np.array([[0.0, 0.7], [0.3, 0.0]])
        assert item_scores(PairwiseScores(probs)) == pytest.approx([0.7, 0.3])

    def test_two_item_symmetric(self):
        probs = np.full((2, 2), 0.5)
        assert item_scores(PairwiseScores(probs)) == pytest.approx([0.5, 0.5])

    def test_singleton_is_always_eligible(self):
        assert item_scores(PairwiseScores(np.array([[0.3]]))).tolist() == [1.0]

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_diagonal_never_matters(self, k, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(k, k))
        base = probs.copy()
        np.fill_diagonal(base, 0.0)
        shifted = probs.copy()
        np.fill_diagonal(shifted, rng.uniform(size=k))
        np.testing.assert_array_equal(
            item_scores(PairwiseScores(base)), item_scores(PairwiseScores(shifted))
        )

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force(self, k, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(k, k))
        got = item_scores(PairwiseScores(probs))
        want = brute_force_item_scores(probs.tolist())
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


class TestThresholdSet:
    def test_examples(self):
        s = np.array([0.85, 0.35, 0.30])
        assert threshold_set(s, 0.5).items == (1,)
        assert threshold_set(s, 0.0).items == (1, 2, 3)
        assert threshold_set(s, 1.0).items == ()

    def test_boundary_is_inclusive(self):
        assert threshold_set(np.array([0.5, 0.49]), 0.5).items == (1,)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_nesting(self, scores, lam_a, lam_b):
        lo, hi = min(lam_a, lam_b), max(lam_a, lam_b)
        s = np.array(scores)
        assert set(threshold_set(s, hi).items) <= set(threshold_set(s, lo).items)
