import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankcal import (
    MRule,
    PredictionSet,
    Ranking,
    derive_m,
    empirical_fdr,
    fdp,
    get_bound,
    hoeffding_ucb,
    item_scores,
    register_bound,
    threshold_set,
)
from rankcal.calibrate import plain_family

from conftest import random_dataset


def brute_force_fdp(items, ranks, m):
    if not items:
        return 0.0
    false = sum(1 for i in items if ranks[i - 1] > m)
    return false / max(len(items), 1)


class TestMRule:
    def test_fraction_bounds(self):
        MRule.fraction(1.0)
        with pytest.raises(ValueError):
            MRule.fraction(0.0)
        with pytest.raises(ValueError):
            MRule.fraction(1.2)

    def test_absolute_bounds(self):
        MRule.absolute(1)
        with pytest.raises(ValueError):
            MRule.absolute(0)


class TestDeriveM:
    def test_examples(self):
        assert derive_m(10, MRule.fraction(0.2)) == 2
        assert derive_m(7, MRule.fraction(0.2)) == 2  # ceil(1.4)
        assert derive_m(3, MRule.absolute(5)) == 3  # clamp to K

    def test_fraction_never_below_one(self):
        assert derive_m(1, MRule.fraction(0.01)) == 1
        assert derive_m(4, MRule.fraction(0.01)) == 1

    def test_float_products_near_integers(self):
        # exact products must not get bumped by one ulp of float error
        assert derive_m(30, MRule.fraction(0.1)) == 3
        assert derive_m(20, MRule.fraction(0.55)) == 11

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            derive_m(0, MRule.fraction(0.2))


class TestFdp:
    def test_examples(self):
        y = Ranking(np.array([2, 1, 3, 4]))
        assert fdp(PredictionSet([1, 3]), y, 2) == 0.5  # item 3 has rank 3 > 2
        assert fdp(PredictionSet([]), y, 2) == 0.0
        assert fdp(PredictionSet([1, 2]), Ranking(np.array([1, 2, 3])), 2) == 0.0

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="exceeds"):
            fdp(PredictionSet([4]), Ranking(np.array([1, 2, 3])), 1)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            fdp(PredictionSet([1]), Ranking(np.array([1, 2])), 3)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_range_and_partition_identity(self, k, seed):
        rng = np.random.default_rng(seed)
        ranking = Ranking(rng.permutation(k) + 1)
        m = int(rng.integers(1, k + 1))
        members = [i + 1 for i in range(k) if rng.random() < 0.5]
        pred = PredictionSet(members)
        loss = fdp(pred, ranking, m)
        assert 0.0 <= loss <= 1.0
        if len(pred):
            top_m = {j + 1 for j in range(k) if ranking.ranks[j] <= m}
            in_top = len(set(pred.items) & top_m)
            assert loss + in_top / len(pred) == pytest.approx(1.0, abs=1e-12)

    def test_listing_order_irrelevant(self):
        y = Ranking(np.array([2, 1, 3, 4]))
        assert fdp(PredictionSet([3, 1]), y, 2) == fdp(PredictionSet([1, 3]), y, 2)


class TestEmpiricalFdr:
    def test_hand_computed_mean(self):
        # two queries with per-query FDPs 0.5 and 0.0 average to 0.25
        from rankcal import LabeledQuery, PairwiseScores

        q_mixed = LabeledQuery(
            "a", PairwiseScores(np.full((2, 2), 0.5)), Ranking(np.array([1, 2]))
        )
        q_clean = LabeledQuery(
            "b", PairwiseScores(np.full((2, 2), 0.5)), Ranking(np.array([1, 2]))
        )
        fixed = {"a": PredictionSet([1, 2]), "b": PredictionSet([1])}

        def family(q, lam):
            return fixed[q.query_id]

        # m=1: set {1,2} has one false discovery (item 2), set {1} has none
        got = empirical_fdr(0.5, [q_mixed, q_clean], MRule.absolute(1), family)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_all_top_m_means_zero(self):
        # m = K makes every item acceptable, so lambda=0 has no false discoveries
        data = random_dataset(seed=11, n=5, k_max=6)
        assert empirical_fdr(0.0, data, MRule.fraction(1.0), plain_family) == 0.0

    def test_three_query_mean(self):
        from rankcal import LabeledQuery, PairwiseScores

        # per-query FDPs {1/3, 1/2, 0} at m=2 with identity rankings on K=3
        def query(qid):
            return LabeledQuery(
                qid, PairwiseScores(np.full((3, 3), 0.5)), Ranking(np.array([1, 2, 3]))
            )

        fixed = {
            "a": PredictionSet([1, 2, 3]),  # item 3 false -> 1/3
            "b": PredictionSet([1, 3]),  # item 3 false -> 1/2
            "c": PredictionSet([1, 2]),  # all acceptable -> 0
        }

        def family(q, lam):
            return fixed[q.query_id]

        got = empirical_fdr(0.9, [query("a"), query("b"), query("c")],
                            MRule.absolute(2), family)
        assert got == pytest.approx(0.2777777777777778, abs=1e-12)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            empirical_fdr(0.5, [], MRule.fraction(0.2), plain_family)

    def test_matches_brute_force(self):
        data = random_dataset(seed=3, n=25, k_max=10)
        rule = MRule.fraction(0.3)
        for lam in (0.2, 0.5, 0.8):
            total = 0.0
            for q in data:
                items = threshold_set(item_scores(q.scores), lam).items
                total += brute_force_fdp(items, q.ranking.ranks.tolist(), derive_m(q.k, rule))
            assert empirical_fdr(lam, data, rule, plain_family) == pytest.approx(
                total / len(data), abs=1e-12
            )


class TestHoeffdingUcb:
    def test_frozen_value(self):
        # 0.25 + sqrt(log(10) / 4000), computed independently
        assert hoeffding_ucb(0.25, 2000, 0.1) == pytest.approx(0.2739926295609404, abs=1e-9)

    def test_unit_slack(self):
        assert hoeffding_ucb(0.3, 1, math.exp(-2)) == pytest.approx(1.3, abs=1e-12)

    def test_slack_vanishes_with_n(self):
        slacks = [hoeffding_ucb(0.0, n, 0.1) for n in (10**2, 10**4, 10**6)]
        assert slacks[0] > slacks[1] > slacks[2]
        assert slacks[2] < 1e-2

    def test_not_clamped(self):
        assert hoeffding_ucb(0.9, 1, 0.1) > 1.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_monotonicities(self, mean, n, delta):
        base = hoeffding_ucb(mean, n, delta)
        assert hoeffding_ucb(mean, n + 1, delta) < base
        assert hoeffding_ucb(mean + 0.01, n, delta) > base
        smaller_delta = delta / 2
        assert hoeffding_ucb(mean, n, smaller_delta) > base

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            hoeffding_ucb(0.5, 0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_ucb(0.5, 10, 0.0)
        with pytest.raises(ValueError):
            hoeffding_ucb(0.5, 10, 1.0)


class TestBoundRegistry:
    def test_hoeffding_ships(self):
        losses = np.array([0.0, 0.5])
        assert get_bound("hoeffding")(losses, 0.1) == pytest.approx(
            hoeffding_ucb(0.25, 2, 0.1)
        )

    def test_unknown_bound(self):
        with pytest.raises(ValueError, match="unknown bound"):
            get_bound("nope")

    def test_register_and_use(self):
        register_bound("loose-test-bound", lambda losses, delta: 1.0)
        try:
            assert get_bound("loose-test-bound")(np.array([0.0]), 0.5) == 1.0
        finally:
            from rankcal import risk

            risk._BOUNDS.pop("loose-test-bound")
