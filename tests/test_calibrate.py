import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcal import (
    CalibrationConfig,
    LabeledQuery,
    MRule,
    PairwiseScores,
    Ranking,
    SyntheticSpec,
    TrialProtocol,
    calibrate,
    diverse_family,
    empirical_fdr,
    generate_synthetic,
    hoeffding_ucb,
    item_scores,
    lambda_grid,
    plain_family,
    predict,
    run_trials,
)
from rankcal.calibrate import _loss_table, _thresholds, _walk
from rankcal.risk import derive_m, fdp
from conftest import random_dataset


def oracle_lambda_hat(data, config):
    """Grid-enumerating reference: evaluate every test, then apply the stop rule."""
    grid = lambda_grid(config.d_lambda)
    family = (
        plain_family if config.family == "plain" else diverse_family(config.max_items)
    )
    last_rejected = None
    for lam in grid:
        mean = empirical_fdr(lam, data, config.m_rule, family)
        ucb = hoeffding_ucb(mean, len(data), config.delta)
        if not ucb < config.alpha:
            return (last_rejected if last_rejected is not None else 1.0), "failed_to_reject"
        last_rejected = float(lam)
    return last_rejected, "exhausted_grid"


class TestConfig:
    def test_validation(self):
        CalibrationConfig(alpha=0.3, delta=0.1)
        with pytest.raises(ValueError):
            CalibrationConfig(alpha=0.0, delta=0.1)
        with pytest.raises(ValueError):
            CalibrationConfig(alpha=0.3, delta=1.0)
        with pytest.raises(ValueError):
            CalibrationConfig(alpha=0.3, delta=0.1, d_lambda=0.0)
        with pytest.raises(ValueError):
            CalibrationConfig(alpha=0.3, delta=0.1, family="other")
        with pytest.raises(ValueError, match="max_items"):
            CalibrationConfig(alpha=0.3, delta=0.1, family="diverse")
        with pytest.raises(ValueError, match="max_items"):
            CalibrationConfig(alpha=0.3, delta=0.1, family="plain", max_items=2)
        with pytest.raises(ValueError, match="unknown bound"):
            CalibrationConfig(alpha=0.3, delta=0.1, bound="nope")

    def test_max_items_must_be_integral(self):
        for cap in (2.7, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integer max_items"):
                CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=cap)
        for cap in (3, 3.0, np.int64(3), np.float64(3.0)):
            config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=cap)
            assert config.max_items == 3 and type(config.max_items) is int


class TestLambdaGrid:
    def test_default_step(self):
        grid = lambda_grid(0.01)
        assert grid.size == 99
        assert grid[0] == pytest.approx(0.99, abs=1e-12)
        assert grid[-1] == pytest.approx(0.01, abs=1e-12)
        steps = np.diff(grid)
        assert np.allclose(steps, -0.01, atol=1e-12)

    def test_coarse_steps(self):
        assert lambda_grid(0.1).size == 9
        # 1 - 3*0.3 = 0.1 falls below the step, so it is excluded
        grid = lambda_grid(0.3)
        assert grid == pytest.approx([0.7, 0.4])

    def test_never_tests_zero_or_one(self):
        for d in (0.01, 0.05, 0.25, 0.5):
            grid = lambda_grid(d)
            assert grid.min() > 0.0 and grid.max() < 1.0


def _all_zero_fdp_dataset(n, seed=0):
    """Every item of every query acceptable: FDP identically zero at any lambda."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(1, 6))
        probs = rng.uniform(size=(k, k))
        out.append(
            LabeledQuery(f"z{i}", PairwiseScores(probs), Ranking(rng.permutation(k) + 1))
        )
    return out


class TestCalibrate:
    def test_grid_exhaustion_when_risk_is_zero(self):
        # m = K makes every FDP zero; slack sqrt(log(10)/200) ~ 0.1073 < alpha
        data = _all_zero_fdp_dataset(100)
        config = CalibrationConfig(alpha=0.3, delta=0.1, m_rule=MRule.fraction(1.0))
        result = calibrate(data, config)
        assert result.stopped_reason == "exhausted_grid"
        assert result.lambda_hat == pytest.approx(0.01, abs=1e-12)
        assert len(result.trace) == 99
        assert all(e.rejected for e in result.trace)
        assert result.trace[0].ucb == pytest.approx(0.10729830131446737, abs=1e-12)

    def test_single_point_falls_back_to_one(self):
        # slack sqrt(log(10)/2) ~ 1.073 exceeds any alpha < 1: first test fails
        data = _all_zero_fdp_dataset(1)
        config = CalibrationConfig(alpha=0.3, delta=0.1, m_rule=MRule.fraction(1.0))
        result = calibrate(data, config)
        assert result.lambda_hat == 1.0
        assert result.stopped_reason == "failed_to_reject"
        assert len(result.trace) == 1
        assert not result.trace[0].rejected
        assert result.trace[0].ucb == pytest.approx(1.0729830131446736, abs=1e-12)

    def test_staircase_backtracks_to_060(self):
        # One K=2 query whose second item enters the set just below 0.60 and is
        # a false discovery; two singletons keep the mean small. With delta=0.5
        # (slack ~ 0.3399 over n=3) and alpha=0.5 the walk first fails at 0.59.
        stair = LabeledQuery(
            "stair",
            PairwiseScores(np.array([[0.0, 0.7], [0.595, 0.0]])),
            Ranking(np.array([1, 2])),
        )
        pad = [
            LabeledQuery(f"pad{i}", PairwiseScores(np.array([[0.0]])), Ranking(np.array([1])))
            for i in range(2)
        ]
        data = [stair] + pad
        config = CalibrationConfig(alpha=0.5, delta=0.5, m_rule=MRule.fraction(0.2))
        result = calibrate(data, config)
        expected_lam, expected_reason = oracle_lambda_hat(data, config)
        assert result.lambda_hat == pytest.approx(0.60, abs=1e-12)
        assert result.lambda_hat == expected_lam
        assert result.stopped_reason == expected_reason == "failed_to_reject"
        assert result.trace[-1].lam == pytest.approx(0.59, abs=1e-12)
        assert not result.trace[-1].rejected

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            calibrate([], CalibrationConfig(alpha=0.3, delta=0.1))

    def test_determinism(self):
        data = random_dataset(seed=21, n=60, k_max=8)
        config = CalibrationConfig(alpha=0.4, delta=0.2)
        a = calibrate(data, config)
        b = calibrate(data, config)
        assert a == b

    def test_trace_contract(self):
        data = random_dataset(seed=9, n=40, k_max=8)
        config = CalibrationConfig(alpha=0.35, delta=0.15)
        result = calibrate(data, config)
        for entry in result.trace[:-1]:
            assert entry.rejected and entry.ucb < config.alpha
        last = result.trace[-1]
        if result.stopped_reason == "failed_to_reject":
            assert not last.rejected and last.ucb >= config.alpha
        grid = lambda_grid(config.d_lambda)
        for entry, lam in zip(result.trace, grid):
            assert entry.lam == lam

    @pytest.mark.parametrize("family,m_cap", [("plain", None), ("diverse", 2)])
    def test_trace_means_match_reference_path(self, family, m_cap):
        data = random_dataset(seed=31, n=20, k_max=7, with_embeddings=True)
        config = CalibrationConfig(
            alpha=0.45, delta=0.3, d_lambda=0.05, family=family, max_items=m_cap
        )
        fam_fn = plain_family if family == "plain" else diverse_family(m_cap)
        result = calibrate(data, config)
        assert len(result.trace) >= 1
        for entry in result.trace:
            ref = empirical_fdr(entry.lam, data, config.m_rule, fam_fn)
            assert entry.mean_fdp == pytest.approx(ref, abs=1e-12)
            assert entry.ucb == pytest.approx(
                hoeffding_ucb(ref, len(data), config.delta), abs=1e-12
            )

    def test_monotone_data_response(self):
        # Re-labeling every ranking to follow the model's own ordering can only
        # lower per-query FDP at every threshold, so lambda_hat cannot grow.
        data = random_dataset(seed=55, n=80, k_max=8)
        aligned = []
        for q in data:
            s = item_scores(q.scores)
            order = np.argsort(-s, kind="stable")
            ranks = np.empty(q.k, dtype=int)
            ranks[order] = np.arange(1, q.k + 1)
            aligned.append(
                LabeledQuery(q.query_id, q.scores, Ranking(ranks))
            )
        config = CalibrationConfig(alpha=0.4, delta=0.25)
        assert calibrate(aligned, config).lambda_hat <= calibrate(data, config).lambda_hat

    def test_diverse_requires_embeddings(self):
        data = random_dataset(seed=2, n=5, k_max=5, with_embeddings=False)
        config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=2)
        with pytest.raises(ValueError, match="embeddings"):
            calibrate(data, config)

    def test_diverse_calibration_never_rechecks_query_embeddings(self, monkeypatch):
        # A LabeledQuery holds a checked read-only copy of its embeddings, so
        # neither the diverse profile nor predict copies and checks it again.
        import sys

        data = random_dataset(seed=64, n=30, k_max=8, with_embeddings=True)
        config = CalibrationConfig(alpha=0.4, delta=0.3, family="diverse", max_items=2)
        checked = sys.modules["rankcal.core"]._checked_embeddings
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return checked(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            # Patch every module that bound the checker by name, not only core.
            if name.startswith("rankcal") and vars(module).get("_checked_embeddings") is checked:
                monkeypatch.setattr(module, "_checked_embeddings", counting)
        result = calibrate(data, config)
        sets = [predict(q, 0.0, config) for q in data]
        # at alpha 0.6 some test sets exceed the cap, so the trials compute diversity ratios
        loose = CalibrationConfig(alpha=0.6, delta=0.3, family="diverse", max_items=2)
        report = run_trials(data, TrialProtocol(n_cal=20, config=loose, trials=3, seed=1))
        assert calls == []
        assert any(q.k > 2 for q in data) and all(len(s) <= 2 for s in sets)
        assert result.trace
        assert report.diversity.n_modified

    def test_diverse_calibration_scores_pruned_sets(self):
        # The selection must be driven by the pruned sets' losses, not the
        # plain thresholded ones: verified against the enumerating oracle.
        data = random_dataset(seed=63, n=30, k_max=8, with_embeddings=True)
        config = CalibrationConfig(
            alpha=0.4, delta=0.3, d_lambda=0.05, family="diverse", max_items=2
        )
        result = calibrate(data, config)
        lam, reason = oracle_lambda_hat(data, config)
        assert result.lambda_hat == pytest.approx(lam, abs=1e-12)
        assert result.stopped_reason == reason


class TestPredict:
    def test_plain_threshold(self):
        q = LabeledQuery(
            "p",
            PairwiseScores(np.array([[0.0, 0.9], [0.4, 0.0]])),
            Ranking(np.array([1, 2])),
        )
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        assert predict(q, 0.5, config).items == (1,)

    def test_safe_fallback_is_empty(self):
        q = LabeledQuery(
            "p",
            PairwiseScores(np.array([[0.0, 0.9], [0.4, 0.0]])),
            Ranking(np.array([1, 2])),
        )
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        assert predict(q, 1.0, config).items == ()

    def test_diverse_prunes(self):
        probs = np.zeros((3, 3))
        probs[0] = [0.0, 0.9, 0.9]
        probs[1] = [0.8, 0.0, 0.8]
        probs[2] = [0.7, 0.7, 0.0]
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        q = LabeledQuery(
            "d", PairwiseScores(probs), Ranking(np.array([1, 2, 3])), embeddings=emb
        )
        config = CalibrationConfig(
            alpha=0.3, delta=0.1, family="diverse", max_items=2
        )
        # scores (0.9, 0.8, 0.7) all pass 0.6; pruning drops item 1
        assert predict(q, 0.6, config).items == (2, 3)

    def test_accepts_bare_scores(self):
        scores = PairwiseScores(np.array([[0.0, 0.9], [0.4, 0.0]]))
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        assert predict(scores, 0.5, config).items == (1,)

    def test_bare_scores_diverse_needs_embeddings(self):
        scores = PairwiseScores(np.full((3, 3), 0.9))
        config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=1)
        with pytest.raises(ValueError, match="embeddings"):
            predict(scores, 0.1, config)
        out = predict(scores, 0.1, config, embeddings=np.eye(3))
        assert len(out) == 1

    def test_bare_scores_embeddings_row_count_checked(self):
        scores = PairwiseScores(np.full((3, 3), 0.9))
        for family, cap in (("diverse", 1), ("plain", None)):
            config = CalibrationConfig(alpha=0.3, delta=0.1, family=family, max_items=cap)
            with pytest.raises(ValueError, match=r"\(3, d\)"):
                predict(scores, 0.1, config, embeddings=np.eye(4))


@st.composite
def tied_queries(draw):
    """1-5 queries of K 1..9 with probabilities on quarters and embeddings on {0, 1, 2}^2.

    Quartered probabilities make item scores tie with each other and with the
    grid; lattice embeddings make the greedy prune's candidates tie.
    """
    queries = []
    for i in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 9))
        quarters = draw(st.lists(st.integers(0, 4), min_size=k * k, max_size=k * k))
        ranks = draw(st.permutations(range(1, k + 1)))
        lattice = draw(st.lists(st.integers(0, 2), min_size=2 * k, max_size=2 * k))
        queries.append(LabeledQuery(f"q{i}", PairwiseScores(np.reshape(quarters, (k, k)) / 4),
                                    Ranking(np.array(ranks)),
                                    np.reshape(lattice, (k, 2)).astype(float)))
    return queries


M_RULES = st.one_of(st.sampled_from([0.2, 0.5, 1.0]).map(MRule.fraction),
                    st.integers(1, 9).map(MRule.absolute))


def table_losses(data, config):
    """One full read of the loss table: every column over every row, in order."""
    table, rows = _loss_table(data, config), np.arange(len(data))
    return [table.losses(rows, col).tolist() for col in range(_thresholds(config.d_lambda).size)]


class TestLossTable:
    """Every loss the table hands out equals the public reference path's, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(data=tied_queries(), cap=st.one_of(st.none(), st.integers(1, 9)), m_rule=M_RULES,
           d_lambda=st.sampled_from([0.25, 0.125, 0.037, 0.01]))
    def test_losses_equal_reference_path_on_ties(self, data, cap, m_rule, d_lambda):
        family = "plain" if cap is None else "diverse"
        config = CalibrationConfig(alpha=0.3, delta=0.1, d_lambda=d_lambda, m_rule=m_rule,
                                   family=family, max_items=cap)
        reference = plain_family if cap is None else diverse_family(cap)
        got = table_losses(data, config)
        for col, lam in enumerate(_thresholds(d_lambda)):
            want = [fdp(reference(q, lam), q.ranking, derive_m(q.k, m_rule)) for q in data]
            assert got[col] == want, (col, lam)

    @settings(max_examples=60, deadline=None)
    @given(data=tied_queries(), cap=st.integers(1, 4), draws=st.data())
    def test_any_read_order_equals_one_full_read(self, data, cap, draws):
        config = CalibrationConfig(alpha=0.3, delta=0.1, d_lambda=0.125,
                                   family="diverse", max_items=cap)
        full = table_losses(data, config)
        table = _loss_table(data, config)
        cols = draws.draw(st.permutations(range(len(full))))
        rows = np.array(draws.draw(st.lists(st.integers(0, len(data) - 1), min_size=1,
                                            max_size=12)))
        for col in cols + cols:  # every column in a drawn order, then all again
            assert table.losses(rows, col).tolist() == [full[col][r] for r in rows]
        assert table_losses(data, config) == full

    def test_diverse_calibration_prunes_only_what_the_walk_reads(self, monkeypatch):
        # The diverse-largek benchmark shape: one query at each of 20 K from 50 to 100.
        data = [generate_synthetic(SyntheticSpec(seed=j, n_queries=1, k_min=int(k),
                                                 k_max=int(k), noise=0.25))[0]
                for j, k in enumerate(np.linspace(50, 100, 20).round())]
        config = CalibrationConfig(alpha=0.35, delta=0.1, family="diverse", max_items=5)
        row_of = {id(q.embeddings): row for row, q in enumerate(data)}
        pruned = []
        module = sys.modules["rankcal.calibrate"]  # the package's `calibrate` is the function
        prune = module._greedy_prune

        def counting(pred, embeddings, m_cap):
            pruned.append((row_of[id(embeddings)], len(pred)))
            return prune(pred, embeddings, m_cap)

        monkeypatch.setattr(module, "_greedy_prune", counting)
        result = calibrate(data, config)
        sizes = _loss_table(data, config).sizes
        reached = {(row, int(sizes[row, col])) for col in range(1, len(result.trace) + 1)
                   for row in range(len(data)) if sizes[row, col] > config.max_items}
        assert result.stopped_reason == "failed_to_reject"
        assert sorted(pruned) == sorted(reached)  # each reached pair once, nothing else
        assert len(pruned) < sum(q.k - config.max_items for q in data) / 5

    @pytest.mark.parametrize("family,cap,poison", [("plain", None, np.nan),
                                                   ("diverse", 2, np.inf)])
    def test_walk_raises_on_a_non_finite_loss(self, family, cap, poison):
        # NaN compares false with alpha, so an unfilled entry would end the walk quietly.
        data = random_dataset(seed=3, n=30, k_max=6, with_embeddings=True)
        config = CalibrationConfig(alpha=0.4, delta=0.2, family=family, max_items=cap)
        table = _loss_table(data, config)
        table.fdp_by_size[7, table.sizes[7, 1]] = poison
        with pytest.raises(RuntimeError, match="non-finite"):
            _walk(table, np.arange(len(data)), config)
