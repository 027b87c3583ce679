from dataclasses import fields

import numpy as np
import pytest

from rankcal import (
    CalibrationConfig,
    LabeledQuery,
    MRule,
    PairwiseScores,
    PredictionSet,
    Ranking,
    SyntheticSpec,
    TrialProtocol,
    TrialRecord,
    calibrate,
    diverse_family,
    diversity,
    generate_synthetic,
    greedy_prune,
    item_scores,
    lambda_grid,
    plain_family,
    relative_diversity_improvement,
    run_trials,
    stratified_fdr,
    sweep,
    threshold_set,
)
import rankcal.evaluate
from rankcal.evaluate import _stratify
from rankcal.risk import derive_m, fdp


def small_dataset(n=120, seed=8, diverse=False):
    return generate_synthetic(
        SyntheticSpec(seed=seed, n_queries=n, k_min=2, k_max=7, noise=0.7,
                      embedding_dim=3 if diverse else None)
    )


class TestTrialProtocol:
    def test_validation(self):
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        with pytest.raises(ValueError):
            TrialProtocol(n_cal=0, config=config)
        with pytest.raises(ValueError):
            TrialProtocol(n_cal=5, config=config, trials=0)


class TestRunTrials:
    def test_single_trial_equals_hand_driven_run(self):
        data = small_dataset()
        config = CalibrationConfig(alpha=0.4, delta=0.2)
        protocol = TrialProtocol(n_cal=60, config=config, trials=1, seed=99)
        report = run_trials(data, protocol)
        [record] = report.records

        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0,)))
        perm = rng.permutation(len(data))
        cal = [data[j] for j in perm[:60]]
        test = [data[j] for j in perm[60:]]
        result = calibrate(cal, config)
        losses = [
            fdp(threshold_set(item_scores(q.scores), result.lambda_hat),
                q.ranking, derive_m(q.k, config.m_rule))
            for q in test
        ]
        assert record.lambda_hat == result.lambda_hat
        assert record.test_fdr == pytest.approx(float(np.mean(losses)), abs=1e-15)
        sizes = [len(threshold_set(item_scores(q.scores), result.lambda_hat)) for q in test]
        assert record.mean_set_size == pytest.approx(float(np.mean(sizes)), abs=1e-15)

    def test_deterministic_across_runs(self):
        data = small_dataset()
        protocol = TrialProtocol(
            n_cal=50, config=CalibrationConfig(alpha=0.35, delta=0.15), trials=4, seed=3
        )
        assert run_trials(data, protocol).to_dict() == run_trials(data, protocol).to_dict()

    def test_split_leaves_test_queries(self):
        data = small_dataset(n=10)
        protocol = TrialProtocol(
            n_cal=10, config=CalibrationConfig(alpha=0.3, delta=0.1), trials=1
        )
        with pytest.raises(ValueError, match="n_cal"):
            run_trials(data, protocol)

    def test_histogram_mass_equals_trials(self):
        data = small_dataset()
        protocol = TrialProtocol(
            n_cal=40, config=CalibrationConfig(alpha=0.4, delta=0.2), trials=6, seed=1
        )
        report = run_trials(data, protocol)
        assert report.risk_hist[0].sum() == 6
        assert report.size_hist[0].sum() == 6

    def test_single_size_sample_mode(self):
        data = small_dataset()
        protocol = TrialProtocol(
            n_cal=40, config=CalibrationConfig(alpha=0.4, delta=0.2), trials=3, seed=1,
            single_size_sample=True,
        )
        report = run_trials(data, protocol)
        for record in report.records:
            assert record.sampled_set_size is not None
            assert record.sampled_set_size in record.set_sizes

    def test_stratified_average_recovers_pooled_fdr(self):
        data = small_dataset()
        protocol = TrialProtocol(
            n_cal=40, config=CalibrationConfig(alpha=0.4, delta=0.2), trials=5, seed=2
        )
        report = run_trials(data, protocol)
        pooled = np.concatenate([r.fdps for r in report.records])
        weighted = sum(s.count * s.fdr for s in report.strata if s.fdr is not None)
        counted = sum(s.count for s in report.strata)
        assert counted == pooled.size
        assert weighted / counted == pytest.approx(pooled.mean(), abs=1e-12)

    def test_diversity_stats_present_only_for_diverse(self):
        data = small_dataset(diverse=True)
        plain = TrialProtocol(
            n_cal=40, config=CalibrationConfig(alpha=0.4, delta=0.2), trials=2, seed=5
        )
        assert run_trials(data, plain).diversity is None
        div = TrialProtocol(
            n_cal=40,
            config=CalibrationConfig(alpha=0.4, delta=0.2, family="diverse", max_items=2),
            trials=2,
            seed=5,
        )
        report = run_trials(data, div)
        assert report.diversity is not None
        assert 0.0 <= report.diversity.fraction_modified <= 1.0
        if report.diversity.mean_ratio is not None:
            assert report.diversity.mean_ratio <= 1.0 + 1e-12


def reference_record(data, protocol, trial):
    """One trial done the long way: calibrate the split, then build and score each test set."""
    config = protocol.config
    rng = np.random.default_rng(np.random.SeedSequence(protocol.seed, spawn_key=(trial,)))
    perm = rng.permutation(len(data))
    cal = [data[j] for j in perm[: protocol.n_cal]]
    test = [data[j] for j in perm[protocol.n_cal:]]
    result = calibrate(cal, config)
    lam, cap = result.lambda_hat, config.max_items
    family = plain_family if cap is None else diverse_family(cap)
    sets = [family(q, lam) for q in test]
    sizes = np.array([len(s) for s in sets], dtype=int)
    fdps = np.array([fdp(s, q.ranking, derive_m(q.k, config.m_rule)) for q, s in zip(test, sets)])
    # A modified set exceeds the cap before pruning; a zero-diversity one is counted, not averaged.
    ratios, n_modified, n_zero = [], 0, 0
    for q in test:
        base = plain_family(q, lam)
        if cap is None or len(base) <= cap:
            continue
        n_modified += 1
        before = diversity(base, q.embeddings, cap)
        if before == 0.0:
            n_zero += 1
        else:
            ratios.append(diversity(greedy_prune(base, q.embeddings, cap), q.embeddings, cap)
                          / before)
    return TrialRecord(
        trial=trial,
        lambda_hat=lam,
        stopped_reason=result.stopped_reason,
        test_fdr=float(fdps.mean()),
        mean_set_size=float(sizes.mean()),
        sampled_set_size=(int(sizes[rng.integers(len(test))])
                          if protocol.single_size_sample else None),
        set_sizes=sizes,
        fdps=fdps,
        diversity_ratios=np.array(ratios),
        n_modified=n_modified,
        n_zero_denominator=n_zero,
    )


def quantised(data, step=20):
    """The same queries with every probability rounded to a multiple of 1/step."""
    return [LabeledQuery(q.query_id, PairwiseScores(np.round(q.scores.probs * step) / step),
                         q.ranking, q.embeddings) for q in data]


def collapsed(data, every=3):
    """The same queries with every ``every``-th one's embeddings at one point (zero diversity)."""
    return [LabeledQuery(q.query_id, q.scores, q.ranking,
                         np.zeros_like(q.embeddings) if i % every == 0 else q.embeddings)
            for i, q in enumerate(data)]


def synthetic(k_min, k_max, n=90, seed=21):
    return generate_synthetic(SyntheticSpec(seed=seed, n_queries=n, k_min=k_min, k_max=k_max,
                                            noise=0.7, embedding_dim=3))


def scores_on_grid(data, d_lambda):
    return any(np.isin(item_scores(q.scores), lambda_grid(d_lambda)).any() for q in data)


def modified(report):
    return sum(r.n_modified for r in report.records)


DIVERSE = dict(family="diverse", max_items=2)
# name: (data, config, protocol options, whether the run reached the edge case)
EQUIVALENCE_CASES = {
    "quantised-plain": (quantised(synthetic(2, 7)), dict(alpha=0.4), {},
                        lambda data, report: scores_on_grid(data, 0.01)),
    "quantised-diverse": (quantised(synthetic(2, 7)), dict(alpha=0.45, **DIVERSE), {},
                          lambda data, report: scores_on_grid(data, 0.01) and modified(report)),
    "quantised-coarse-grid": (quantised(synthetic(2, 7)),
                              dict(alpha=0.45, d_lambda=0.05, **DIVERSE), {},
                              lambda data, report: scores_on_grid(data, 0.05)),
    "k1-and-cap1": (synthetic(1, 4), dict(alpha=0.5, family="diverse", max_items=1), {},
                    lambda data, report: min(q.k for q in data) == 1 and modified(report)),
    "k-equals-cap": (synthetic(1, 3), dict(alpha=0.45, family="diverse", max_items=3), {},
                     lambda data, report: max(q.k for q in data) == 3),
    "cap-above-uint8": (synthetic(2, 7), dict(alpha=0.45, family="diverse", max_items=300), {},
                        lambda data, report: not modified(report)),
    "m-abs-above-k": (synthetic(2, 4), dict(alpha=0.3, m_rule=MRule.absolute(5), **DIVERSE),
                      {}, lambda data, report: max(q.k for q in data) < 5),
    "fallback-to-one": (synthetic(2, 7), dict(alpha=0.01, **DIVERSE), {},
                        lambda data, report: all(r.lambda_hat == 1.0 for r in report.records)),
    "empty-grid": (synthetic(2, 7), dict(alpha=0.4, d_lambda=0.6, **DIVERSE), {},
                   lambda data, report: lambda_grid(0.6).size == 0 and not modified(report)),
    "zero-diversity": (collapsed(synthetic(2, 7)), dict(alpha=0.45, **DIVERSE), {},
                       lambda data, report: all(r.n_zero_denominator and r.diversity_ratios.size
                                                for r in report.records)),
    "single-size-sample": (synthetic(2, 7), dict(alpha=0.45, **DIVERSE),
                           dict(single_size_sample=True),
                           lambda data, report: modified(report)),
}


class TestTrialsEqualReference:
    """``run_trials`` gathers from one loss table; each record must equal the long way's."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_records_equal_reference_trials(self, case):
        data, config_args, protocol_args, reached = EQUIVALENCE_CASES[case]
        config = CalibrationConfig(delta=0.2, **config_args)
        protocol = TrialProtocol(n_cal=45, config=config, trials=4, seed=13, **protocol_args)
        report = run_trials(data, protocol)
        assert reached(data, report)
        for record in report.records:
            want = reference_record(data, protocol, record.trial)
            for f in fields(TrialRecord):
                got, ref = getattr(record, f.name), getattr(want, f.name)
                if isinstance(ref, np.ndarray):
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), (case, f.name)
                else:
                    assert got == ref, (case, f.name, got, ref)

    def test_non_finite_test_loss_raises(self, monkeypatch):
        # A NaN test_fdr would count as "not above alpha" and pass unnoticed.
        walk = rankcal.evaluate._walk

        def walk_then_poison(table, rows, config):
            out = walk(table, rows, config)
            table.fdp_by_size[:] = np.nan  # the test split reads after the walk
            return out

        monkeypatch.setattr(rankcal.evaluate, "_walk", walk_then_poison)
        config = CalibrationConfig(alpha=0.4, delta=0.2)
        with pytest.raises(RuntimeError, match="non-finite"):
            run_trials(synthetic(2, 7), TrialProtocol(n_cal=45, config=config, trials=1))

    def test_diverse_query_without_embeddings_fails_before_any_trial(self, monkeypatch):
        data = synthetic(2, 6)
        bare = data[7]
        data[7] = LabeledQuery(bare.query_id, bare.scores, bare.ranking)
        walks = []
        monkeypatch.setattr(rankcal.evaluate, "_walk", lambda *a: walks.append(a))
        config = CalibrationConfig(alpha=0.4, delta=0.2, **DIVERSE)
        protocol = TrialProtocol(n_cal=45, config=config, trials=3, seed=1)
        with pytest.raises(ValueError, match=repr(bare.query_id)):
            run_trials(data, protocol)
        assert walks == []


class TestStratify:
    def test_one_query_per_bin(self):
        strata = _stratify(np.array([1, 2, 3, 4]), np.array([0.0, 0.0, 0.5, 1.0]))
        assert [s.fdr for s in strata] == [0.0, 0.0, 0.5, 1.0]
        assert [s.count for s in strata] == [1, 1, 1, 1]
        assert [s.label for s in strata] == [
            "Short", "Short-Medium", "Medium-Long", "Long"
        ]

    def test_degenerate_sizes_fill_first_bin(self):
        strata = _stratify(np.array([3, 3, 3, 3, 3]), np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert strata[0].count == 5
        assert strata[0].fdr == pytest.approx(0.3)
        for s in strata[1:]:
            assert s.count == 0 and s.fdr is None

    def test_constant_fdp_everywhere(self):
        sizes = np.array([1, 2, 2, 3, 4, 9])
        strata = _stratify(sizes, np.full(sizes.shape, 0.25))
        for s in strata:
            if s.count:
                assert s.fdr == pytest.approx(0.25)

    def test_every_query_lands_in_exactly_one_bin(self, rng):
        sizes = rng.integers(0, 12, size=200)
        losses = rng.uniform(size=200)
        strata = _stratify(sizes, losses)
        assert sum(s.count for s in strata) == 200


class TestStratifiedFdr:
    def make_query(self, qid, ranks):
        k = len(ranks)
        return LabeledQuery(qid, PairwiseScores(np.full((k, k), 0.5)),
                            Ranking(np.array(ranks)))

    def test_end_to_end(self):
        # K=6, m_abs=2: craft sets of sizes 1..4 with FDP 0, 0, 1/3, 1
        queries = [
            self.make_query("a", [1, 2, 3, 4, 5, 6]),
            self.make_query("b", [1, 2, 3, 4, 5, 6]),
            self.make_query("c", [1, 2, 3, 4, 5, 6]),
            self.make_query("d", [3, 4, 5, 6, 1, 2]),
        ]
        sets = [
            PredictionSet([1]),
            PredictionSet([1, 2]),
            PredictionSet([1, 2, 3]),
            PredictionSet([1, 2, 3, 4]),
        ]
        strata = stratified_fdr(queries, sets, MRule.absolute(2))
        assert [s.count for s in strata] == [1, 1, 1, 1]
        assert strata[0].fdr == 0.0
        assert strata[1].fdr == 0.0
        assert strata[2].fdr == pytest.approx(1 / 3)
        assert strata[3].fdr == 1.0

    def test_requires_four_queries(self):
        q = self.make_query("a", [1, 2])
        with pytest.raises(ValueError, match="at least 4"):
            stratified_fdr([q, q, q], [PredictionSet([1])] * 3, MRule.fraction(0.2))


class TestRelativeDiversityImprovement:
    def test_nothing_modified(self):
        data = small_dataset(n=10, diverse=True)
        stats = relative_diversity_improvement(data, 1.0, m_cap=10)
        assert stats.fraction_modified == 0.0
        assert stats.mean_ratio is None

    def test_single_modified_query_mean_is_its_ratio(self):
        from rankcal import diversity, greedy_prune

        data = small_dataset(n=1, seed=123, diverse=True)
        [q] = data
        lam = 0.0  # every item enters the base set
        base = threshold_set(item_scores(q.scores), lam)
        assert len(base) == q.k
        m_cap = q.k - 1
        stats = relative_diversity_improvement(data, lam, m_cap=m_cap)
        expected = diversity(greedy_prune(base, q.embeddings, m_cap), q.embeddings, m_cap)
        expected /= diversity(base, q.embeddings, m_cap)
        assert stats.n_modified == 1
        assert stats.fraction_modified == 1.0
        assert stats.mean_ratio == pytest.approx(expected, abs=1e-12)

    def test_zero_denominator_counted_not_averaged(self):
        k = 3
        q = LabeledQuery(
            "dup",
            PairwiseScores(np.full((k, k), 0.9)),
            Ranking(np.array([1, 2, 3])),
            embeddings=np.zeros((k, 2)),  # coincident points: zero diversity
        )
        stats = relative_diversity_improvement([q], 0.5, m_cap=2)
        assert stats.n_modified == 1
        assert stats.n_zero_denominator == 1
        assert stats.mean_ratio is None

    def test_requires_embeddings(self):
        data = small_dataset(n=2, diverse=False)
        with pytest.raises(ValueError, match="embeddings"):
            relative_diversity_improvement(data, 0.5, m_cap=2)


class TestSweep:
    def test_single_value_matches_run_trials(self):
        data = small_dataset()
        protocol = TrialProtocol(
            n_cal=40, config=CalibrationConfig(alpha=0.35, delta=0.2), trials=2, seed=4
        )
        [row] = sweep("alpha", [0.35], data, protocol)
        report = run_trials(data, protocol)
        assert row.mean_test_fdr == report.mean_test_fdr
        assert row.param == "alpha" and row.value == 0.35

    def test_invalid_param(self):
        protocol = TrialProtocol(
            n_cal=5, config=CalibrationConfig(alpha=0.3, delta=0.1), trials=1
        )
        with pytest.raises(ValueError, match="param"):
            sweep("gamma", [1.0], small_dataset(n=10), protocol)
        with pytest.raises(ValueError, match="at least one"):
            sweep("alpha", [], small_dataset(n=10), protocol)

    def test_max_items_sweep_runs(self):
        data = small_dataset(n=60, diverse=True)
        protocol = TrialProtocol(
            n_cal=30,
            config=CalibrationConfig(alpha=0.4, delta=0.2, family="diverse", max_items=2),
            trials=2,
            seed=6,
        )
        rows = sweep("max_items", [2, 4], data, protocol)
        assert [r.value for r in rows] == [2, 4]
        for r in rows:
            assert r.fraction_modified is not None

    def test_max_items_sweep_rejects_fractional_caps(self):
        data = small_dataset(n=60, diverse=True)
        protocol = TrialProtocol(
            n_cal=30,
            config=CalibrationConfig(alpha=0.4, delta=0.2, family="diverse", max_items=2),
            trials=1,
            seed=6,
        )
        with pytest.raises(ValueError, match="integer max_items"):
            sweep("max_items", [2.7, 2], data, protocol)
        [row] = sweep("max_items", [3.0], data, protocol)
        assert row.value == 3.0
        assert row.mean_test_fdr == run_trials(
            data, TrialProtocol(n_cal=30, config=CalibrationConfig(
                alpha=0.4, delta=0.2, family="diverse", max_items=3), trials=1, seed=6)
        ).mean_test_fdr

    def test_alpha_sweep_equals_separate_runs(self):
        data = small_dataset(n=80, diverse=True)
        base = CalibrationConfig(alpha=0.3, delta=0.2, family="diverse", max_items=2)
        protocol = TrialProtocol(n_cal=40, config=base, trials=3, seed=2)
        rows = sweep("alpha", [0.2, 0.35, 0.5], data, protocol)
        for row in rows:
            config = CalibrationConfig(alpha=row.value, delta=0.2, family="diverse", max_items=2)
            report = run_trials(data, TrialProtocol(n_cal=40, config=config, trials=3, seed=2))
            assert row.mean_test_fdr == report.mean_test_fdr
            assert row.fraction_modified == report.diversity.fraction_modified
            assert row.mean_relative_diversity == report.diversity.mean_ratio
