import io
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankcal import (
    CalibrationConfig,
    ParseError,
    RawQuery,
    SchemaError,
    SyntheticSpec,
    calibrate,
    generate_synthetic,
    item_scores,
    pairwise_from_utilities,
    parse_letor,
    ranking_from_relevance,
)
from rankcal.data import (
    assemble_queries,
    load_dataset,
    read_embeddings,
    read_rankings,
    read_scores,
    write_dataset,
    write_scores,
)


class TestParseLetor:
    def test_single_line(self):
        [q] = parse_letor("2 qid:10 1:0.5 5:1.25 # note")
        assert q == RawQuery("10", (2,), ({1: 0.5, 5: 1.25},))

    def test_empty_input(self):
        assert parse_letor("") == []
        assert parse_letor(b"") == []

    def test_blank_and_comment_lines_skipped(self):
        text = "\n# full comment line\n1 qid:3 1:1.0\n\n"
        [q] = parse_letor(text)
        assert q.query_id == "3"

    def test_groups_consecutive_qids(self):
        text = "1 qid:a 1:0.0\n2 qid:a 1:1.0\n0 qid:b 1:2.0\n1 qid:a 1:3.0\n"
        queries = parse_letor(text)
        # a reappearing qid starts a fresh group; grouping is by consecutive runs
        assert [q.query_id for q in queries] == ["a", "b", "a"]
        assert queries[0].relevance == (1, 2)

    def test_features_may_be_absent(self):
        [q] = parse_letor("3 qid:z")
        assert q.features == ({},)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("x qid:1 1:0.5", "not an integer"),
            ("-1 qid:1 1:0.5", "negative"),
            ("2 1:0.5", "missing qid"),
            ("2 qid: 1:0.5", "empty qid"),
            ("2 qid:1 1:0.5 1:0.6", "not increasing"),
            ("2 qid:1 5:0.5 3:0.2", "not increasing"),
            ("2 qid:1 0:0.5", "must be >= 1"),
            ("2 qid:1 1:abc", "not <int>:<float>"),
            ("2 qid:1 nocolon", "not <idx>:<val>"),
            ("2 qid:1 1:inf", "not finite"),
        ],
    )
    def test_malformed_lines(self, line, match):
        with pytest.raises(ParseError, match=match):
            parse_letor(f"0 qid:0 1:0.0\n{line}")
        try:
            parse_letor(f"0 qid:0 1:0.0\n{line}")
        except ParseError as exc:
            assert exc.line == 2

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_letor(b"1 qid:1 1:0.5\n\xff\xfe broken")

    def test_fifty_line_fixture_round_trips(self):
        rng = np.random.default_rng(50)
        queries = []
        lines = []
        qid = 0
        while len(lines) < 50:
            qid += 1
            n_items = int(rng.integers(1, 6))
            n_items = min(n_items, 50 - len(lines))
            rels = tuple(int(r) for r in rng.integers(0, 5, n_items))
            feats = tuple(
                {int(i): float(round(v, 6)) for i, v in
                 zip(sorted(rng.choice(20, size=3, replace=False) + 1), rng.normal(size=3))}
                for _ in range(n_items)
            )
            queries.append(RawQuery(str(qid), rels, feats))
            lines += [" ".join([f"{rel} qid:{qid}", *(f"{i}:{v!r}" for i, v in f.items())])
                      for rel, f in zip(rels, feats)]
        text = "\n".join(lines) + "\n"
        assert text.count("\n") == 50
        assert parse_letor(text) == queries

    def test_accepts_file_objects(self):
        assert parse_letor(io.StringIO("1 qid:7 1:0.5"))[0].query_id == "7"

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))))
            try:
                parse_letor(blob)
            except ParseError:
                pass


class TestRankingFromRelevance:
    def test_graded_with_ties(self):
        assert ranking_from_relevance([3, 1, 3, 0]).ranks.tolist() == [1, 3, 2, 4]

    def test_all_equal_keeps_order(self):
        assert ranking_from_relevance([2, 2, 2]).ranks.tolist() == [1, 2, 3]

    def test_two_items(self):
        assert ranking_from_relevance([0, 5]).ranks.tolist() == [2, 1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ranking_from_relevance([])
        with pytest.raises(ValueError):
            ranking_from_relevance([1.0, np.nan])

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=25))
    def test_always_a_permutation(self, labels):
        ranking = ranking_from_relevance(labels)
        assert sorted(ranking.ranks.tolist()) == list(range(1, len(labels) + 1))
        # within every tied block, earlier input items get better ranks
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if labels[i] == labels[j]:
                    assert ranking.ranks[i] < ranking.ranks[j]


class TestPairwiseFromUtilities:
    def test_logistic_value(self):
        scores = pairwise_from_utilities(np.array([1.0, 0.0]), 1.0)
        assert scores.probs[0, 1] == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_equal_utilities_are_coin_flips(self):
        scores = pairwise_from_utilities(np.array([2.0, 2.0]), 1.0)
        assert scores.probs[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_low_temperature_saturates(self):
        # exp overflows on the losing side; that must be silent and give exactly 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = pairwise_from_utilities([1.0, 0.0], 1e-6)
        assert scores.probs[0, 1] == 1.0
        assert scores.probs[1, 0] == 0.0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            pairwise_from_utilities(np.array([1.0]), 0.0)

    # utilities on a 1e-3 grid: gaps below float resolution make the logistic
    # land on exactly 0.5, which is fp noise rather than an order violation
    @given(st.lists(st.integers(min_value=-20000, max_value=20000), min_size=2, max_size=12),
           st.floats(min_value=0.05, max_value=5.0))
    def test_complementary_and_order_consistent(self, milli_utilities, temperature):
        utilities = [u / 1000 for u in milli_utilities]
        scores = pairwise_from_utilities(np.array(utilities), temperature)
        p = scores.probs
        off = ~np.eye(len(utilities), dtype=bool)
        np.testing.assert_allclose((p + p.T)[off], 1.0, atol=1e-12)
        for i in range(len(utilities)):
            for j in range(len(utilities)):
                if utilities[i] > utilities[j]:
                    assert p[i, j] > 0.5


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, n_queries=5, k_min=0, k_max=3)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, n_queries=5, k_min=3, k_max=2)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, n_queries=5, k_min=1, k_max=2, noise=-0.1)

    def test_same_seed_same_data(self):
        spec = SyntheticSpec(seed=13, n_queries=20, k_min=2, k_max=6)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(seed=1, n_queries=5, k_min=3, k_max=3))
        b = generate_synthetic(SyntheticSpec(seed=2, n_queries=5, k_min=3, k_max=3))
        assert a != b

    def test_noiseless_model_is_perfectly_ordered(self):
        spec = SyntheticSpec(seed=5, n_queries=30, k_min=2, k_max=8, noise=0.0)
        for q in generate_synthetic(spec):
            s = item_scores(q.scores)
            # the best-scored item should be rank 1, next rank 2, ...
            by_score = np.argsort(-s, kind="stable")
            assert q.ranking.ranks[by_score].tolist() == list(range(1, q.k + 1))

    def test_heavy_noise_raises_threshold(self):
        base = dict(n_queries=400, k_min=3, k_max=8, embedding_dim=None)
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        exact = calibrate(generate_synthetic(SyntheticSpec(seed=77, noise=0.0, **base)), config)
        noisy = calibrate(
            generate_synthetic(SyntheticSpec(seed=77, noise=100.0, **base)), config
        )
        assert noisy.lambda_hat > exact.lambda_hat

    def test_embeddings_optional(self):
        spec = SyntheticSpec(seed=3, n_queries=2, k_min=2, k_max=2, embedding_dim=None)
        assert all(q.embeddings is None for q in generate_synthetic(spec))
        spec = SyntheticSpec(seed=3, n_queries=2, k_min=2, k_max=2, embedding_dim=4)
        assert all(q.embeddings.shape == (2, 4) for q in generate_synthetic(spec))


class TestBlockFiles:
    def make_dataset(self, n=3, with_embeddings=True):
        return generate_synthetic(
            SyntheticSpec(seed=17, n_queries=n, k_min=2, k_max=5,
                          embedding_dim=3 if with_embeddings else None)
        )

    def test_round_trip_structural_equality(self, tmp_path):
        data = self.make_dataset()
        paths = write_dataset(tmp_path / "ds", data)
        again = load_dataset(paths["scores"], paths["rankings"], paths["embeddings"])
        assert again == data

    def test_round_trip_is_byte_stable(self, tmp_path):
        data = self.make_dataset()
        paths = write_dataset(tmp_path / "a", data)
        again = load_dataset(paths["scores"], paths["rankings"], paths["embeddings"])
        paths2 = write_dataset(tmp_path / "b", again)
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes()

    def test_single_item_blocks_and_one_dim_embeddings_round_trip(self, tmp_path):
        data = generate_synthetic(
            SyntheticSpec(seed=23, n_queries=12, k_min=1, k_max=3, embedding_dim=1)
        )
        assert {q.k for q in data} == {1, 2, 3}
        paths = write_dataset(tmp_path / "a", data)
        again = load_dataset(paths["scores"], paths["rankings"], paths["embeddings"])
        assert again == data
        paths2 = write_dataset(tmp_path / "b", again)
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes()
        assert "query synth-23-" in paths["embeddings"].read_text()
        assert all(len(line.split()) == 1
                   for line in paths["embeddings"].read_text().splitlines()
                   if not line.startswith("query"))

    def test_scores_diagonal_written_as_zero(self):
        data = self.make_dataset(n=1, with_embeddings=False)
        buf = io.StringIO()
        write_scores(buf, [(q.query_id, q.scores) for q in data])
        first_row = buf.getvalue().splitlines()[1].split()
        assert first_row[0] == "0.0"

    def test_missing_rows_schema_error(self):
        text = "query q1 k 3\n0 0.5 0.5\n0.5 0 0.5\n"
        with pytest.raises(SchemaError, match="q1"):
            read_scores(io.StringIO(text))

    def test_out_of_range_score_reports_coordinates(self):
        text = "query q9 k 2\n0 1.5\n0.5 0\n"
        with pytest.raises(SchemaError, match=r"row 1, column 2"):
            read_scores(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(SchemaError, match="expected field 'k'"):
            read_scores(io.StringIO("query q1 n 2\n"))
        with pytest.raises(SchemaError, match="expected header"):
            read_scores(io.StringIO("0.5 0.5\n"))

    def test_non_numeric_cell(self):
        with pytest.raises(SchemaError, match="non-numeric"):
            read_scores(io.StringIO("query q1 k 2\n0 x\n0.5 0\n"))

    def test_wrong_width_row(self):
        with pytest.raises(SchemaError, match="expected 2 values"):
            read_scores(io.StringIO("query q1 k 2\n0 0.5 0.5\n0.5 0\n"))

    def test_ranking_must_be_permutation(self):
        with pytest.raises(SchemaError, match="permutation"):
            read_rankings(io.StringIO("query q1 k 3\n1 1 2\n"))

    @pytest.mark.parametrize(
        "reader,text,match",
        [
            (read_scores, "query q1 k 2\n0 0.5\n0.5 0\nquery q2 k 3\n0 0.5 0.5\n",
             r"query 'q2', line 4: .*3 data rows, only 1 follow"),
            (read_scores, "query q1 k 3\n0 0.5 0.5\n0.5 0 0.5\nquery q2 k 2\n0 1\n1 0\n",
             r"query 'q1', line 1: .*3 data rows, only 2 follow"),
            (read_rankings, "query q1 k 2\n1 2\nquery q2 k 3\n\n1 2\n",
             r"query 'q2', line 5: expected 3 values, got 2"),
            (read_embeddings, "query q1 k 2 d 2\n0 1\n\n2 3 4\n",
             r"query 'q1', line 4: expected 2 values, got 3"),
            (read_embeddings, "query q1 k 1 d 2\n0 1\nquery q2 k 2 d 2\n0 1\n2 y\n",
             r"query 'q2', line 5: non-numeric"),
            (read_embeddings, "query q1 k 1 d 0\n\n",
             r"query 'q1', line 1: field 'd' must be >= 1, got 0"),
            (read_rankings, "\nquery q1 k 2.0\n1 2\n",
             r"query 'q1', line 2: field 'k' value '2.0' not an integer"),
            (read_rankings, "query q k 2\n1.5 2\n", r"query 'q', line 2: non-numeric"),
        ],
        ids=["rows-missing-at-end", "rows-missing-before-header", "ranking-width",
             "embedding-width", "embedding-non-numeric", "field-below-one",
             "field-non-integer", "rank-non-integer"],
    )
    def test_errors_name_query_and_line(self, reader, text, match):
        with pytest.raises(SchemaError, match=match):
            reader(io.StringIO(text))

    def test_embeddings_header_and_values(self):
        good = "query q1 k 2 d 3\n0.0 1.0 2.0\n3.0 4.0 5.0\n"
        [(qid, mat)] = read_embeddings(io.StringIO(good))
        assert qid == "q1" and mat.shape == (2, 3)
        with pytest.raises(SchemaError, match="not finite"):
            read_embeddings(io.StringIO("query q1 k 1 d 2\nnan 0.0\n"))

    def test_assemble_requires_matching_ids(self):
        data = self.make_dataset()
        scores = [(q.query_id, q.scores) for q in data]
        rankings = [(q.query_id, q.ranking) for q in data]
        embeddings = [(q.query_id, q.embeddings) for q in data]
        assert assemble_queries(scores, rankings, embeddings) == data
        with pytest.raises(SchemaError, match="no ranking"):
            assemble_queries(scores, rankings[:-1], None)
        with pytest.raises(SchemaError, match="no embeddings"):
            assemble_queries(scores, rankings, embeddings[:-1])
        with pytest.raises(SchemaError, match="duplicate"):
            assemble_queries(scores + scores[:1], rankings, None)

    @pytest.mark.parametrize("file", ["scores", "rankings", "embeddings"])
    def test_assemble_rejects_a_repeated_id_in_any_file(self, file):
        data = self.make_dataset()
        pairs = {
            "scores": [(q.query_id, q.scores) for q in data],
            "rankings": [(q.query_id, q.ranking) for q in data],
            "embeddings": [(q.query_id, q.embeddings) for q in data],
        }
        # the repeat carries another query's record, so neither copy can silently win
        pairs[file].append((data[0].query_id, pairs[file][1][1]))
        with pytest.raises(SchemaError, match=f"duplicate query id '{data[0].query_id}' in {file}"):
            assemble_queries(pairs["scores"], pairs["rankings"], pairs["embeddings"])

    def test_write_dataset_rejects_partial_embeddings(self, tmp_path):
        mixed = self.make_dataset(2, with_embeddings=True)
        stripped = self.make_dataset(2, with_embeddings=False)
        with pytest.raises(ValueError, match="embeddings"):
            write_dataset(tmp_path / "m", [mixed[0], stripped[1]])
