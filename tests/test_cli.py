import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from rankcal import (
    CalibrationConfig,
    MRule,
    SyntheticSpec,
    calibrate,
    generate_synthetic,
    predict,
)
from rankcal.cli import main
from rankcal.data import load_dataset, read_embeddings, read_scores, write_dataset
from rankcal.risk import derive_m, fdp


@pytest.fixture
def dataset_paths(tmp_path):
    queries = generate_synthetic(
        SyntheticSpec(seed=31, n_queries=80, k_min=2, k_max=6, noise=0.8, embedding_dim=3)
    )
    return write_dataset(tmp_path / "ds", queries), queries


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        assert first.startswith("# manifest=")
        return first, list(csv.DictReader(f))


class TestCalibrateCommand:
    def test_matches_library(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        out = tmp_path / "out"
        code = main([
            "calibrate",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--alpha", "0.4", "--delta", "0.2", "--dlambda", "0.02",
            "--m-frac", "0.25",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out.strip()

        data = load_dataset(paths["scores"], paths["rankings"])
        config = CalibrationConfig(alpha=0.4, delta=0.2, d_lambda=0.02,
                                   m_rule=MRule.fraction(0.25))
        result = calibrate(data, config)
        assert float(stdout) == result.lambda_hat

        manifest = json.loads((out / "calibrate.manifest.json").read_text())
        assert manifest["lambda_hat"] == result.lambda_hat
        assert manifest["stopped_reason"] == result.stopped_reason
        assert manifest["config"]["alpha"] == 0.4
        assert "sha256" in manifest["inputs"]["scores"]

        header, rows = read_csv(out / "trace.csv")
        assert "calibrate.manifest.json" in header
        assert len(rows) == len(result.trace)
        for row, entry in zip(rows, result.trace):
            assert float(row["lambda"]) == entry.lam
            assert float(row["ucb"]) == entry.ucb
            assert row["rejected"] == str(entry.rejected)

    def test_diverse_calibration_matches_library(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        out = tmp_path / "divout"
        code = main([
            "calibrate",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--embeddings", str(paths["embeddings"]),
            "--diverse", "--max-items", "3",
            "--alpha", "0.4", "--delta", "0.2",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out.strip()
        data = load_dataset(paths["scores"], paths["rankings"], paths["embeddings"])
        config = CalibrationConfig(alpha=0.4, delta=0.2, family="diverse", max_items=3)
        assert float(stdout) == calibrate(data, config).lambda_hat

    def test_diverse_needs_embeddings_flag(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        code = main([
            "calibrate",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--diverse", "--max-items", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "--embeddings" in capsys.readouterr().err

    def test_unfilled_loss_table_is_a_traceback_not_a_usage_error(self, dataset_paths,
                                                                   tmp_path, monkeypatch):
        # A NaN loss is a bug inside rankcal, so it must not exit 2 like a bad flag.
        paths, _ = dataset_paths
        module = sys.modules["rankcal.calibrate"]
        profile = module._query_loss_profile

        def unfilled(query, config):
            scores_asc, fdp_by_count, order = profile(query, config)
            return scores_asc, np.full_like(fdp_by_count, np.nan), order

        monkeypatch.setattr(module, "_query_loss_profile", unfilled)
        with pytest.raises(RuntimeError, match="non-finite"):
            main(["calibrate", "--scores", str(paths["scores"]),
                  "--rankings", str(paths["rankings"]), "--out", str(tmp_path / "o")])

    def test_parse_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("query q1 k 2\n0 half\n0.5 0\n")
        ranks = tmp_path / "r.txt"
        ranks.write_text("query q1 k 2\n1 2\n")
        code = main(["calibrate", "--scores", str(bad), "--rankings", str(ranks),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("command", ["calibrate", "predict"])
    def test_missing_input_file_exits_3(self, dataset_paths, tmp_path, capsys, command):
        paths, _ = dataset_paths
        missing = str(tmp_path / "missing.txt")
        if command == "calibrate":
            args = ["calibrate", "--scores", missing, "--rankings", str(paths["rankings"])]
        else:
            args = ["predict", "--scores", str(paths["scores"]), "--manifest", missing]
        assert main(args + ["--out", str(tmp_path / "o")]) == 3
        assert missing in capsys.readouterr().err

    def test_uncreatable_out_dir_exits_2(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["calibrate", "--scores", str(paths["scores"]),
                     "--rankings", str(paths["rankings"]),
                     "--out", str(blocker / "o")]) == 2
        assert str(blocker) in capsys.readouterr().err

    def test_strict_guarantee_exits_4(self, tmp_path, capsys):
        queries = generate_synthetic(
            SyntheticSpec(seed=1, n_queries=2, k_min=2, k_max=3, embedding_dim=None)
        )
        paths = write_dataset(tmp_path / "tiny", queries)
        args = ["calibrate", "--scores", str(paths["scores"]),
                "--rankings", str(paths["rankings"]),
                "--alpha", "0.3", "--delta", "0.1", "--out", str(tmp_path / "o")]
        assert main(args) == 0  # warned, not failed
        assert "warning" in capsys.readouterr().err
        assert main(args + ["--strict-guarantee"]) == 4

    def test_sweep_strict_guarantee_exits_4(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        args = ["sweep", "--scores", str(paths["scores"]),
                "--rankings", str(paths["rankings"]),
                "--param", "alpha", "--values", "0.3,0.9", "--delta", "0.1",
                "--trials", "1", "--ncal", "5", "--out", str(tmp_path / "o")]
        assert main(args) == 0  # warned for alpha 0.3 only, not failed
        assert capsys.readouterr().err.count("warning") == 1
        assert main(args + ["--strict-guarantee"]) == 4
        # evaluate agrees at the same split size
        assert main(["evaluate", *args[1:5], "--alpha", "0.3", "--trials", "1",
                     "--ncal", "5", "--strict-guarantee",
                     "--out", str(tmp_path / "e")]) == 4

    def test_unknown_bound_exits_2(self, dataset_paths, tmp_path):
        paths, _ = dataset_paths
        code = main(["calibrate", "--scores", str(paths["scores"]),
                     "--rankings", str(paths["rankings"]),
                     "--bound", "bogus", "--out", str(tmp_path / "o")])
        assert code == 2


class TestPredictCommand:
    def test_rows_match_library(self, dataset_paths, capsys):
        paths, queries = dataset_paths
        code = main([
            "predict",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--lambda", "0.55",
        ])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        rows = list(csv.DictReader(out_lines))
        assert len(rows) == len(queries)
        config = CalibrationConfig(alpha=0.3, delta=0.1)
        for row, q in zip(rows, queries):
            pred = predict(q, 0.55, config)
            assert row["query_id"] == q.query_id
            assert int(row["size"]) == len(pred)
            items = tuple(int(t) for t in row["items"].split()) if row["items"] else ()
            assert items == pred.items
            expected = fdp(pred, q.ranking, derive_m(q.k, config.m_rule))
            assert float(row["fdp"]) == expected

    def test_diverse_prediction(self, dataset_paths, capsys):
        paths, queries = dataset_paths
        code = main([
            "predict",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--embeddings", str(paths["embeddings"]),
            "--diverse", "--max-items", "2",
            "--lambda", "0.3",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=2)
        for row, q in zip(rows, queries):
            assert int(row["size"]) == len(predict(q, 0.3, config))
            assert int(row["size"]) <= 2

    def test_lambda_one_gives_empty_sets(self, dataset_paths, capsys):
        paths, _ = dataset_paths
        main(["predict", "--scores", str(paths["scores"]), "--lambda", "1.0"])
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert all(row["size"] == "0" for row in rows)

    def test_unlabeled_mode_has_no_fdp(self, dataset_paths, capsys):
        paths, _ = dataset_paths
        main(["predict", "--scores", str(paths["scores"]), "--lambda", "0.5"])
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert all(row["fdp"] == "" for row in rows)

    def test_unlabeled_diverse_matches_bare_score_library(self, dataset_paths, capsys):
        paths, _ = dataset_paths
        code = main([
            "predict",
            "--scores", str(paths["scores"]),
            "--embeddings", str(paths["embeddings"]),
            "--diverse", "--max-items", "2",
            "--lambda", "0.3",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=2)
        embeddings = dict(read_embeddings(paths["embeddings"]))
        score_pairs = read_scores(paths["scores"])
        assert len(rows) == len(score_pairs)
        pruned = 0
        for row, (qid, scores) in zip(rows, score_pairs):
            base = predict(scores, 0.3, CalibrationConfig(alpha=0.3, delta=0.1))
            pred = predict(scores, 0.3, config, embeddings=embeddings[qid])
            pruned += len(base) > len(pred)
            assert row["query_id"] == qid
            assert row["items"] == " ".join(str(i) for i in pred.items)
            assert row["fdp"] == ""
        assert pruned  # the cap was active on some queries

    @pytest.mark.parametrize("labeled", [True, False], ids=["rankings", "bare-scores"])
    def test_embeddings_row_mismatch_exits_3(self, tmp_path, capsys, labeled):
        scores = tmp_path / "s.txt"
        scores.write_text("query q1 k 2\n0 0.6\n0.4 0\n")
        ranks = tmp_path / "r.txt"
        ranks.write_text("query q1 k 2\n1 2\n")
        emb = tmp_path / "e.txt"
        emb.write_text("query q1 k 3 d 1\n0.0\n1.0\n2.0\n")
        args = ["predict", "--scores", str(scores), "--embeddings", str(emb),
                "--diverse", "--max-items", "1", "--lambda", "0.3"]
        if labeled:
            args += ["--rankings", str(ranks)]
        assert main(args) == 3
        assert "'q1'" in capsys.readouterr().err

    @pytest.mark.parametrize("file,labeled", [
        ("scores", True), ("rankings", True), ("embeddings", True),
        ("scores", False), ("embeddings", False),
    ], ids=["scores", "rankings", "embeddings", "scores-bare", "embeddings-bare"])
    def test_repeated_query_id_exits_3(self, tmp_path, capsys, file, labeled):
        blocks = {
            "scores": ["query q1 k 2\n0 0.6\n0.4 0\n", "query q2 k 2\n0 0.3\n0.7 0\n"],
            "rankings": ["query q1 k 2\n1 2\n", "query q2 k 2\n2 1\n"],
            "embeddings": ["query q1 k 2 d 1\n0.0\n1.0\n", "query q2 k 2 d 1\n5.0\n9.0\n"],
        }
        # q1 repeated with q2's block: whichever copy won, the run would look valid
        blocks[file].append(blocks[file][1].replace("q2", "q1"))
        paths = {}
        for name, text in blocks.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text("".join(text))
        args = ["predict", "--scores", str(paths["scores"]),
                "--embeddings", str(paths["embeddings"]),
                "--diverse", "--max-items", "1", "--lambda", "0.3"]
        if labeled:
            args += ["--rankings", str(paths["rankings"])]
        assert main(args) == 3
        assert f"duplicate query id 'q1' in {file}" in capsys.readouterr().err

    def test_lambda_out_of_range(self, dataset_paths, capsys):
        paths, _ = dataset_paths
        assert main(["predict", "--scores", str(paths["scores"]),
                     "--lambda", "1.5"]) == 2

    def test_manifest_source_for_lambda(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        out = tmp_path / "cal"
        main(["calibrate", "--scores", str(paths["scores"]),
              "--rankings", str(paths["rankings"]), "--out", str(out)])
        lam = capsys.readouterr().out.strip()
        main(["predict", "--scores", str(paths["scores"]),
              "--manifest", str(out / "calibrate.manifest.json")])
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert rows  # ran with the calibrated threshold
        assert main(["predict", "--scores", str(paths["scores"]),
                     "--lambda", lam, "--manifest",
                     str(out / "calibrate.manifest.json")]) == 2

    @pytest.mark.parametrize("flags, named", [
        ([], "family='diverse', but the flags give family='plain'"),
        (["--diverse", "--max-items", "3"], "max_items=2, but the flags give max_items=3"),
        (["--diverse", "--max-items", "2", "--m-abs", "1"], "m_rule="),
    ])
    def test_manifest_contract_mismatch_exits_2(self, dataset_paths, tmp_path, capsys,
                                                flags, named):
        paths, _ = dataset_paths
        data = [arg for kind, path in paths.items() for arg in (f"--{kind}", str(path))]
        out = tmp_path / "cal"
        assert main(["calibrate", *data, "--diverse", "--max-items", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = str(out / "calibrate.manifest.json")
        assert main(["predict", *data, *flags, "--manifest", manifest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_manifest_with_matching_flags_predicts(self, dataset_paths, tmp_path, capsys):
        paths, queries = dataset_paths
        data = [arg for kind, path in paths.items() for arg in (f"--{kind}", str(path))]
        out = tmp_path / "cal"
        assert main(["calibrate", *data, "--diverse", "--max-items", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "calibrate.manifest.json").read_text())
        # alpha, delta and dlambda do not enter prediction, so they need not match
        assert main(["predict", *data, "--diverse", "--max-items", "2", "--alpha", "0.2",
                     "--delta", "0.05", "--dlambda", "0.02",
                     "--manifest", str(out / "calibrate.manifest.json")]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        config = CalibrationConfig(alpha=0.3, delta=0.1, family="diverse", max_items=2)
        assert len(rows) == len(queries)
        for row, q in zip(rows, queries):
            want = predict(q, manifest["lambda_hat"], config)
            assert row["items"] == " ".join(str(i) for i in want.items)
            assert int(row["size"]) <= 2

    @pytest.mark.parametrize("content", [
        "[]",
        '{"config": {}}',
        '{"lambda_hat": 0.5}',
        '{"lambda_hat": "0.5", "config": {}}',
        "not json",
    ])
    def test_malformed_manifest_exits_3(self, dataset_paths, tmp_path, capsys, content):
        paths, _ = dataset_paths
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(content)
        assert main(["predict", "--scores", str(paths["scores"]),
                     "--manifest", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(bad) in captured.err


class TestEvaluateAndSweep:
    def test_evaluate_writes_reports(self, dataset_paths, tmp_path):
        paths, _ = dataset_paths
        out = tmp_path / "ev"
        code = main([
            "evaluate",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--alpha", "0.4", "--delta", "0.2",
            "--trials", "3", "--ncal", "40", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        _, trials = read_csv(out / "trials.csv")
        assert len(trials) == 3
        assert set(trials[0]) == {
            "trial", "lambda_hat", "stopped_reason", "test_fdr",
            "mean_set_size", "sampled_set_size",
        }
        _, strata = read_csv(out / "strata.csv")
        assert [s["label"] for s in strata] == [
            "Short", "Short-Medium", "Medium-Long", "Long"
        ]
        report = json.loads((out / "report.json").read_text())
        assert len(report["trials"]) == 3
        assert report["manifest"] == "evaluate.manifest.json"

    def test_evaluate_reports_trials_exceeding_alpha(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        out = tmp_path / "ev"
        assert main(["evaluate", "--scores", str(paths["scores"]),
                     "--rankings", str(paths["rankings"]), "--alpha", "0.5", "--delta", "0.3",
                     "--trials", "6", "--ncal", "60", "--seed", "3", "--out", str(out)]) == 0
        _, trials = read_csv(out / "trials.csv")
        exceeding = sum(float(t["test_fdr"]) > 0.5 for t in trials)
        assert 0 < exceeding < 6  # both sides of alpha occur, so the count is tested
        err = capsys.readouterr().err.splitlines()
        line = err.index(f"exceeding_alpha={exceeding}/6 (delta=0.3)")
        assert err[line - 1].startswith("mean_test_fdr=")

    def test_sweep_table(self, dataset_paths, tmp_path):
        paths, _ = dataset_paths
        out = tmp_path / "sw"
        code = main([
            "sweep",
            "--scores", str(paths["scores"]),
            "--rankings", str(paths["rankings"]),
            "--embeddings", str(paths["embeddings"]),
            "--diverse", "--max-items", "2",
            "--param", "alpha", "--values", "0.3,0.5",
            "--trials", "2", "--ncal", "40", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [float(r["value"]) for r in rows] == [0.3, 0.5]
        assert all(r["fraction_modified"] != "" for r in rows)

    def test_sweep_fractional_max_items_exits_2(self, dataset_paths, tmp_path, capsys):
        paths, _ = dataset_paths
        out = tmp_path / "sw"
        args = ["sweep", *(arg for kind in ("scores", "rankings", "embeddings")
                           for arg in (f"--{kind}", str(paths[kind]))),
                "--diverse", "--max-items", "3", "--param", "max-items",
                "--trials", "1", "--ncal", "40", "--out", str(out)]
        assert main(args + ["--values", "2.7,2"]) == 2
        assert "integer max_items" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert main(args + ["--values", "2.0,3"]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [float(r["value"]) for r in rows] == [2.0, 3.0]


class TestSynthCommand:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--seed", "7", "--queries", "12", "--k-min", "2",
                "--k-max", "5", "--dim", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("synth.scores.txt", "synth.rankings.txt", "synth.embeddings.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RANKCAL_OUT", str(tmp_path / "envout"))
        assert main(["synth", "--seed", "3", "--queries", "2",
                     "--k-min", "2", "--k-max", "2"]) == 0
        assert (tmp_path / "envout" / "synth.scores.txt").exists()

    def test_synth_output_loads(self, tmp_path, capsys):
        main(["synth", "--seed", "5", "--queries", "6", "--k-min", "2",
              "--k-max", "4", "--dim", "2", "--out", str(tmp_path)])
        data = load_dataset(tmp_path / "synth.scores.txt",
                            tmp_path / "synth.rankings.txt",
                            tmp_path / "synth.embeddings.txt")
        expected = generate_synthetic(
            SyntheticSpec(seed=5, n_queries=6, k_min=2, k_max=4, noise=0.5,
                          embedding_dim=2)
        )
        assert data == expected


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rankcal", "synth", "--seed", "2",
             "--queries", "2", "--k-min", "2", "--k-max", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "synth.scores.txt").exists()

    def test_scipy_never_imported(self):
        probe = "import rankcal, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # -X importtime lists every module the command imports on stderr.
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "rankcal", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "rankcal.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main_raw = __import__("rankcal.cli", fromlist=["build_parser"])
            main_raw.build_parser().parse_args(["--version"])
