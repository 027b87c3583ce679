"""The experiment scripts run end to end at tiny sizes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("family", [[], ["--diverse", "--max-items", "2"]])
def test_validity_experiment(tmp_path, family):
    stdout = run_script(
        "run_validity_experiment.py", "--trials", "3", "--queries", "60", "--ncal", "30",
        "--alpha", "0.4", "--delta", "0.2", *family, "--out", str(tmp_path),
    )
    assert "mean_test_fdr=" in stdout
    assert len(read_rows(tmp_path / "trials.csv")) == 3
    assert len(read_rows(tmp_path / "strata.csv")) == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["diversity"] is not None) == bool(family)


def test_diversity_sweep(tmp_path):
    stdout = run_script(
        "run_diversity_sweep.py", "--alphas", "0.3,0.5", "--caps", "2,4", "--trials", "2",
        "--queries", "60", "--ncal", "30", "--out", str(tmp_path),
    )
    assert "alpha sweep" in stdout and "cap sweep" in stdout
    alpha_rows = read_rows(tmp_path / "alpha_sweep.csv")
    cap_rows = read_rows(tmp_path / "cap_sweep.csv")
    assert [float(r["value"]) for r in alpha_rows] == [0.3, 0.5]
    assert [float(r["value"]) for r in cap_rows] == [2, 4]
    assert all(r["fraction_modified"] != "" for r in alpha_rows + cap_rows)
