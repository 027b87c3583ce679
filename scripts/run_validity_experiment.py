#!/usr/bin/env python3
"""Repeated-split risk experiment on synthetic data, writing figure-ready CSVs.

Generates a seeded synthetic ranking dataset, runs the repeated
calibration/test-split protocol, and writes the per-trial risk and set-size
records plus the size-stratified risk table. Histogram the ``test_fdr``
column to see the guarantee in action: at most a delta-fraction of trials
should land above alpha, and typically far fewer.

    python scripts/run_validity_experiment.py --out results/validity
    python scripts/run_validity_experiment.py --diverse --max-items 3
"""

import argparse
from pathlib import Path

from rankcal import (
    CalibrationConfig,
    SyntheticSpec,
    TrialProtocol,
    generate_synthetic,
    run_trials,
)
from rankcal.data import write_report_json, write_strata_csv, write_trials_csv


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--queries", type=int, default=6000)
    p.add_argument("--ncal", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.6)
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--diverse", action="store_true")
    p.add_argument("--max-items", type=int, default=3)
    p.add_argument("--out", default="results/validity")
    return p.parse_args()


def main():
    args = parse_args()
    data = generate_synthetic(SyntheticSpec(
        seed=args.seed,
        n_queries=args.queries,
        k_min=args.k_min,
        k_max=args.k_max,
        noise=args.noise,
        embedding_dim=8 if args.diverse else None,
    ))
    config = CalibrationConfig(
        alpha=args.alpha,
        delta=args.delta,
        family="diverse" if args.diverse else "plain",
        max_items=args.max_items if args.diverse else None,
    )
    protocol = TrialProtocol(n_cal=args.ncal, config=config,
                             trials=args.trials, seed=args.seed)
    report = run_trials(data, protocol)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(out / "trials.csv", report.records)
    write_strata_csv(out / "strata.csv", report.strata)
    write_report_json(out / "report.json", report)

    risks = [r.test_fdr for r in report.records]
    exceed = sum(r > args.alpha for r in risks)
    print(f"trials={args.trials} mean_test_fdr={report.mean_test_fdr:.4f} "
          f"exceeding_alpha={exceed}/{args.trials} (tolerance {args.delta})")
    for i, s in enumerate(report.strata):
        fdr = "undefined" if s.fdr is None else f"{s.fdr:.4f}"
        lo_bracket = "[" if i == 0 else "("
        print(f"  {s.label:<12} sizes {lo_bracket}{s.size_lo}, {s.size_hi}] "
              f"n={s.count:<6} FDR={fdr}")
    if report.diversity:
        d = report.diversity
        ratio = "undefined" if d.mean_ratio is None else f"{d.mean_ratio:.4f}"
        print(f"  diversity: fraction_modified={d.fraction_modified:.4f} mean_ratio={ratio}")
    print(f"wrote {out}/trials.csv, strata.csv, report.json")


if __name__ == "__main__":
    main()
