#!/usr/bin/env python3
"""Sweep the FDR target and the set-size cap for the diversity-pruned family.

Looser alpha admits bigger thresholded sets, so the pruning touches a larger
fraction of them; raising the cap has the opposite effect. This script traces
both curves on seeded synthetic data and writes one CSV per sweep.

    python scripts/run_diversity_sweep.py --out results/sweeps
"""

import argparse
from pathlib import Path

from rankcal import (
    CalibrationConfig,
    SyntheticSpec,
    TrialProtocol,
    generate_synthetic,
    sweep,
)
from rankcal.data import write_sweep_csv


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--caps", default="2,3,4,5,6,7,8,9")
    p.add_argument("--base-alpha", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--max-items", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--queries", type=int, default=2000)
    p.add_argument("--ncal", type=int, default=800)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--out", default="results/sweeps")
    return p.parse_args()


def show(rows):
    for r in rows:
        ratio = "---" if r.mean_relative_diversity is None else f"{r.mean_relative_diversity:.4f}"
        frac = "---" if r.fraction_modified is None else f"{r.fraction_modified:.4f}"
        print(f"  {r.param}={r.value:<6} mean_test_fdr={r.mean_test_fdr:.4f} "
              f"diversity_ratio={ratio} fraction_modified={frac}")


def main():
    args = parse_args()
    data = generate_synthetic(SyntheticSpec(
        seed=args.seed, n_queries=args.queries, k_min=4, k_max=14,
        noise=0.8, embedding_dim=8,
    ))
    config = CalibrationConfig(
        alpha=args.base_alpha, delta=args.delta,
        family="diverse", max_items=args.max_items,
    )
    protocol = TrialProtocol(n_cal=args.ncal, config=config,
                             trials=args.trials, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    alphas = [float(v) for v in args.alphas.split(",")]
    print(f"alpha sweep over {alphas}")
    rows = sweep("alpha", alphas, data, protocol)
    show(rows)
    write_sweep_csv(out / "alpha_sweep.csv", rows)

    caps = [int(float(v)) for v in args.caps.split(",")]
    print(f"cap sweep over {caps}")
    rows = sweep("max_items", caps, data, protocol)
    show(rows)
    write_sweep_csv(out / "cap_sweep.csv", rows)
    print(f"wrote {out}/alpha_sweep.csv, {out}/cap_sweep.csv")


if __name__ == "__main__":
    main()
