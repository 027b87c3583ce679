"""Command-line surface: calibrate / predict / evaluate / sweep / synth.

Every command is a thin adapter over the library -- outputs are exactly what
the corresponding library calls produce on the parsed inputs. Data goes to
stdout (or files under ``--out``); diagnostics go to stderr. A JSON manifest
recording the resolved configuration, seeds, and input digests accompanies
every artifact so any report can be traced to what produced it.

Exit codes: 0 success; 2 argument errors, and any other OS error such as an
``--out`` that cannot be created; 3 an input file (``--scores``,
``--rankings``, ``--embeddings``, ``--manifest``) that is missing, unreadable
or fails to parse; 4 guarantee-impossible configuration under
``--strict-guarantee``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .calibrate import CalibrationConfig, calibrate, predict
from .data import (
    ParseError,
    SchemaError,
    SyntheticSpec,
    _join_by_id,
    generate_synthetic,
    load_dataset,
    read_embeddings,
    read_scores,
    write_dataset,
    write_json,
    write_predictions_csv,
    write_report_json,
    write_strata_csv,
    write_sweep_csv,
    write_trace_csv,
    write_trials_csv,
)
from .evaluate import TrialProtocol, run_trials, sweep
from .risk import MRule, derive_m, fdp, hoeffding_ucb

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARANTEE = 4

OUTPUT_DIR_ENV = "RANKCAL_OUT"


class _UsageError(ValueError):
    pass


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_dataset_flags(p: argparse.ArgumentParser, rankings_required: bool = True):
    p.add_argument("--scores", required=True, help="pairwise score file")
    p.add_argument("--rankings", required=rankings_required, help="ranking file")
    p.add_argument("--embeddings", help="embedding file (required with --diverse)")


def _add_config_flags(p: argparse.ArgumentParser, strict_flag: bool = True):
    p.add_argument("--alpha", type=float, default=0.3, help="target FDR level in (0,1)")
    p.add_argument("--delta", type=float, default=0.1, help="error tolerance in (0,1)")
    p.add_argument("--dlambda", type=float, default=0.01, help="threshold grid step")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m-frac", type=float, default=None,
                       help="acceptable items as a fraction of K (default 0.2)")
    group.add_argument("--m-abs", type=int, default=None,
                       help="acceptable items as an absolute count, clamped to K")
    p.add_argument("--diverse", action="store_true",
                   help="calibrate the diversity-pruned, size-capped family")
    p.add_argument("--max-items", type=int, default=None,
                   help="set size cap for --diverse")
    if strict_flag:
        p.add_argument("--strict-guarantee", action="store_true",
                       help="fail (exit 4) when no test could ever reject at this n")


def _config_from_args(args) -> CalibrationConfig:
    if args.m_abs is not None:
        m_rule = MRule.absolute(args.m_abs)
    else:
        m_rule = MRule.fraction(args.m_frac if args.m_frac is not None else 0.2)
    if args.diverse:
        if args.max_items is None:
            raise _UsageError("--diverse requires --max-items")
        if args.embeddings is None:
            raise _UsageError("--diverse requires --embeddings")
    elif args.max_items is not None:
        raise _UsageError("--max-items only applies with --diverse")
    return CalibrationConfig(
        alpha=args.alpha,
        delta=args.delta,
        d_lambda=args.dlambda,
        m_rule=m_rule,
        family="diverse" if args.diverse else "plain",
        max_items=args.max_items if args.diverse else None,
    )


def _config_dict(config: CalibrationConfig) -> dict:
    d = asdict(config)
    d["m_rule"] = {"kind": config.m_rule.kind, "value": config.m_rule.value}
    return d


def _write_manifest(out_dir: Path, args, command: str, config: Optional[CalibrationConfig],
                    extra: dict, name: Optional[str] = None) -> str:
    """Write the run's manifest, by default as ``<command>.manifest.json``; return its name."""
    inputs = {}
    for kind in ("scores", "rankings", "embeddings"):
        path = getattr(args, kind, None)
        if path:
            inputs[kind] = {"path": str(path), "sha256": _digest(path)}
    manifest = {
        "tool": "rankcal",
        "version": __version__,
        "command": command,
        "inputs": inputs,
    }
    if config is not None:
        manifest["config"] = _config_dict(config)
    manifest.update(extra)
    name = name or f"{command}.manifest.json"
    write_json(out_dir / name, manifest)
    return name


def _warn_if_hopeless(config: CalibrationConfig, n: int, strict: bool):
    slack = hoeffding_ucb(0.0, n, config.delta)
    if slack >= config.alpha:
        msg = (
            f"warning: with n={n} the Hoeffding slack {slack:.4f} >= alpha={config.alpha}; "
            "no threshold can be certified and the fallback 1.0 will be returned"
        )
        if strict:
            raise _GuaranteeError(msg)
        print(msg, file=sys.stderr)


class _GuaranteeError(RuntimeError):
    pass


def _cmd_calibrate(args) -> int:
    config = _config_from_args(args)
    data = load_dataset(args.scores, args.rankings, args.embeddings)
    if not data:
        raise _UsageError("dataset is empty")
    _warn_if_hopeless(config, len(data), args.strict_guarantee)
    result = calibrate(data, config)

    out_dir = _out_dir(args)
    manifest_name = _write_manifest(out_dir, args, "calibrate", config, {
        "n_calibration": len(data),
        "lambda_hat": result.lambda_hat,
        "stopped_reason": result.stopped_reason,
    })
    trace_path = out_dir / "trace.csv"
    write_trace_csv(trace_path, result.trace, manifest=manifest_name)
    print(repr(result.lambda_hat))
    print(f"lambda_hat={result.lambda_hat!r} stopped_reason={result.stopped_reason} "
          f"trace={trace_path}", file=sys.stderr)
    return EXIT_OK


def _manifest_lambda(path: str, config: CalibrationConfig) -> float:
    """A manifest's ``lambda_hat``, if calibrated with ``config``'s family, cap and m-rule."""
    with open(path, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise SchemaError(f"{path}: not JSON ({exc})") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("lambda_hat"), (int, float))):
        raise SchemaError(f"{path}: a manifest must be an object with 'lambda_hat' and 'config'")
    flags = _config_dict(config)
    for key in ("family", "max_items", "m_rule"):
        if manifest["config"].get(key) != flags[key]:
            raise _UsageError(f"{path} was calibrated with {key}={manifest['config'].get(key)!r}"
                              f", but the flags give {key}={flags[key]!r}")
    return manifest["lambda_hat"]


def _cmd_predict(args) -> int:
    if (args.lam is None) == (args.manifest is None):
        raise _UsageError("exactly one of --lambda or --manifest is required")
    config = _config_from_args(args)
    lam = args.lam if args.manifest is None else _manifest_lambda(args.manifest, config)
    if not 0.0 <= lam <= 1.0:
        raise _UsageError(f"lambda must be in [0, 1], got {lam}")

    rows = []
    if args.rankings:
        for q in load_dataset(args.scores, args.rankings, args.embeddings):
            pred = predict(q, lam, config)
            loss = fdp(pred, q.ranking, derive_m(q.k, config.m_rule))
            rows.append((q.query_id, pred, repr(loss)))
    else:
        # No labels, so no FDP: predict on the bare scores, joined by id as in assemble_queries.
        emb = read_embeddings(args.embeddings) if args.embeddings else None
        for qid, scores, embeddings in _join_by_id(scores=read_scores(args.scores),
                                                   embeddings=emb):
            try:
                pred = predict(scores, lam, config, embeddings=embeddings)
            except ValueError as exc:
                raise SchemaError(f"query {qid!r}: {exc}") from None
            rows.append((qid, pred, None))

    if args.out:
        out_dir = _out_dir(args)
        manifest_name = _write_manifest(out_dir, args, "predict", config,
                                        {"lambda_hat": lam, "n_queries": len(rows)})
        write_predictions_csv(out_dir / "predictions.csv", rows, manifest=manifest_name)
        print(f"wrote {out_dir / 'predictions.csv'}", file=sys.stderr)
    else:
        write_predictions_csv(sys.stdout, rows)
    return EXIT_OK


def _protocol_from_args(
    args, config: CalibrationConfig, single_size_sample: bool = False
) -> TrialProtocol:
    return TrialProtocol(
        n_cal=args.ncal,
        config=config,
        trials=args.trials,
        seed=args.seed,
        single_size_sample=single_size_sample,
    )


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    data = load_dataset(args.scores, args.rankings, args.embeddings)
    protocol = _protocol_from_args(args, config, args.single_size_sample)
    _warn_if_hopeless(config, protocol.n_cal, args.strict_guarantee)
    report = run_trials(data, protocol)

    out_dir = _out_dir(args)
    manifest_name = _write_manifest(out_dir, args, "evaluate", config, {
        "trials": protocol.trials,
        "n_cal": protocol.n_cal,
        "seed": protocol.seed,
        "single_size_sample": protocol.single_size_sample,
        "n_queries": len(data),
    })
    write_trials_csv(out_dir / "trials.csv", report.records, manifest=manifest_name)
    write_strata_csv(out_dir / "strata.csv", report.strata, manifest=manifest_name)
    write_report_json(out_dir / "report.json", report, manifest=manifest_name)
    exceeding = sum(r.test_fdr > config.alpha for r in report.records)
    print(f"mean_test_fdr={report.mean_test_fdr!r}", file=sys.stderr)
    print(f"exceeding_alpha={exceeding}/{protocol.trials} (delta={config.delta})",
          file=sys.stderr)
    print(f"wrote {out_dir / 'trials.csv'}, {out_dir / 'strata.csv'}, "
          f"{out_dir / 'report.json'}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    data = load_dataset(args.scores, args.rankings, args.embeddings)
    protocol = _protocol_from_args(args, config)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise _UsageError(f"--values must be a comma-separated number list, got {args.values!r}")
    param = args.param.replace("-", "_")
    # Only alpha moves the hopeless-n check; warn (or fail) as evaluate would.
    for alpha in (values if param == "alpha" else [config.alpha]):
        _warn_if_hopeless(replace(config, alpha=alpha), protocol.n_cal, args.strict_guarantee)
    rows = sweep(param, values, data, protocol)

    out_dir = _out_dir(args)
    manifest_name = _write_manifest(out_dir, args, "sweep", config, {
        "param": param,
        "values": values,
        "trials": protocol.trials,
        "n_cal": protocol.n_cal,
        "seed": protocol.seed,
    })
    write_sweep_csv(out_dir / "sweep.csv", rows, manifest=manifest_name)
    write_json(out_dir / "sweep.json", {"manifest": manifest_name,
                                        "rows": [asdict(r) for r in rows]})
    print(f"wrote {out_dir / 'sweep.csv'}, {out_dir / 'sweep.json'}", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        seed=args.seed,
        n_queries=args.queries,
        k_min=args.k_min,
        k_max=args.k_max,
        utility_scale=args.scale,
        noise=args.noise,
        embedding_dim=args.dim if args.dim > 0 else None,
        temperature=args.temperature,
    )
    queries = generate_synthetic(spec)
    out_dir = _out_dir(args)
    paths = write_dataset(out_dir / args.prefix, queries)
    manifest_name = _write_manifest(out_dir, args, "synth", None, {
        "spec": asdict(spec),
        "outputs": {k: str(p) for k, p in paths.items()},
    }, name=f"{args.prefix}.manifest.json")
    print("\n".join(str(p) for p in paths.values()))
    print(f"manifest={out_dir / manifest_name}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcal",
        description="FDR-calibrated recommendation sets for learning-to-rank models",
    )
    parser.add_argument("--version", action="version", version=f"rankcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="select the score threshold on calibration data")
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="emit calibrated sets for a dataset")
    _add_dataset_flags(p, rankings_required=False)
    _add_config_flags(p, strict_flag=False)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="calibrated threshold")
    p.add_argument("--manifest", help="read lambda_hat from a calibrate manifest")
    p.add_argument("--out", help="output directory (stdout when omitted)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-split risk evaluation")
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ncal", type=int, required=True, help="calibration split size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-size-sample", action="store_true",
                   help="record one uniform test query's set size per trial")
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="re-run evaluation over alpha or max-items values")
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--param", choices=["alpha", "max-items", "max_items"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ncal", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--scale", type=float, default=1.0, help="latent utility scale")
    p.add_argument("--noise", type=float, default=0.5, help="model noise sigma")
    p.add_argument("--dim", type=int, default=8, help="embedding dimension (0 = none)")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--prefix", default="synth", help="output file name prefix")
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other exits.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _GuaranteeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A missing or unreadable input file is an input error; anything else is usage.
        inputs = [vars(args).get(f) for f in ("scores", "rankings", "embeddings", "manifest")]
        return EXIT_PARSE if exc.filename is not None and exc.filename in inputs else EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
