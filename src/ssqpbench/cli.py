"""Command-line benchmark driver.

Subcommands:
  run <config.json>        execute the configured seeds, write traces + metadata
  reference <config.json>  compute (x_star, F_star) and print/update a reference block
  report <trace-dir>       calls-to-threshold summary over the traces its metadata.json names
  slope <trace.csv>        rate-slope fit over a single trace

Exit codes: 0 success, 2 config error (including unreadable or non-finite
data files and a regression instance whose feasibility LP fails, under run
and reference alike), 3 divergence, 4 reference solve failure, 5 non-finite
oracle evaluation (NaN or infinity in a function value or gradient), 6 a
failed linear-algebra kernel (``numpy.linalg.LinAlgError``, which is not a
config error although it subclasses ValueError); a schedule kind that the
algorithm cannot run is a config error.  When a run fails part-way, the
seeds that finish still write their traces, a diverged seed writes its
partial trace, metadata.json records every seed's status (a seed stopped by
any other exception, an interrupt included, is ``error`` and a seed not yet
run ``pending``), and stderr names the directory they are in.  Under run, stderr also
gets one warning line naming each seed that used QP answers which did not
certify (``qp_nonconverged`` in metadata.json above 0).
The SSQPBENCH_OUTPUT_DIR environment variable overrides the config output dir.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .algorithms import DivergenceError
from .problem_model import NonFiniteEvaluationError
from .problems import brute_force_optimum
from .harness import (
    BenchConfig,
    ConfigError,
    build_problem,
    calls_to_threshold,
    read_trace,
    resolve_output_dir,
    run_experiment,
    slope_fit,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_REFERENCE = 4
EXIT_NON_FINITE = 5
EXIT_LINALG = 6


def _config_doc(path: str):
    """The config document at ``path``; a metadata document yields its ``config``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(doc, dict) and "config" in doc and "version" in doc:
        doc = doc["config"]  # metadata documents are re-runnable configs
    return doc


def _load_config(path: str, args: argparse.Namespace) -> BenchConfig:
    doc = _config_doc(path)
    for flag in ("gamma", "horizon", "epochs", "batch_size", "output_dir"):
        value = getattr(args, flag, None)
        if value is not None:
            doc[flag] = value
    if getattr(args, "seed", None):
        doc["seeds"] = args.seed
    return BenchConfig.from_dict(doc)


def _warn_nonconverged(meta: dict) -> None:
    """One stderr line naming each seed that used QP answers which did not certify."""
    counts = {seed: n for seed, n in meta["qp_nonconverged"].items() if n}
    if counts:
        seeds = ", ".join(f"seed {seed}: {n}" for seed, n in counts.items())
        print(f"warning: QP answers that did not certify were used ({seeds})", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    out = resolve_output_dir(config)
    try:
        meta = run_experiment(config, out)
    except BaseException as exc:
        manifest = out / "metadata.json"
        if isinstance(exc, (DivergenceError, NonFiniteEvaluationError)):
            # raised only after every seed ran
            _warn_nonconverged(json.loads(manifest.read_text()))
        # a config error (ValueError) is reported alone; most stop the run before it writes anything
        if manifest.exists() and (isinstance(exc, np.linalg.LinAlgError) or not isinstance(exc, ValueError)):
            print(f"run failed part-way; metadata.json and the partial traces are in {out}", file=sys.stderr)
        raise
    _warn_nonconverged(meta)
    print(f"wrote {len(meta['trace_files'])} trace(s) to {out}")
    return EXIT_OK


def _cmd_reference(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    # an instance that cannot be built is a config error (exit 2), as under run
    problem, x0 = build_problem(config)
    try:
        x_star, f_star = brute_force_optimum(problem, config.gamma, x0=x0, tol=args.tol)
    except Exception as exc:
        print(f"reference solve failed: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    block = {"x_star": [float(v) for v in x_star], "f_star": float(f_star)}
    print(json.dumps({"reference": block}, indent=2))
    if args.update:
        doc = _config_doc(args.config)
        doc["reference"] = block
        Path(args.config).write_text(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    trace_dir = Path(args.trace_dir)
    manifest = trace_dir / "metadata.json"
    # a manifest names its run's traces, so an older run's CSVs beside them are not read
    meta = json.loads(manifest.read_text()) if manifest.exists() else None
    files = sorted(trace_dir / f for f in meta["trace_files"].values()) if meta else sorted(trace_dir.glob("*.csv"))
    if not files:
        raise ConfigError(f"no trace files in {args.trace_dir}")
    missing = [f.name for f in files if not f.is_file()]
    if missing:
        raise ConfigError(f"{manifest} names traces that are missing: {missing}")
    summary = calls_to_threshold([read_trace(f) for f in files], args.metric, args.threshold)
    if meta:
        summary["seed_status"] = dict(Counter(meta["seed_status"].values()))
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_slope(args: argparse.Namespace) -> int:
    rows = read_trace(args.trace)
    slope, r2 = slope_fit(rows, args.metric, mode=args.mode)
    print(json.dumps({"slope": slope, "r_squared": r2, "metric": args.metric, "mode": args.mode}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssqpbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a benchmark config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, nargs="+", help="override the config seed list")
    run_p.add_argument("--gamma", type=float)
    run_p.add_argument("--horizon", type=int)
    run_p.add_argument("--epochs", type=int)
    run_p.add_argument("--batch-size", dest="batch_size", type=int)
    run_p.add_argument("--output-dir", dest="output_dir")
    run_p.set_defaults(func=_cmd_run)

    ref_p = sub.add_parser("reference", help="compute the reference optimum for a config")
    ref_p.add_argument("config")
    ref_p.add_argument("--tol", type=float, default=1e-10)
    ref_p.add_argument("--update", action="store_true", help="write the reference back into the config file")
    ref_p.set_defaults(func=_cmd_reference)

    rep_p = sub.add_parser("report", help="calls-to-threshold over a trace directory")
    rep_p.add_argument("trace_dir")
    rep_p.add_argument("--threshold", type=float, required=True)
    rep_p.add_argument("--metric", default="dist_sq")
    rep_p.set_defaults(func=_cmd_report)

    slope_p = sub.add_parser("slope", help="rate-slope fit for one trace")
    slope_p.add_argument("trace")
    slope_p.add_argument("--metric", default="gap")
    slope_p.add_argument("--mode", choices=("loglog", "loglinear"), default="loglog")
    slope_p.set_defaults(func=_cmd_slope)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_LINALG
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except NonFiniteEvaluationError as exc:
        print(f"non-finite evaluation: {exc}", file=sys.stderr)
        return EXIT_NON_FINITE


if __name__ == "__main__":
    sys.exit(main())
