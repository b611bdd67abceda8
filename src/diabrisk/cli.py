"""Command line entry point.

Subcommands: eda | features | train | baseline | tune-only | report.
Exit codes: 0 success, 2 data error, 3 training error, 4 config error.
"""
from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import parse_config
from .errors import ConfigError, DataError, PipelineError, TrainingError

EXIT_DATA = 2
EXIT_TRAINING = 3
EXIT_CONFIG = 4


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--data", help="path to the indicators CSV")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", help="output directory (default: $DIABRISK_OUT or ./out)")
    parser.add_argument("--seed", type=int, help="master seed (default 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diabrisk",
        description="Diabetes risk experiments on the BRFSS-2015 "
        "health-indicators table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eda", help="correlation matrix and income histogram")
    _add_common(p)

    p = sub.add_parser("features", help="lasso / forest / RFE feature selection")
    _add_common(p)

    p = sub.add_parser("train", help="train and evaluate a model")
    _add_common(p)
    p.add_argument("--experiment", choices=["health", "income"], required=True)
    p.add_argument("--tuned", action="store_true",
                   help="run grid search before the final fit")
    p.add_argument("--split-first", action="store_true",
                   help="split before SMOTE (no synthetic rows in the test set)")

    p = sub.add_parser("baseline", help="health model without SMOTE balancing")
    _add_common(p)

    p = sub.add_parser("tune-only", help="grid search only, no final fit")
    _add_common(p)
    p.add_argument("--experiment", choices=["health", "income"], required=True)
    p.add_argument("--split-first", action="store_true")

    p = sub.add_parser("report", help="re-render report.txt from report.json")
    p.add_argument("--out", required=True)

    return parser


def _config_from_args(args) -> "ExperimentConfig":
    overrides = {
        "data_path": getattr(args, "data", None),
        "seed": str(args.seed) if getattr(args, "seed", None) is not None else None,
        "output_dir": getattr(args, "out", None),
    }
    if getattr(args, "split_first", False):
        overrides["split_first"] = "true"
    cfg = parse_config(getattr(args, "config", None), overrides)
    if cfg.data_path is None:
        raise ConfigError("data_path", "no data file given (--data or config)")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            pipeline.rerender_report(args.out)
            return 0
        cfg = _config_from_args(args)
        if args.command == "eda":
            pipeline.run_eda(cfg)
        elif args.command == "features":
            pipeline.run_features(cfg)
        elif args.command == "train":
            pipeline.run_train(cfg, args.experiment, tuned=args.tuned)
        elif args.command == "baseline":
            pipeline.run_baseline(cfg)
        elif args.command == "tune-only":
            pipeline.run_tune_only(cfg, args.experiment)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
