"""Command-line experiment runner.

Subcommands: run, ablate <kind>, sweep-gallery, check <suite>. Flags
mirror config keys as --key value; a flat key=value config file may be
given with --config, and command-line overrides win. PSEARCH_OUT
overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import SUITES, run_suite
from .config import (
    ExperimentConfig,
    apply_override,
    config_keys,
    parse_config,
)
from .errors import ConfigError, DivergenceDetected, PSearchError
from .runner import (
    ABLATE_KINDS,
    EVAL_HEADER,
    csv_text,
    make_out_dir,
    run_ablation,
    run_experiment,
    run_gallery_size_sweep,
    write_artifacts,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key in config_keys():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                            metavar="VALUE")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, cfg)
    for key in config_keys():
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            apply_override(cfg, key, value)
    env_out = os.environ.get("PSEARCH_OUT")
    if env_out:
        cfg.out_dir = env_out
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psearch",
        description="Synthetic person-search training, ablation, and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train, evaluate, write CSV artifacts")
    _add_config_flags(p_run)

    p_abl = sub.add_parser("ablate", help="run a sweep and emit one CSV")
    p_abl.add_argument("kind", choices=ABLATE_KINDS)
    _add_config_flags(p_abl)

    p_gal = sub.add_parser("sweep-gallery", help="train once, sweep gallery sizes")
    _add_config_flags(p_gal)

    p_chk = sub.add_parser("check", help="run a self-check suite")
    p_chk.add_argument("suite", choices=tuple(SUITES))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _build_config(args)
            result = run_experiment(cfg)
            print(f"mAP {result['mAP']:.4f}  top1 {result['cmc'][1]:.4f}  "
                  f"artifacts in {result['out_dir']}")
            return 0
        if args.command == "ablate":
            cfg = _build_config(args)
            path = run_ablation(args.kind, cfg)
            print(f"wrote {path}")
            return 0
        if args.command == "sweep-gallery":
            cfg = _build_config(args)
            out = make_out_dir(cfg)
            rows = run_gallery_size_sweep(cfg)
            [path] = write_artifacts(out, {"gallery-sweep.csv": csv_text(EVAL_HEADER, rows)})
            print(f"wrote {path}")
            return 0
        if args.command == "check":
            results = run_suite(args.suite)
            width = max(len(r.name) for r in results)
            failed = 0
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                failed += not r.passed
                print(f"{r.name:<{width}}  {status}  {r.detail}")
            return 1 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceDetected as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except PSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
