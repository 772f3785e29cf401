"""Command-line entry point: simulate, train, benchmark, realdata."""

from __future__ import annotations

import argparse
import sys

from . import experiments


def _add_common(parser: argparse.ArgumentParser, default_kind: str):
    parser.add_argument("--config", help="JSON config file; its kind picks the defaults")
    parser.add_argument(
        "--kind", choices=experiments.KINDS,
        help=f"built-in config to start from when no --config is given (default {default_kind})",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override any config field, e.g. --set bfae.lr=0.01 --set master_seed=3",
    )
    parser.set_defaults(default_kind=default_kind)
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfae",
        description="Two-way functional dimension reduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="write a synthetic dataset"), "sim1")
    _add_common(sub.add_parser("train", help="train one model, save it + history"), "sim1")
    bench = _add_common(sub.add_parser("benchmark", help="replicated method comparison"), "sim1")
    bench.add_argument("--jobs", type=int, default=1, help="replications run in parallel")
    _add_common(sub.add_parser("realdata", help="real-data (or stand-in) protocol"), "phoneme")
    return parser


def _resolve_config(args) -> dict:
    if args.config and args.kind:
        raise ValueError(f"--config {args.config} names its own kind; leave out --kind {args.kind}")
    base = (experiments.load_config(args.config) if args.config
            else experiments.default_config(args.kind or args.default_kind))
    return experiments.apply_overrides(base, args.set)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _resolve_config(args)

    ok = True
    if args.command == "simulate":
        paths = experiments.run_simulate(cfg, args.out)
    elif args.command == "train":
        paths = experiments.run_train(cfg, args.out)
    elif args.command == "benchmark":
        paths, ok = experiments.run_benchmark(cfg, args.out, jobs=args.jobs)
    else:
        paths, ok = experiments.run_realdata(cfg, args.out)

    for path in paths:
        print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
