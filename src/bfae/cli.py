"""Command-line entry point: simulate, train, benchmark, realdata."""

from __future__ import annotations

import argparse
import sys

from . import experiments


def _add_common(parser: argparse.ArgumentParser, default_kind: str):
    parser.add_argument("--config", help="JSON config file (defaults from --kind)")
    parser.add_argument(
        "--kind", default=default_kind, choices=experiments.KINDS,
        help="built-in config to start from when no --config is given",
    )
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel replications (benchmark only)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override any config field, e.g. --set bfae.lr=0.01",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="run the full 100-replication protocol (benchmark only)",
    )


def _resolve_config(args) -> dict:
    if args.config:
        cfg = experiments.load_config(args.config)
    else:
        cfg = experiments.default_config(args.kind)
    if args.set:
        cfg = experiments.apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.paper_scale:
        cfg = experiments.apply_paper_scale(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bfae",
        description="Two-way functional dimension reduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="write a synthetic dataset"), "sim1")
    _add_common(sub.add_parser("train", help="train one model, save it + history"), "sim1")
    _add_common(sub.add_parser("benchmark", help="replicated method comparison"), "sim1")
    _add_common(sub.add_parser("realdata", help="real-data (or stand-in) protocol"), "phoneme")
    args = parser.parse_args(argv)
    if args.command != "benchmark" and (args.jobs != 1 or args.paper_scale):
        given = f"--jobs {args.jobs}" if args.jobs != 1 else "--paper-scale"
        raise ValueError(f"--jobs and --paper-scale apply to bfae benchmark only; {args.command} "
                         f"runs once in one process, so leave them out (got {given})")
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
