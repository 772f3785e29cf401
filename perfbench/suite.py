"""Run sets of benchmark runs, summarize them, and compare two sets.

    python3 perfbench/suite.py run --runs 10 --seed 100 --out .perfbench_out/a.json
    python3 perfbench/suite.py run --runs 1 --seed 100 --trace --out .perfbench_out/t.json
    python3 perfbench/suite.py show .perfbench_out/a.json
    python3 perfbench/suite.py compare .perfbench_out/a.json .perfbench_out/b.json

``run`` runs every workload of ``BENCHMARK.json`` for its ``run_seconds``,
each run in its own process (``run.py``), with seed
``--seed + i`` for the i-th round of runs and the workload order reversed on
every other round.  It prints, per workload and metric, the unit, median,
quartiles, spread (quartile distance over median) and sample count, plus the
operations attempted and failed; then the same for the workload's ``info
detail`` figures, which are printed but never gated.  ``--trace`` adds one traced run per
workload and prints the tracing overhead: traced ``trace.run_s`` minus the
untraced median ``run_s``.  ``compare`` checks two sets of runs of the same
code against the bounds in ``BENCHMARK.json`` and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                           f"{proc.stdout}{proc.stderr}")
    run = json.loads(lines[-1])
    run.update(workload=workload, seed=seed, trace=trace, exit=proc.returncode, digest=None,
               details={})
    for line in lines[:-1]:
        if line.startswith("info detail "):
            _, _, name, value, unit = line.split()
            run["details"][name] = {"value": float(value), "unit": unit}
        if line.startswith("info digest "):
            run["digest"] = line.split()[-1]
        if line.startswith("info trace coverage "):
            run["coverage"] = float(line.split()[-1])
    return run


def print_summary(runs: list) -> None:
    details = stats.summarize([dict(r, metrics=r.get("details", {})) for r in runs])
    for workload, entry in stats.summarize(runs).items():
        print(f"{workload}: attempted {entry['attempted']} failed {entry['failed']} "
              f"correct {entry['correct']}")
        for label, metrics in (("", entry["metrics"]), ("detail ", details[workload]["metrics"])):
            for name, m in metrics.items():
                print(f"  {label + name:28s} {m['unit']:10s} median {m['median']:.6g}  "
                      f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}  n {m['n']}")


def cmd_run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            run = run_one(workload, args.seed + i, seconds, trace=False)
            runs.append(run)
            print(f"run {i} {workload} seed {run['seed']} correct {run['correct']} "
                  f"run_s {run['metrics'].get('run_s', {}).get('value', float('nan')):.4g}",
                  flush=True)
            out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    traced = []
    if args.trace:
        for workload in names:
            traced.append(run_one(workload, args.seed, seconds, trace=True))
        out.write_text(json.dumps(runs + traced, indent=1) + "\n", encoding="utf-8")
    if runs:
        print_summary(runs)
    if traced:
        print_summary(traced)
        summary = stats.summarize(runs) if runs else {}
        for run in traced:
            line = f"{run['workload']}: trace coverage {run.get('coverage', float('nan')):.4f}"
            if run["workload"] in summary:
                base = summary[run["workload"]]["metrics"]["run_s"]["median"]
                over = run["metrics"]["trace.run_s"]["value"] - base
                line += f", tracing overhead {over:+.4f} s ({over / base:+.2%} of run_s)"
            print(line)
    return 0 if all(r["correct"] for r in runs + traced) else 1


def load_runs(path) -> list:
    return [r for r in json.loads(Path(path).read_text(encoding="utf-8")) if not r["trace"]]


def cmd_show(args) -> int:
    print_summary(load_runs(args.file))
    return 0


def cmd_compare(args) -> int:
    findings = stats.compare(load_runs(args.first), load_runs(args.second), load_spec())
    for ok, message in findings:
        print(("ok   " if ok else "FAIL ") + message)
    return 0 if all(ok for ok, _ in findings) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run sets of workload runs")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, required=True, help="seed of the first round of runs")
    run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    run.add_argument("--out", required=True, help="JSON file the runs are written to")
    run.set_defaults(func=cmd_run)
    show = sub.add_parser("show", help="summarize a file of runs")
    show.add_argument("file")
    show.set_defaults(func=cmd_show)
    compare = sub.add_parser("compare", help="compare two sets against BENCHMARK.json bounds")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
