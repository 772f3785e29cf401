"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sim1 --seed 3 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy.  Set-up (import, config, inputs,
models) runs before the timed part; ``setup_s`` is the median import time
over ``IMPORT_REPEATS`` fresh interpreters (this one and children that only
import) plus the median of ``SETUP_REPEATS`` preparations.  The timed part
repeats whole protocol rounds until ``--seconds`` have passed.  BLAS runs
one thread (``BLAS_THREADS``).  Times are reported at the nominal speed of
``speed.SpeedProbe``, which takes other tenants' load out of them; the raw
median round time is printed as an ``info`` line.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` spans are recorded around calls into
``bfae`` and the per-layer metrics are printed instead.  Every workload reports
every metric of its kind in ``BENCHMARK.json``; figures that apply to some
workloads only are printed as ``info detail`` lines.  Informational lines
(``info ...``) come first; the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
prints ``correct: false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
IMPORT_REPEATS = 9  # imports timed, this process's own included
SETUP_REPEATS = 5

# Set before numpy loads, in this process and the import children.  On a
# shared 2-vCPU host a second BLAS thread competes with other tenants for the
# other vCPU, which the single-threaded speed probe cannot see: five phoneme
# runs spread 0.12 in run_s with two threads and 0.03 with one.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Times the same imports as import_program() in a fresh interpreter and
# prints the time at the speed probe's nominal speed.
IMPORT_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy, bfae, workloads
end = time.perf_counter()
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(5):
    probe.sample()
print((end - start) / probe.factor(probe.times[0], probe.times[-1]))
"""


def declared_units(trace: bool) -> dict:
    """Metric name -> unit of the end-to-end (or, traced, the per-layer)
    metrics of the ``BENCHMARK.json`` beside the program."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import ``bfae`` from ``./src``; fail if the checkout has no program."""
    src = ROOT / "src"
    if not (src / "bfae" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program at {src / 'bfae'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (timed as part of the import)
    import bfae

    if Path(bfae.__file__).resolve().parent != (src / "bfae").resolve():
        raise SystemExit(f"run.py: imported bfae from {bfae.__file__}, not from {src}")
    import workloads

    return workloads


def child_import_s() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD, str(ROOT / "src"), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units(bool(args.trace))
    os.environ.update(BLAS_THREADS)
    start = time.perf_counter()
    workloads = import_program()
    import_s = time.perf_counter() - start

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workloads, args, run_dir, import_s, units)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workloads, args, run_dir: Path, import_s: float, units: dict) -> int:
    workload = workloads.make(args.workload, args.seed, bool(args.trace), run_dir)
    attempted = failed = 0
    probe = workload.probe
    try:
        for _ in range(5):
            probe.sample()
        imports = [import_s / probe.factor(probe.times[0], probe.times[-1])]
        imports += [child_import_s() for _ in range(IMPORT_REPEATS - 1)]
        prepare = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            end = time.perf_counter()
            probe.sample()
            prepare.append(probe.normalized(start, end))
        print(f"info {workload.describe()}")
        print(f"info setup import_s {statistics.median(imports):.6g} "
              f"prepare_s {statistics.median(prepare):.6g} (medians at nominal speed)")

        start = time.perf_counter()
        while True:
            n, bad = workload.run_round()
            attempted, failed = attempted + n, failed + bad
            if time.perf_counter() - start >= args.seconds:
                break
        if args.trace:
            metrics = workload.per_layer()
            print(f"info trace coverage {workloads.coverage(workload.tracers()):.4f}")
        else:
            metrics = workload.end_to_end()
            metrics["setup_s"] = statistics.median(imports) + statistics.median(prepare)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct = True
    except workloads.CheckFailed as exc:
        print(f"info check failed: {exc}")
        metrics, correct = {}, False
    if correct:
        missing = sorted(units.keys() - metrics.keys())
        if missing:
            raise RuntimeError(f"{args.workload} did not report {', '.join(missing)}")
        for name in sorted(metrics.keys() - units.keys()):
            print(f"info detail {name} {float(metrics[name])!r} {workloads.DETAILS[name]}")
    print(f"info rounds {len(workload.rounds)}")
    if workload.rounds:
        print(f"info wall run_s {workloads.wall_s(workload.tracers()):.6g} (median raw round time)")
    if getattr(workload, "margin", None):
        print(f"info worst test RMSE over the training-mean curve's {workload.margin:.4f}")
    if getattr(workload, "digest", None):
        print(f"info digest {workload.digest}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items()) if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
