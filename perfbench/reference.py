"""Reference figures that are measured once and recorded in the README.

    python3 perfbench/reference.py full [kind ...]   # shipped defaults, per-cell times
    python3 perfbench/reference.py jobs              # --jobs 2 against --jobs 1

``full`` runs each protocol at its shipped default config in-process with
``jobs=1`` and prints the wall time and the mean ``fit_reducer`` time per
replication of every method.  ``jobs`` runs the CLI's ``benchmark`` command on
sim1 (4 replications, 1000 bfae and 600 ae epochs) with ``--jobs 1`` and
``--jobs 2``, each with OpenBLAS's default thread count and with
``OPENBLAS_NUM_THREADS=1``, three times in alternating order, and reports the
median wall times and whether the report files are byte-identical.
Run from the repository root; output goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out" / "reference"


def full(kinds) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from bfae import evaluate, experiments

    import workloads
    from tracing import Tracer, patched

    for kind in kinds:
        cfg = experiments.default_config(kind)
        realdata = kind in ("phoneme", "adelaide")
        tracer = Tracer()
        out = OUT / f"full-{kind}"
        start = time.perf_counter()
        with patched(tracer, workloads.timer_points(evaluate if realdata else experiments, cfg)):
            if realdata:
                _, ok = experiments.run_realdata(cfg, out)
            else:
                _, ok = experiments.run_benchmark(cfg, out, jobs=1)
        wall = time.perf_counter() - start
        reps = 1 if realdata else cfg["replications"]
        cells = "  ".join(
            f"{name[4:]} {s.total / reps:.3f}"
            for name, s in sorted(tracer.stats.items()) if name.startswith("fit.")
        )
        head = f"  head {tracer.groups['head']:.2f}" if realdata else ""
        print(f"{kind}: ok {ok} wall {wall:.1f} s  reps {reps}  per-cell s: {cells}{head}",
              flush=True)
        shutil.rmtree(out)


def jobs() -> None:
    variants = [("jobs1", 1, None), ("jobs2", 2, None),
                ("jobs1-blas1", 1, "1"), ("jobs2-blas1", 2, "1")]
    walls = {name: [] for name, _, _ in variants}
    reports = {}
    for i in range(3):
        for name, n_jobs, threads in (variants if i % 2 == 0 else variants[::-1]):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = OUT / f"jobs-{name}"
            cmd = [sys.executable, "-m", "bfae.cli", "benchmark", "--kind", "sim1",
                   "--set", "replications=4", "--set", "bfae.epochs=1000",
                   "--set", "ae.epochs=600", "--jobs", str(n_jobs), "--out", str(out)]
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=600)
            walls[name].append(time.perf_counter() - start)
            reports[name] = (out / "report.csv").read_bytes()
            shutil.rmtree(out)
    base = statistics.median(walls["jobs1"])
    for name, _, _ in variants:
        med = statistics.median(walls[name])
        same = reports[name] == reports["jobs1"]
        print(f"{name}: median wall {med:.2f} s over {len(walls[name])} runs, "
              f"speed-up {base / med:.2f}x vs jobs1, report identical {same}")


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("full", "jobs"):
        sys.exit(__doc__)
    if sys.argv[1] == "full":
        full(sys.argv[2:] or ["sim1", "sim10", "phoneme", "adelaide"])
    else:
        jobs()
