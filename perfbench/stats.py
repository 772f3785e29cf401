"""Summary statistics over sets of benchmark runs, and the two-set comparison.

A *run* is the parsed last line of ``run.py``: ``{"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}`` plus the ``workload`` and
``seed`` it ran with.  A *set* is a list of runs.  Spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``, the
exclusive method) as a share of the median.
"""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        raise ValueError("spread of values with a zero median")
    return (q3 - q1) / abs(med)


def failed_share(runs) -> tuple:
    """``(failed, attempted)`` summed over the runs."""
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def summarize(runs) -> dict:
    """Per workload: ``{metric: {unit, median, q1, q3, spread, n}}`` plus
    ``attempted``, ``failed`` and ``correct`` over the workload's runs."""
    out: dict = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {"metrics": {}, "runs": []})
        entry["runs"].append(run)
    for workload, entry in out.items():
        wruns = entry.pop("runs")
        names = sorted({name for r in wruns for name in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in wruns if name in r["metrics"]]
            q1, med, q3 = quartiles(vals)
            entry["metrics"][name] = {
                "unit": next(r["metrics"][name]["unit"] for r in wruns if name in r["metrics"]),
                "median": med, "q1": q1, "q3": q3, "spread": spread(vals), "n": len(vals),
            }
        entry["failed"], entry["attempted"] = failed_share(wruns)
        entry["correct"] = all(r["correct"] for r in wruns)
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        raise ValueError("cannot compare against a zero median")
    if better == "lower":
        return (second - first) / abs(first)
    if better == "higher":
        return (first - second) / abs(first)
    raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")


def compare(set_a, set_b, spec: dict) -> list:
    """Check two sets of runs of the same code against ``BENCHMARK.json``.

    Returns a list of ``(ok, message)`` findings, one per check:

    * every run is correct;
    * each end-to-end metric's spread in each set is within its bound;
    * the second median is no worse than the first by more than the bound;
    * the share of failed operations is the same in both sets;
    * runs with the same workload and seed wrote the same report digest.
    """
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    findings = []
    summary_a, summary_b = summarize(set_a), summarize(set_b)
    for workload in sorted(set(summary_a) | set(summary_b)):
        if workload not in summary_a or workload not in summary_b:
            findings.append((False, f"{workload}: present in only one set"))
            continue
        a, b = summary_a[workload], summary_b[workload]
        for label, s in (("first", a), ("second", b)):
            if not s["correct"]:
                findings.append((False, f"{workload}: a run in the {label} set was not correct"))
        for name in sorted(set(a["metrics"]) | set(b["metrics"])):
            if name not in bounds:
                findings.append((False, f"{workload} {name}: not an end-to-end metric"))
                continue
            if name not in a["metrics"] or name not in b["metrics"]:
                findings.append((False, f"{workload} {name}: reported in only one set"))
                continue
            bound = bounds[name]["bound"]
            for label, s in (("first", a), ("second", b)):
                sp = s["metrics"][name]["spread"]
                findings.append((
                    sp <= bound,
                    f"{workload} {name}: {label} spread {sp:.4f} (bound {bound})",
                ))
            drift = worse_by(a["metrics"][name]["median"], b["metrics"][name]["median"],
                             bounds[name]["better"])
            findings.append((
                drift <= bound,
                f"{workload} {name}: second median worse by {drift:+.4f} (bound {bound})",
            ))
        share_a = a["failed"] * b["attempted"]
        share_b = b["failed"] * a["attempted"]
        findings.append((
            share_a == share_b,
            f"{workload}: failed {a['failed']}/{a['attempted']} vs {b['failed']}/{b['attempted']}",
        ))
    digests: dict = {}
    for run in list(set_a) + list(set_b):
        if run.get("digest"):
            digests.setdefault((run["workload"], run["seed"]), set()).add(run["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            findings.append((False, f"{workload} seed {seed}: report digests differ"))
    return findings
