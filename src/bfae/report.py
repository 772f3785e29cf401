"""Long-format result tables with deterministic CSV/JSON writers.

Floats are written with 17 significant digits and rows in insertion order,
so re-running a command with the same config and seed reproduces report
files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Report", "BENCHMARK_COLUMNS", "PIPELINE_COLUMNS", "summarize_benchmark"]

BENCHMARK_COLUMNS = (
    "method", "n", "m", "r", "m_latent", "r_latent",
    "replication", "split", "metric", "value",
)
PIPELINE_COLUMNS = ("method", "dataset", "split", "metric", "value", "seed", "config_hash")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


@dataclass
class Report:
    columns: tuple
    rows: list = field(default_factory=list)

    def add(self, **cells):
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown report columns: {sorted(unknown)}")
        self.rows.append(tuple(cells.get(c) for c in self.columns))

    def extend(self, dicts):
        for d in dicts:
            self.add(**d)

    def write_csv(self, path) -> Path:
        path = Path(path)
        lines = [",".join(self.columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in self.rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        return path

    def write_json(self, path) -> Path:
        path = Path(path)
        docs = []
        for row in self.rows:
            doc = {}
            for col, val in zip(self.columns, row):
                if isinstance(val, (np.floating, np.integer)):
                    val = val.item()
                doc[col] = val
            docs.append(doc)
        path.write_text(
            json.dumps(docs, indent=1, allow_nan=True) + "\n",
            encoding="utf-8", newline="\n",
        )
        return path


def summarize_benchmark(report: Report) -> Report:
    """Append one ``replication="mean"`` row per (method, split, metric) group.

    The summary value is the arithmetic mean of the group's replication
    values, computed in row order.
    """
    if report.columns != BENCHMARK_COLUMNS:
        raise ValueError("summarize_benchmark expects the benchmark column layout")
    groups: dict = {}
    rep_idx = report.columns.index("replication")
    val_idx = report.columns.index("value")
    for row in report.rows:
        if row[rep_idx] == "mean":
            continue
        key = row[:rep_idx] + row[rep_idx + 1 : val_idx]
        groups.setdefault(key, []).append(row[val_idx])
    for key, group in groups.items():
        vals = np.asarray(group, dtype=np.float64)
        report.add(
            method=key[0], n=key[1], m=key[2], r=key[3],
            m_latent=key[4], r_latent=key[5],
            replication="mean", split=key[6], metric=key[7],
            value=float(vals.mean()),
        )
    return report
