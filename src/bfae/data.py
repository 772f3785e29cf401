"""Functional datasets: loading, saving, splitting, standardization.

On-disk format
--------------
A dataset is a CSV file plus a grid sidecar:

* ``<name>.csv``: header ``sample_id,feature,label,t_1,...,t_M``, one row
  per ``(sample, feature)``.  Values are decimal with 17 significant digits
  so a save/load round trip is bit exact.  The ``label`` column is set for
  every sample or for none, and agrees across the rows of one sample.
* ``<name>.grid.json``: ``{"interval": [a, b], "points": [...]}``, where
  ``a`` and ``b`` are the first and last point.

Files are UTF-8 with LF line endings, decimal point, no thousands
separators.  Missing or non-numeric cells are hard errors with the row and
column named; nothing is imputed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grids import Grid, grid_tolerance
from .report import Report

__all__ = [
    "FunctionalDataset",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "split_indices",
    "train_test_split",
    "Standardizer",
]

SD_FLOOR = 1e-12
CHUNK_CELLS = 1 << 13  # numeric cells load_csv keeps as text at a time


@dataclass(frozen=True)
class FunctionalDataset:
    """``N x R x M`` functional samples on a shared grid.

    ``labels`` is an optional length-``N`` array of per-sample responses
    (categorical strings or reals).  ``values`` is stored as a read-only
    view of the given array, not a copy: the caller's array stays writeable,
    and edits made through it show in the dataset.
    """

    values: np.ndarray
    grid: Grid
    feature_names: tuple
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).view()
        if vals.ndim != 3:
            raise ValueError(f"values must be N x R x M, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("dataset contains non-finite values")
        if vals.shape[2] != len(self.grid):
            raise ValueError(
                f"last axis ({vals.shape[2]}) must match grid length ({len(self.grid)})"
            )
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != vals.shape[1]:
            raise ValueError("feature_names length must match feature axis")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (vals.shape[0],):
                raise ValueError("labels must be one per sample")
            object.__setattr__(self, "labels", labels)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def n_points(self) -> int:
        return self.values.shape[2]

    def subset(self, indices: Sequence[int]) -> "FunctionalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return FunctionalDataset(
            values=self.values[idx].copy(),
            grid=self.grid,
            feature_names=self.feature_names,
            labels=None if self.labels is None else self.labels[idx].copy(),
        )

    def with_values(self, values: np.ndarray) -> "FunctionalDataset":
        """Same metadata, new value array (e.g. reconstructions)."""
        return FunctionalDataset(
            values=values, grid=self.grid,
            feature_names=self.feature_names, labels=self.labels,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split: ``round(train_fraction * N)`` samples train."""

    train_fraction: float = 0.8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def split_indices(n: int, spec: SplitSpec):
    """Disjoint (train, test) index arrays covering ``range(n)``.

    With ``spec.shuffle`` the order is a permutation seeded by ``spec.seed``;
    without it the first samples train.  Each part gets at least one sample.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_train = int(round(spec.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    if spec.shuffle:
        order = np.random.default_rng(spec.seed).permutation(n)
    else:
        order = np.arange(n)
    return order[:n_train], order[n_train:]


def train_test_split(dataset: FunctionalDataset, spec: SplitSpec):
    """Split into disjoint (train, test) datasets, deterministic under seed."""
    train_idx, test_idx = split_indices(dataset.n_samples, spec)
    return dataset.subset(train_idx), dataset.subset(test_idx)


# --- CSV + sidecar I/O -------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".grid.json")


def _columns(m: int) -> tuple:
    return ("sample_id", "feature", "label") + tuple(f"t_{j + 1}" for j in range(m))


def save_csv(dataset: FunctionalDataset, path) -> Path:
    """Write ``<path>`` and its ``.grid.json`` sidecar; returns the CSV path."""
    path = Path(path)
    labels = [None] * dataset.n_samples if dataset.labels is None else dataset.labels
    rows = [
        (i, name, labels[i], *dataset.values[i, r])
        for i in range(dataset.n_samples)
        for r, name in enumerate(dataset.feature_names)
    ]
    Report(_columns(dataset.n_points), rows).write_csv(path)
    sidecar = {"interval": [dataset.grid.a, dataset.grid.b], "points": dataset.grid.points.tolist()}
    _sidecar_path(path).write_text(json.dumps(sidecar) + "\n", encoding="utf-8", newline="\n")
    return path


def load_csv(path, expect_m=None) -> FunctionalDataset:
    """Load a dataset written by :func:`save_csv`.

    Parameters
    ----------
    path : str or Path
        CSV file; the ``.grid.json`` sidecar must sit next to it.
    expect_m : int, optional
        If given, the number of timepoints the sidecar must hold.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    side = _sidecar_path(path)
    if not side.exists():
        raise FileNotFoundError(f"grid sidecar not found: {side}")
    meta = json.loads(side.read_text(encoding="utf-8"))
    grid = Grid(points=np.asarray(meta["points"], dtype=np.float64))
    interval, tol = meta.get("interval"), grid_tolerance(grid.span)
    if np.shape(interval) != (2,) or not np.allclose(interval, (grid.a, grid.b), rtol=0, atol=tol):
        raise ValueError(f"{side}: interval {interval} does not match the points' range "
                         f"[{grid.a!r}, {grid.b!r}]")

    m = len(grid)
    samples: dict = {}  # sample id -> (label, {feature: row}), in order of appearance
    blocks, chunk, n_rows = [], [], 0  # numeric rows, parsed in chunks
    chunk_rows = max(1, CHUNK_CELLS // m)
    with path.open(encoding="utf-8") as lines:
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if tuple(header.rstrip("\n").split(",")) != _columns(m):
            raise ValueError(f"{path}: header does not match schema for M={m}")
        if expect_m is not None and m != expect_m:
            raise ValueError(f"{path}: expected M={expect_m}, sidecar has M={m}")
        for lineno, line in enumerate(lines, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 3 + m:
                raise ValueError(f"{path}:{lineno}: ragged row, expected {3 + m} cells, "
                                 f"got {len(cells)}")
            sid, feat, label = cells[:3]
            if not n_rows:
                first_label = label
            sample_label, feats = samples.setdefault(sid, (label, {}))
            if label != sample_label:
                raise ValueError(f"{path}:{lineno}: label differs across rows of sample {sid}")
            if (label == "") != (first_label == ""):
                raise ValueError(f"{path}:{lineno}: sample {sid} has label {label!r} but the "
                                 f"first sample has {first_label!r}; label every sample or none")
            if feat in feats:
                raise ValueError(f"{path}:{lineno}: duplicate feature {feat!r} for sample {sid}")
            feats[feat] = n_rows
            n_rows += 1
            chunk.append(cells[3:])
            if len(chunk) == chunk_rows:
                blocks.append(_parse_rows(chunk))
                chunk = []
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    if chunk:
        blocks.append(_parse_rows(chunk))
    if any(block is None for block in blocks):
        raise _bad_cell(path)
    feature_names = list(next(iter(samples.values()))[1])
    for sid, (_, feats) in samples.items():
        if list(feats) != feature_names:
            raise ValueError(f"{path}: sample {sid} has features {list(feats)} "
                             f"instead of {feature_names}")
    block = np.concatenate(blocks)
    del blocks  # so the copy below peaks at two blocks' size, not three
    values = block[[list(feats.values()) for _, feats in samples.values()]]

    labels = [label for label, _ in samples.values()]
    if first_label == "":
        labels = None
    else:
        try:
            labels = np.array(labels, dtype=np.float64)
        except ValueError:
            labels = np.array(labels, dtype=object)
    return FunctionalDataset(values, grid, tuple(feature_names), labels)


def _parse_rows(rows) -> Optional[np.ndarray]:
    """Numeric cells as a float64 block; ``None`` if one is non-numeric or non-finite."""
    try:
        block = np.array(rows, dtype=np.float64)
    except ValueError:
        return None
    return block if np.all(np.isfinite(block)) else None


def _bad_cell(path) -> ValueError:
    """The error naming the first non-numeric or non-finite cell (error path only:
    re-reads the file)."""
    with path.open(encoding="utf-8") as lines:
        next(lines)
        for lineno, line in enumerate(lines, start=2):
            for j, cell in enumerate(line.rstrip("\n").split(",")[3:], start=1):
                try:
                    if not np.isfinite(float(cell)):
                        return ValueError(f"{path}:{lineno}: non-finite value in column t_{j}")
                except ValueError:
                    return ValueError(f"{path}:{lineno}: non-numeric cell in column t_{j}: "
                                      f"{cell!r}")


# --- standardization ----------------------------------------------------------


class Standardizer:
    """Per-feature per-timepoint z-scoring with training-set statistics.

    Zero-variance timepoints get their standard deviation floored at
    ``SD_FLOOR`` (with a warning), so constant columns map to 0.
    """

    def __init__(self):
        self.mean_ = None
        self.sd_ = None

    def fit(self, dataset: FunctionalDataset) -> "Standardizer":
        vals = dataset.values
        self.mean_ = vals.mean(axis=0)
        sd = vals.std(axis=0, ddof=0)
        if np.any(sd < SD_FLOOR):
            warnings.warn("zero-variance timepoints; flooring sd at 1e-12")
            sd = np.maximum(sd, SD_FLOOR)
        self.sd_ = sd
        return self

    def apply(self, dataset: FunctionalDataset) -> FunctionalDataset:
        self._check_fitted(dataset.values)
        return dataset.with_values((dataset.values - self.mean_) / self.sd_)

    def invert(self, dataset: FunctionalDataset) -> FunctionalDataset:
        self._check_fitted(dataset.values)
        return dataset.with_values(dataset.values * self.sd_ + self.mean_)

    def invert_values(self, values: np.ndarray) -> np.ndarray:
        """``invert`` of a bare ``(n, R, M)`` batch."""
        self._check_fitted(values)
        return values * self.sd_ + self.mean_

    def _check_fitted(self, values: np.ndarray):
        if self.mean_ is None:
            raise RuntimeError("standardizer not fitted")
        if self.mean_.shape != np.shape(values)[1:]:
            raise ValueError(f"batch shape {np.shape(values)} does not match fitted "
                             f"statistics {self.mean_.shape}")
