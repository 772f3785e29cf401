"""Functional datasets: loading, saving, splitting, standardization.

On-disk format
--------------
A dataset is a CSV file plus a grid sidecar:

* ``<name>.csv``: header ``sample_id,feature,label,t_1,...,t_M``, one row
  per ``(sample, feature)``.  Values are decimal with 17 significant digits
  so a save/load round trip is bit exact.  The ``label`` column is empty for
  unlabeled data and must agree across the rows of one sample.
* ``<name>.grid.json``: ``{"interval": [a, b], "points": [...]}``.

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

from .grids import Grid

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".grid.json")


def save_csv(dataset: FunctionalDataset, path) -> Path:
    """Write ``<path>`` and its ``.grid.json`` sidecar; returns the CSV path."""
    path = Path(path)
    m = dataset.n_points
    header = "sample_id,feature,label," + ",".join(f"t_{j + 1}" for j in range(m))
    lines = [header]
    for i in range(dataset.n_samples):
        if dataset.labels is None:
            label = ""
        else:
            raw = dataset.labels[i]
            label = _fmt(raw) if isinstance(raw, (float, np.floating)) else str(raw)
        for r, name in enumerate(dataset.feature_names):
            row = ",".join(_fmt(v) for v in dataset.values[i, r])
            lines.append(f"{i},{name},{label},{row}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    sidecar = {
        "interval": [dataset.grid.a, dataset.grid.b],
        "points": [float(p) for p in dataset.grid.points],
    }
    _sidecar_path(path).write_text(
        json.dumps(sidecar) + "\n", encoding="utf-8", newline="\n"
    )
    return path


def load_csv(path, expect_features=None, expect_m=None) -> FunctionalDataset:
    """Load a dataset written by :func:`save_csv`.

    Parameters
    ----------
    path : str or Path
        CSV file; the ``.grid.json`` sidecar must sit next to it.
    expect_features, expect_m : optional
        If given, validate feature names / number of timepoints.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    side = _sidecar_path(path)
    if not side.exists():
        raise FileNotFoundError(f"grid sidecar not found: {side}")
    meta = json.loads(side.read_text(encoding="utf-8"))
    grid = Grid(points=np.asarray(meta["points"], dtype=np.float64))

    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    m = len(grid)
    expected_header = ["sample_id", "feature", "label"] + [f"t_{j + 1}" for j in range(m)]
    if header != expected_header:
        raise ValueError(f"{path}: header does not match schema for M={m}")
    if expect_m is not None and m != expect_m:
        raise ValueError(f"{path}: expected M={expect_m}, sidecar has M={m}")

    sample_order: list = []
    per_sample: dict = {}
    labels: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 3 + m:
            raise ValueError(
                f"{path}:{lineno}: ragged row, expected {3 + m} cells, got {len(cells)}"
            )
        sid, feat, label = cells[0], cells[1], cells[2]
        vals = np.empty(m)
        for j, cell in enumerate(cells[3:]):
            try:
                vals[j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric cell in column t_{j + 1}: {cell!r}"
                ) from None
        if not np.all(np.isfinite(vals)):
            j = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"{path}:{lineno}: non-finite value in column t_{j + 1}")
        if sid not in per_sample:
            sample_order.append(sid)
            per_sample[sid] = {}
            labels[sid] = label
        elif labels[sid] != label:
            raise ValueError(f"{path}:{lineno}: label differs across rows of sample {sid}")
        if feat in per_sample[sid]:
            raise ValueError(f"{path}:{lineno}: duplicate feature {feat!r} for sample {sid}")
        per_sample[sid][feat] = vals

    if not sample_order:
        raise ValueError(f"{path}: no data rows")
    feature_names = list(per_sample[sample_order[0]].keys())
    if expect_features is not None and feature_names != list(expect_features):
        raise ValueError(
            f"{path}: expected features {list(expect_features)}, got {feature_names}"
        )
    values = np.empty((len(sample_order), len(feature_names), m))
    for i, sid in enumerate(sample_order):
        feats = per_sample[sid]
        if list(feats.keys()) != feature_names:
            raise ValueError(f"{path}: sample {sid} has features {list(feats)} "
                             f"instead of {feature_names}")
        for r, name in enumerate(feature_names):
            values[i, r] = feats[name]

    label_values = [labels[sid] for sid in sample_order]
    if all(lbl == "" for lbl in label_values):
        label_arr = None
    else:
        try:
            label_arr = np.array([float(v) for v in label_values])
        except ValueError:
            label_arr = np.array(label_values, dtype=object)
    return FunctionalDataset(
        values=values, grid=grid, feature_names=tuple(feature_names), labels=label_arr
    )


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
        self._check_fitted(dataset)
        return dataset.with_values((dataset.values - self.mean_) / self.sd_)

    def invert(self, dataset: FunctionalDataset) -> FunctionalDataset:
        self._check_fitted(dataset)
        return dataset.with_values(dataset.values * self.sd_ + self.mean_)

    def invert_values(self, values: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("standardizer not fitted")
        return values * self.sd_ + self.mean_

    def _check_fitted(self, dataset: FunctionalDataset):
        if self.mean_ is None:
            raise RuntimeError("standardizer not fitted")
        if self.mean_.shape != dataset.values.shape[1:]:
            raise ValueError("dataset shape does not match fitted statistics")
