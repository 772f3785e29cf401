"""GP-based look-alikes of the two real datasets, for CI and demos.

The real files are not redistributed; these generators produce data with the
same shapes, labels, and rough scales so every pipeline can run end to end.
Converted real files (same CSV schema) drop in via the config paths.
"""

from __future__ import annotations

import numpy as np

from .data import FunctionalDataset
from .gp import MaternParams, cov_matrix, _jittered_cholesky
from .grids import make_uniform_grid

__all__ = ["make_phoneme_standin", "make_adelaide_standin", "DAY_NAMES"]

DAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")


def make_phoneme_standin(
    n_samples: int = 800,
    m_points: int = 150,
    class_sep: float = 5.0,
    seed: int = 0,
) -> FunctionalDataset:
    """``n_samples`` (at least 1) two-class single-feature curves shaped like
    log-periodogram data.

    Both classes share a decaying baseline plus GP variation (Matern, unit
    variance) and noise of sd 0.3; the classes differ by a smooth bump scaled
    by ``class_sep``, so a functional linear classifier separates them
    imperfectly (error well away from both 0 and 0.5 at the default
    separation).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    grid = make_uniform_grid(0.0, 1.0, m_points)
    t = grid.points
    rng = np.random.default_rng(seed)
    kernel = cov_matrix(grid, MaternParams(sigma2=1.0, rho=0.15))
    chol = _jittered_cholesky(kernel, 1.0)
    labels = np.array(["aa", "ao"])[rng.integers(0, 2, size=n_samples)]
    shift = np.where(labels == "ao", 0.5, -0.5)[:, None] * class_sep
    baseline = 12.0 - 7.0 * t + 2.0 * np.exp(-((t - 0.15) ** 2) / 0.01)
    bump = np.sin(np.pi * t) * np.exp(-3.0 * t)
    values = (
        baseline
        + shift * bump
        + rng.standard_normal((n_samples, m_points)) @ chol.T
        + 0.3 * rng.standard_normal((n_samples, m_points))
    )
    return FunctionalDataset(
        values=values[:, None, :], grid=grid, feature_names=("signal",), labels=labels
    )


def make_adelaide_standin(
    n_weeks: int = 508,
    m_points: int = 48,
    seed: int = 0,
):
    """Paired (temperature, demand) datasets, one sample per week (at least 1).

    Temperature: a daily sinusoid plus a shared weekly anomaly plus per-day
    GP variation, in degrees Celsius.  Demand responds to temperature through
    a fixed smooth kernel (same for every day) on a megawatt scale, plus
    noise, so a function-on-function regression has real signal to find.
    """
    if n_weeks < 1:
        raise ValueError(f"n_weeks must be >= 1, got {n_weeks}")
    grid = make_uniform_grid(0.0, 1.0, m_points)
    t = grid.points
    rng = np.random.default_rng(seed)
    kernel = cov_matrix(grid, MaternParams(sigma2=1.0, rho=0.3))
    chol = _jittered_cholesky(kernel, 1.0)
    r = len(DAY_NAMES)

    daily = 17.0 + 5.5 * np.sin(2.0 * np.pi * (t - 0.3))
    weekly_anomaly = 3.0 * rng.standard_normal((n_weeks, 1, 1))
    day_gp = 2.0 * rng.standard_normal((n_weeks, r, m_points)) @ chol.T
    temperature = daily + weekly_anomaly + day_gp + 0.3 * rng.standard_normal(
        (n_weeks, r, m_points)
    )

    # demand = base profile + integral of temperature against a smooth kernel
    base = 1450.0 + 220.0 * np.sin(2.0 * np.pi * (t - 0.22)) ** 2
    response = 40.0 * np.exp(-((t[:, None] - t[None, :]) ** 2) / 0.08)
    driven = (temperature - 17.0) * grid.quad_weights @ response.T
    demand = base + driven + 18.0 * rng.standard_normal((n_weeks, r, m_points))

    temp_ds = FunctionalDataset(values=temperature, grid=grid, feature_names=DAY_NAMES)
    demand_ds = FunctionalDataset(values=demand, grid=grid, feature_names=DAY_NAMES)
    return temp_ds, demand_ds
