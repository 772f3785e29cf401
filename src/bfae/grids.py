"""Grids on compact intervals and trapezoidal quadrature.

Sampled curves are plain value vectors on a :class:`Grid`; every integral in
the package is the quadrature sum ``sum(quad_weights * values)``.  The
composite trapezoidal rule is exact for the piecewise-linear interpolant of
the samples, which keeps gradients of discretized integral operators simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Grid",
    "grid_tolerance",
    "make_uniform_grid",
    "integrate",
    "inner_product",
    "linear_resample",
]


def grid_tolerance(span: float) -> float:
    """The slack of every check on a grid of length ``span``: how far its
    quadrature weights may sum from ``span``, and its points or interval ends
    may sit from where they should; ``1e-12`` relative, absolute below a
    unit span."""
    return 1e-12 * max(span, 1.0)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing timepoints on ``[a, b]`` with trapezoidal weights.

    Instances are immutable; the grid keeps read-only copies of the given
    arrays, so a grid can be shared freely across workers and the caller's
    arrays stay writeable.
    """

    points: np.ndarray
    quad_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid points must be a nonempty 1-D array")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts.size == 1:
            # degenerate single-point grid (scalar latent layers); no
            # trapezoid rule exists, so the weight must be given explicitly
            if self.quad_weights is None:
                raise ValueError("a single-point grid needs an explicit quad weight")
            qw = np.array(self.quad_weights, dtype=np.float64)
            if qw.shape != pts.shape or qw[0] <= 0:
                raise ValueError("quad_weights must be one positive value")
        elif self.quad_weights is None:
            qw = trapezoid_weights(pts)
            if np.any(qw <= 0):  # half a gap of the smallest subnormal rounds to 0
                raise ValueError("grid points too close: a trapezoid weight underflows to 0")
        else:
            qw = np.array(self.quad_weights, dtype=np.float64)
            if qw.shape != pts.shape:
                raise ValueError("quad_weights length must match points")
            if np.any(qw <= 0):
                raise ValueError("quad_weights must all be positive")
            span = pts[-1] - pts[0]
            if abs(qw.sum() - span) > grid_tolerance(span):
                raise ValueError("quad_weights must sum to the interval length")
        pts.flags.writeable = False
        qw.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "quad_weights", qw)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        return self.b - self.a

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.quad_weights, other.quad_weights
        )


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoidal weights for arbitrary strictly increasing points."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.empty_like(pts)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w


def make_uniform_grid(a: float, b: float, m: int) -> Grid:
    """Uniform grid of ``m`` points on ``[a, b]`` with trapezoidal weights.

    Parameters
    ----------
    a, b : float
        Interval endpoints, ``b > a``.
    m : int
        Number of points, at least 2.
    """
    if b <= a:
        raise ValueError(f"invalid interval: need b > a, got [{a}, {b}]")
    if m < 2:
        raise ValueError(f"too few points: need m >= 2, got {m}")
    return Grid(points=np.linspace(a, b, m))


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Quadrature approximation of ``∫ f`` for samples ``values`` on ``grid``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(grid):
        raise ValueError(
            f"length mismatch: {values.shape[-1]} values vs {len(grid)} grid points"
        )
    return float(values @ grid.quad_weights) if values.ndim == 1 else values @ grid.quad_weights


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Discrete L2 inner product ``∫ f·g`` under the grid's quadrature."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError(f"length mismatch between f {f.shape} and g {g.shape}")
    return integrate(f * g, grid)


def linear_resample(values: np.ndarray, from_grid: Grid, to_grid: Grid) -> np.ndarray:
    """Piecewise-linear interpolation of ``values`` onto ``to_grid``.

    Target points must lie inside the source interval; no extrapolation.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(from_grid):
        raise ValueError("values length must match source grid")
    lo, hi = from_grid.a, from_grid.b
    tgt = to_grid.points
    tol = grid_tolerance(from_grid.span)
    if tgt[0] < lo - tol or tgt[-1] > hi + tol:
        raise ValueError(
            f"target points [{tgt[0]}, {tgt[-1]}] outside source interval [{lo}, {hi}]"
        )
    return np.interp(np.clip(tgt, lo, hi), from_grid.points, values)
