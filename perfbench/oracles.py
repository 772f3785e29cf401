"""Reference computations that use numpy only, never ``bfae`` code.

The benchmark checks the program's outputs against these: trapezoid weights
from the explicit formula, the integral-operator forward pass written as one
``numpy.einsum`` per layer, functional RMSE under those weights, and the
error of predicting every curve by the training-mean curve.
"""

from __future__ import annotations

import numpy as np


def trapezoid_weights(points) -> np.ndarray:
    """``w_0 = h_0/2``, ``w_k = (h_{k-1} + h_k)/2``, ``w_last = h_last/2``.

    A single point (a scalar latent) has no trapezoid rule; the model gives
    it the whole interval as weight, so callers pass that explicitly.
    """
    t = np.asarray(points, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two points")
    h = np.diff(t)
    if np.any(h <= 0):
        raise ValueError("points must be strictly increasing")
    w = np.zeros_like(t)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


def uniform_weights(a: float, b: float, m: int) -> np.ndarray:
    """Weights of the model's layer grids: trapezoid on ``linspace(a, b, m)``,
    or the interval length at the midpoint when ``m == 1``."""
    if m == 1:
        return np.array([b - a], dtype=np.float64)
    return trapezoid_weights(np.linspace(a, b, m))


def functional_rmse(truth, estimate, weights) -> float:
    """Root of the sample mean of the feature-summed integrated squared error."""
    d = np.asarray(truth, dtype=np.float64) - np.asarray(estimate, dtype=np.float64)
    per_sample = np.einsum("nrm,m->n", d * d, np.asarray(weights, dtype=np.float64))
    return float(np.sqrt(per_sample.mean()))


def mean_curve_rmse(train, test, weights) -> float:
    """Test RMSE of predicting every test curve by the training-mean curve."""
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    return functional_rmse(test, np.broadcast_to(train.mean(axis=0), test.shape), weights)


_ACTIVATIONS = {
    "linear": lambda z: z,
    "tanh": np.tanh,
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 0.5 * (1.0 + np.tanh(0.5 * z)),
}


def integral_forward(x, layers) -> np.ndarray:
    """Apply ``act(b[r,s] + sum_j sum_t w[r,j,s,t] q[t] x[i,j,t])`` per layer.

    ``layers`` is a sequence of ``(weights, biases, in_weights, activation)``
    with ``weights`` shaped ``(j_out, j_in, m_out, m_in)``.
    """
    h = np.asarray(x, dtype=np.float64)
    for weights, biases, q, activation in layers:
        pre = np.einsum("rjst,t,ijt->irs", weights, q, h, optimize=True) + biases
        h = _ACTIVATIONS[activation](pre)
    return h


def max_relative_error(actual, expected) -> float:
    """``max |a - e| / max |e|``: one scale for the whole array."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        raise ValueError(f"shape mismatch: {actual.shape} vs {expected.shape}")
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(actual - expected))) / (scale if scale > 0 else 1.0)
