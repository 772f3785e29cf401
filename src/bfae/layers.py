"""Continuous layers: integral operators with learnable bivariate kernels.

A layer maps a batch of ``j_in`` input functions sampled on ``in_grid`` to
``j_out`` output functions on ``out_grid``::

    out[i, r, s] = act( b[r, s] + sum_j quad_t( w[r, j, s, t] * x[i, j, t] ) )

where ``quad_t`` is the trapezoidal sum over the input grid.  The backward
pass returns the exact gradients of this discretized map (quadrature weights
included), so analytic gradients agree with finite differences of the
forward pass to machine-level accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid

__all__ = [
    "ACTIVATION_KINDS",
    "Activation",
    "ContinuousLayer",
    "LayerCache",
    "layer_forward",
    "layer_backward",
    "init_layer",
    "sgd_step",
    "weigh_input",
]

ACTIVATION_KINDS = ("relu", "tanh", "sigmoid", "linear")


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with a derivative defined everywhere.

    The relu derivative at exactly 0 is taken to be 0.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}; choose from {ACTIVATION_KINDS}")

    def apply(self, z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """``act(z)``, into ``out`` if given; linear returns ``z`` itself."""
        if self.kind == "relu":
            return np.maximum(z, 0.0, out=out)
        if self.kind == "tanh":
            return np.tanh(z, out=out)
        if self.kind == "sigmoid":
            return _sigmoid(z, out)
        return z

    def backward(self, upstream: np.ndarray, z: np.ndarray, a: np.ndarray, out: np.ndarray):
        """``upstream`` times the derivative at ``z`` into ``out``, given ``a = apply(z)``;
        linear returns ``upstream`` itself."""
        if self.kind == "linear":
            return upstream
        if self.kind == "relu":
            np.greater(z, 0.0, out=out)
        elif self.kind == "tanh":
            np.subtract(1.0, np.multiply(a, a, out=out), out=out)
        else:
            np.multiply(a, np.subtract(1.0, a, out=out), out=out)
        return np.multiply(out, upstream, out=out)


def _sigmoid(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |z|
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class ContinuousLayer:
    """One continuous layer: weight surfaces, bias functions, activation.

    All parameters live in one vector ``params``: the rows of ``matrix``
    ``(j_out*m_out, j_in*m_in)`` (rows over ``(r, s)``, columns over ``(j, t)``),
    then ``bias`` ``(j_out*m_out,)``.  ``matrix``, ``bias``, ``weights``
    ``(j_out, j_in, m_out, m_in)`` and ``biases`` ``(j_out, m_out)`` are writable
    views of it; the arrays passed in are copied.  ``quad`` holds the input
    quadrature weights tiled over ``j_in``, or ``None`` when all are 1 (the
    dense AE).
    """

    in_grid: Grid
    out_grid: Grid
    weights: np.ndarray
    biases: np.ndarray
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 4:
            raise ValueError("weights must be (j_out, j_in, m_out, m_in)")
        j_out, j_in, m_out, m_in = w.shape
        if m_in != len(self.in_grid) or m_out != len(self.out_grid):
            raise ValueError(
                f"weight surface {m_out}x{m_in} does not match grids "
                f"{len(self.out_grid)}x{len(self.in_grid)}"
            )
        if b.shape != (j_out, m_out):
            raise ValueError(f"biases must be (j_out, m_out) = ({j_out}, {m_out})")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        self.j_out, self.j_in = j_out, j_in
        self.params = np.empty(w.size + b.size)
        self.matrix, self.bias = _split(self.params, j_out * m_out)
        self.weights = _surfaces(self.matrix, j_out, j_in)
        self.biases = self.bias.reshape(j_out, m_out)
        self.weights[...] = w
        self.biases[...] = b
        qw = self.in_grid.quad_weights
        self.quad = None if np.all(qw == 1.0) else np.tile(qw, j_in)


def _split(vector: np.ndarray, rows: int):
    # the (matrix, bias) views of a vector laid out like ``params``
    cols = (len(vector) - rows) // rows
    return vector[: rows * cols].reshape(rows, cols), vector[rows * cols :]


def _surfaces(matrix: np.ndarray, j_out: int, j_in: int) -> np.ndarray:
    # the (j_out, j_in, m_out, m_in) view of a (j_out * m_out, j_in * m_in) matrix
    return matrix.reshape(j_out, matrix.shape[0] // j_out, j_in, -1).transpose(0, 2, 1, 3)


def weigh_input(layer: ContinuousLayer, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``x`` times ``layer.quad``, flattened to ``(batch, j_in*m_in)``, into
    ``out`` if given; with unit weights, the flattened ``x`` itself."""
    flat = x.reshape(len(x), -1)
    return flat if layer.quad is None else np.multiply(flat, layer.quad, out=out)


class LayerCache:
    """Workspace of ``layer`` for one batch size, with the input and output
    shapes it expects (``in_shape``, ``out_shape``).

    :func:`layer_forward` keeps the raw ``input`` and the ``weighted`` input
    and writes the pre-activation and activation; the first backward pass
    makes ``grads`` (laid out like ``layer.params``, with ``grad_matrix``,
    ``grad_bias``, ``grad_weights`` and ``grad_biases`` as views) and
    ``step``, which :func:`sgd_step` writes.  ``grad_input`` is made only by
    a backward pass that computes it.  With ``weigh=False`` no buffer for the
    weighted input is made: for a layer whose forward calls are passed it.
    """

    def __init__(self, layer: ContinuousLayer, batch: int, weigh: bool = True):
        self.layer = layer
        self.in_shape = (batch, layer.j_in, len(layer.in_grid))
        self.out_shape = (batch, layer.j_out, len(layer.out_grid))
        self.input = self.weighted = None
        weigh = weigh and layer.quad is not None
        self.weigh_buffer = np.empty((batch, len(layer.quad))) if weigh else None
        self.grads = self.step = self.grad_input = None
        self.pre_activation = np.empty(self.out_shape)
        linear = layer.activation.kind == "linear"
        self.output = self.pre_activation if linear else np.empty_like(self.pre_activation)

    def _backward_buffers(self):
        layer = self.layer
        self.delta = None if self.output is self.pre_activation else np.empty_like(self.output)
        self.grads, self.step = np.empty_like(layer.params), np.empty_like(layer.params)
        self.grad_matrix, self.grad_bias = _split(self.grads, len(layer.bias))
        self.grad_weights = _surfaces(self.grad_matrix, layer.j_out, layer.j_in)
        self.grad_biases = self.grad_bias.reshape(layer.biases.shape)


def layer_forward(layer: ContinuousLayer, x: np.ndarray, cache: LayerCache = None,
                  weighted: np.ndarray = None):
    """Apply the layer to a batch ``(batch, j_in, m_in)``.

    Returns ``(output, cache)`` with output ``(batch, j_out, m_out)``.  Without
    ``cache`` the input is checked and a new cache made; with one, the caller
    has checked the input and the results go into its buffers.  A caller that
    already holds ``weigh_input(layer, x)`` may pass it as ``weighted``.
    """
    if cache is None:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != layer.j_in or x.shape[2] != len(layer.in_grid):
            raise ValueError(
                f"input shape {x.shape} does not match (batch, {layer.j_in}, {len(layer.in_grid)})"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite layer input")
        cache = LayerCache(layer, x.shape[0])
    elif cache.layer is not layer:
        raise ValueError("stale cache: made for another layer")
    elif x.shape != cache.in_shape:
        raise ValueError(f"input shape {x.shape} does not match the cache")
    cache.input = x
    if weighted is None:
        weighted = weigh_input(layer, x, cache.weigh_buffer)
    cache.weighted = weighted
    pre = cache.pre_activation.reshape(len(x), -1)
    np.matmul(weighted, layer.matrix.T, out=pre)
    pre += layer.bias
    return layer.activation.apply(cache.pre_activation, out=cache.output), cache


def layer_backward(
    layer: ContinuousLayer, cache: LayerCache, upstream: np.ndarray, input_grad: bool = True,
):
    """Exact gradients of the discretized forward map.

    ``upstream`` is the loss gradient w.r.t. the layer output.  Returns
    ``(grad_weights, grad_biases, grad_input)`` where the parameter gradients
    are summed over the batch and ``grad_input`` is the adjoint-propagated
    per-sample gradient w.r.t. the layer input, all in the cache's buffers
    (the parameter gradients are views of ``cache.grads``).  With
    ``input_grad=False`` (a layer whose input is the data) the input gradient
    is not computed and ``grad_input`` is ``None``.
    """
    if cache.layer is not layer:
        raise ValueError("stale cache: made for another layer")
    if not isinstance(upstream, np.ndarray) or upstream.dtype != np.float64:
        upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.out_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match (batch, j_out, m_out)"
        )
    if cache.grads is None:
        cache._backward_buffers()
    n = len(upstream)
    delta = layer.activation.backward(upstream, cache.pre_activation, cache.output, cache.delta)
    delta = delta.reshape(n, -1)
    np.add.reduce(delta, axis=0, out=cache.grad_bias)
    np.matmul(delta.T, cache.weighted, out=cache.grad_matrix)
    if not input_grad:
        return cache.grad_weights, cache.grad_biases, None
    if cache.grad_input is None:
        cache.grad_input = np.empty(cache.in_shape)
    grad_input = cache.grad_input.reshape(n, -1)
    np.matmul(delta, layer.matrix, out=grad_input)
    if layer.quad is not None:
        grad_input *= layer.quad
    return cache.grad_weights, cache.grad_biases, cache.grad_input


def init_layer(
    in_grid: Grid,
    out_grid: Grid,
    j_in: int,
    j_out: int,
    activation,
    scheme: str = "uniform",
    seed: int = 0,
) -> ContinuousLayer:
    """Create a layer with zero biases and scheme-initialized surfaces.

    ``"uniform"`` draws surface values from ``U[-c, c]`` with
    ``c = sqrt(6 / ((j_in + j_out) * mass)) / mass`` where ``mass`` is the
    input grid's total quadrature weight (the interval length on a regular
    grid): a fan-based bound rescaled to compensate for quadrature mass.
    ``"zeros"`` starts all parameters at zero.
    """
    if isinstance(activation, str):
        activation = Activation(activation)
    if j_in < 1 or j_out < 1:
        raise ValueError("neuron counts must be >= 1")
    shape = (j_out, j_in, len(out_grid), len(in_grid))
    if scheme == "uniform":
        mass = float(in_grid.quad_weights.sum())
        c = np.sqrt(6.0 / ((j_in + j_out) * mass)) / mass
        weights = np.random.default_rng(seed).uniform(-c, c, size=shape)
    elif scheme == "zeros":
        weights = np.zeros(shape)
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    biases = np.zeros((j_out, len(out_grid)))
    return ContinuousLayer(
        in_grid=in_grid, out_grid=out_grid,
        weights=weights, biases=biases, activation=activation,
    )


def sgd_step(layer: ContinuousLayer, grads, lr: float, cache: LayerCache = None) -> ContinuousLayer:
    """In-place update ``params -= lr * grads``; returns the layer.

    ``grads`` is a vector laid out like ``layer.params`` (a cache's ``grads``,
    say) or a pair ``(grad_weights, grad_biases)`` shaped like ``weights`` and
    ``biases``; it is left unchanged.  With a ``cache`` that has been through
    :func:`layer_backward`, the step ``lr * grads`` goes into its ``step``.
    """
    if not lr >= 0:
        raise ValueError("lr must be >= 0")
    if isinstance(grads, np.ndarray):
        if grads.shape != layer.params.shape:
            raise ValueError("gradient shapes do not match layer parameters")
    else:
        grad_w, grad_b = grads
        if grad_w.shape != layer.weights.shape or grad_b.shape != layer.biases.shape:
            raise ValueError("gradient shapes do not match layer parameters")
        # gathered into the params layout: the matrix rows, then the bias
        grads = np.concatenate((grad_w.transpose(0, 2, 1, 3).ravel(), grad_b.ravel()))
    layer.params -= np.multiply(grads, lr, out=None if cache is None else cache.step)
    return layer
