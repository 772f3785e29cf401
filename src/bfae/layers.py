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

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid

__all__ = [
    "ACTIVATION_KINDS",
    "INIT_SCHEMES",
    "TILE_BELOW",
    "Activation",
    "ContinuousLayer",
    "LayerCache",
    "layer_forward",
    "layer_backward",
    "init_layer",
    "sgd_step",
    "check_lr",
    "weigh_input",
]

ACTIVATION_KINDS = ("relu", "tanh", "sigmoid", "linear")
INIT_SCHEMES = ("uniform", "zeros")

# A constant multiplier of a (batch, row) array is tiled to the batch when the
# row is shorter than this, and broadcast as one row otherwise: numpy's
# broadcast loop pays per row, the tile pays a second batch-sized read.  On a
# 2-core Xeon (numpy 2.4), a 640-row multiply by the tile was 1.36x
# faster than by the row at rows of 128 and 0.88x as fast at rows of 150.
TILE_BELOW = 128


def check_lr(lr: float, name: str = "lr") -> None:
    """Raise ``ValueError``, naming the setting ``name``, unless ``lr`` is finite and ``>= 0``."""
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {lr!r}")


def _batch_multiplier(row: np.ndarray, batch: int) -> np.ndarray:
    # ``row`` as the multiplier of a (batch, len(row)) array: tiled below TILE_BELOW,
    # filled by broadcast, as np.tile's temporaries would raise the peak
    if len(row) >= TILE_BELOW:
        return row
    tile = np.empty((batch, len(row)))
    tile[...] = row
    return tile


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with a derivative defined everywhere.

    :meth:`backward` needs only the output, so :meth:`apply` may overwrite
    its input.  The relu derivative at exactly 0 is taken to be 0.
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

    def backward(self, upstream: np.ndarray, a: np.ndarray, out: np.ndarray):
        """``upstream`` times the derivative at ``z`` into ``out``, taken from the
        output ``a = apply(z)`` alone; linear returns ``upstream`` itself."""
        if self.kind == "linear":
            return upstream
        if self.kind == "relu":
            # max(z, 0) > 0 exactly where z > 0
            np.greater(a, 0.0, out=out)
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
    views of it; the arrays passed in are copied.  A layer made here owns its
    ``params``; a layer of a ``BFAEModel`` is moved into a slice of the model's
    one vector.  ``quad`` holds the input quadrature weights tiled over
    ``j_in``, or ``None`` when all are 1 (the dense AE).
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
        self._bind(np.empty(w.size + b.size))
        self.weights[...] = w
        self.biases[...] = b
        qw = self.in_grid.quad_weights
        self.quad = None if np.all(qw == 1.0) else np.tile(qw, j_in)

    def _bind(self, params: np.ndarray) -> None:
        # ``params`` becomes the layer's vector, and matrix, bias, weights and
        # biases its views; the values are the caller's to write
        self.params = params
        self.matrix, self.bias = _split(params, self.j_out * len(self.out_grid))
        self.weights = _surfaces(self.matrix, self.j_out, self.j_in)
        self.biases = self.bias.reshape(self.j_out, len(self.out_grid))


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
    and writes ``output``: the pre-activation, which the activation then
    overwrites (``out_flat`` is its ``(batch, -1)`` view).  With ``weigh=False``
    no buffer for the weighted input is made: for a layer whose forward calls
    are passed it.  ``weighted @ matrix_t`` is the pre-activation without
    bias: ``matrix_t`` is ``layer.matrix.T``, made once, unless a forward-only
    caller replaces it by the kernel weighed by ``layer.quad`` (transposed)
    and passes the raw input as ``weighted``, as ``BFAEModel._apply`` does for
    a batch taller than the kernel; such a cache must not go backward.

    The first backward pass makes ``grads`` (laid out like ``layer.params``,
    with ``grad_matrix``, ``grad_bias``, ``grad_weights`` and ``grad_biases``
    as views), ``delta`` for a non-linear layer, and, for a cache that weighs
    its input, ``quad_factor``: ``layer.quad`` tiled to the batch when the row
    ``j_in*m_in`` is shorter than :data:`TILE_BELOW`, else ``layer.quad``
    itself; from then on the weighing and the input gradient's quadrature
    multiply are one loop each.  ``grad_input`` (with its ``(batch, -1)`` view
    ``grad_input_flat``) is made only by a backward pass that computes it.
    A forward-only cache makes none of these.  The output :func:`layer_forward`
    returned is never overwritten by a backward pass, and a cache can go
    backward twice with the same results.
    """

    # a training workspace writes values over buffers whose values are dead
    _in_place = False

    def __init__(self, layer: ContinuousLayer, batch: int, weigh: bool = True):
        self.layer = layer
        self.in_shape = (batch, layer.j_in, len(layer.in_grid))
        self.out_shape = (batch, layer.j_out, len(layer.out_grid))
        self.input = self.weighted = None
        weigh = weigh and layer.quad is not None
        self.weigh_buffer = np.empty((batch, len(layer.quad))) if weigh else None
        self.grads = self.grad_input = self.quad_factor = None
        self.output = np.empty(self.out_shape)
        self.out_flat = self.output.reshape(batch, -1)
        self.matrix_t = layer.matrix.T

    def _backward_buffers(self, grads: np.ndarray = None):
        layer = self.layer
        if self.weigh_buffer is not None:
            self.quad_factor = _batch_multiplier(layer.quad, len(self.weigh_buffer))
        kind = layer.activation.kind
        if kind == "linear":
            self.delta = None
        elif self._in_place and kind != "sigmoid":
            # relu' and tanh' are formed from the output in place; a (1 - a) is not
            self.delta = self.output
        else:
            self.delta = np.empty_like(self.output)
        if self._in_place and self.weigh_buffer is not None:
            # read by the weight gradient, then dead: the input gradient goes over it
            self.grad_input_flat = self.weigh_buffer
            self.grad_input = self.weigh_buffer.reshape(self.in_shape)
        self.grads = np.empty_like(layer.params) if grads is None else grads
        self.grad_matrix, self.grad_bias = _split(self.grads, len(layer.bias))
        self.grad_weights = _surfaces(self.grad_matrix, layer.j_out, layer.j_in)
        self.grad_biases = self.grad_bias.reshape(layer.biases.shape)


class _TrainingCache(LayerCache):
    """A cache of a training workspace, which holds only live values: after
    each forward pass it goes backward once, and then the layer may take its
    step.

    Its backward buffers are made with it, and ``grads`` is the slice of the
    workspace's gradient vector passed in.  A relu or tanh layer's ``delta``
    is its ``output``, a weighing layer's ``grad_input`` is its
    ``weigh_buffer``, and :func:`sgd_step` writes the step over ``grads``.  So
    the forward output and the weighed input do not survive the backward pass,
    nor the gradients the step, and the cache cannot go backward twice.
    """

    _in_place = True

    def __init__(self, layer: ContinuousLayer, batch: int, weigh: bool, grads: np.ndarray):
        super().__init__(layer, batch, weigh)
        self._backward_buffers(grads)


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
    if weighted is None and cache.quad_factor is not None:
        flat = x.reshape(cache.weigh_buffer.shape)
        weighted = np.multiply(flat, cache.quad_factor, out=cache.weigh_buffer)
    elif weighted is None:
        weighted = weigh_input(layer, x, cache.weigh_buffer)
    cache.weighted = weighted
    np.matmul(weighted, cache.matrix_t, out=cache.out_flat)
    cache.out_flat += layer.bias
    return layer.activation.apply(cache.output, out=cache.output), cache


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
    delta = layer.activation.backward(upstream, cache.output, cache.delta)
    delta = delta.reshape(n, -1)
    np.add.reduce(delta, axis=0, out=cache.grad_bias)
    np.matmul(delta.T, cache.weighted, out=cache.grad_matrix)
    if not input_grad:
        return cache.grad_weights, cache.grad_biases, None
    if cache.grad_input is None:
        cache.grad_input = np.empty(cache.in_shape)
        cache.grad_input_flat = cache.grad_input.reshape(n, -1)
    np.matmul(delta, layer.matrix, out=cache.grad_input_flat)
    if cache.quad_factor is not None:
        cache.grad_input_flat *= cache.quad_factor
    elif layer.quad is not None:
        cache.grad_input_flat *= layer.quad
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
    """Create a layer with zero biases and surfaces started by ``scheme``, one
    of :data:`INIT_SCHEMES`.

    ``"uniform"`` draws surface values from ``U[-c, c]`` with
    ``c = sqrt(6 / ((j_in + j_out) * mass)) / mass`` where ``mass`` is the
    input grid's total quadrature weight (the interval length on a regular
    grid): a fan-based bound rescaled to compensate for quadrature mass.  On
    one-point grids of weight 1 (the dense AE) ``mass`` is 1 and ``c`` is
    Glorot's ``sqrt(6 / (fan_in + fan_out))`` (Glorot & Bengio, AISTATS 2010).
    ``"zeros"`` starts all parameters at zero.
    """
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}; choose from {INIT_SCHEMES}")
    if isinstance(activation, str):
        activation = Activation(activation)
    if j_in < 1 or j_out < 1:
        raise ValueError("neuron counts must be >= 1")
    shape = (j_out, j_in, len(out_grid), len(in_grid))
    if scheme == "uniform":
        mass = float(in_grid.quad_weights.sum())
        c = np.sqrt(6.0 / ((j_in + j_out) * mass)) / mass
        weights = np.random.default_rng(seed).uniform(-c, c, size=shape)
    else:
        weights = np.zeros(shape)
    biases = np.zeros((j_out, len(out_grid)))
    return ContinuousLayer(
        in_grid=in_grid, out_grid=out_grid,
        weights=weights, biases=biases, activation=activation,
    )


def sgd_step(layer: ContinuousLayer, grads: np.ndarray, lr: float,
             cache: LayerCache = None) -> ContinuousLayer:
    """In-place update ``params -= lr * grads``; returns the layer.

    ``grads`` is an array laid out like ``layer.params`` (a cache's ``grads``,
    say); it is left unchanged.  ``lr`` must pass :func:`check_lr`.  The
    step ``lr * grads`` is a temporary, except with the ``cache`` of a training
    workspace (``model.train``), which has been through :func:`layer_backward`
    and whose ``grads`` are dead once summed into the step: the step is
    written over them.
    """
    check_lr(lr)
    if not isinstance(grads, np.ndarray) or grads.shape != layer.params.shape:
        got = getattr(grads, "shape", type(grads).__name__)
        raise ValueError(f"grads must be an array laid out like layer.params, of shape "
                         f"{layer.params.shape}; got {got}")
    step = cache.grads if cache is not None and cache._in_place else None
    layer.params -= np.multiply(grads, lr, out=step)
    return layer
