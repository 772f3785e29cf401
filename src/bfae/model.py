"""Bi-functional autoencoder: encoder/decoder stacks of continuous layers.

The latent code of sample ``i`` is the output of layer ``latent_index``:
``feature_counts[latent_index]`` functions observed on a grid of
``grid_sizes[latent_index]`` timepoints.  Training minimizes the quadrature
approximation of the mean integrated squared reconstruction error on the
exact discretized gradients, by full-batch gradient descent or by L-BFGS.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import Grid, make_uniform_grid
from .layers import (
    INIT_SCHEMES,
    Activation,
    ContinuousLayer,
    LayerCache,
    _batch_multiplier,
    _TrainingCache,
    check_lr,
    init_layer,
    layer_backward,
    layer_forward,
    sgd_step,
    weigh_input,
)

__all__ = [
    "BFAEConfig",
    "BFAEModel",
    "TrainHistory",
    "TrainingDiverged",
    "build",
    "bottleneck_config",
    "reconstruction_loss",
    "train",
    "model_gradients",
    "save_model",
    "load_model",
]


DIVERGENCE_FACTOR = 1e6

# A full-batch fit trains its first layer in dual form (``_DualFirstLayer``)
# when the batch is shorter than DUAL_BELOW times the layer's input width
# J0*M0: an epoch then makes n*n*p products for that layer where the primal
# form makes 2*n*J0*M0*p (forward and weight gradient), p its output width.
# On a 2-core Xeon (numpy 2.4, one BLAS thread), a 2-layer tanh epoch at
# J0*M0 in {150, 336} and p in {30, 150, 192} took 0.56-0.88x the primal time
# at n = J0*M0, 0.88-0.95x at 1.5x (one 5-run median 1.07x, 0.90x over 9
# runs), 0.82-1.00x at 1.6-1.75x, and 0.98-1.23x at 2x and 2.5x.
DUAL_BELOW = 2

OPTIMIZERS = ("gd", "lbfgs")

# L-BFGS (Liu & Nocedal, Math. Programming 45, 1989) keeps the last
# LBFGS_PAIRS steps and gradient changes and applies their inverse-Hessian
# estimate in the compact form of Byrd, Nocedal & Schnabel (Math. Programming
# 63, 1994).  A step is accepted by Armijo backtracking: halving from its
# first trial, at most LINE_SEARCH_TRIALS trials, until the loss falls by
# ARMIJO_C1 times the step's slope.  A pair is kept only if s.y > CURVATURE_EPS
# * y.y, which keeps the estimate positive definite.
LBFGS_PAIRS = 20
ARMIJO_C1 = 1e-4
LINE_SEARCH_TRIALS = 30
CURVATURE_EPS = float(np.finfo(np.float64).eps)


class TrainingDiverged(RuntimeError):
    """Raised when the loss is non-finite or exceeds ``DIVERGENCE_FACTOR`` times the first."""


@dataclass(frozen=True)
class BFAEConfig:
    """Architecture and optimization settings.

    ``feature_counts`` and ``grid_sizes`` have one entry per layer boundary
    (``L + 1`` entries for ``L`` layers); the first and last entries must
    match the data shape.  ``latent_index`` picks the layer whose output is
    the latent code and defaults to ``ceil(L / 2)``.  ``optimizer`` is one of
    :data:`OPTIMIZERS`: ``"gd"`` takes ``epochs`` steps of ``lr`` (along a
    velocity with ``momentum``), ``"lbfgs"`` runs ``epochs`` L-BFGS
    iterations whose first trial step is ``lr``, and takes no momentum.
    """

    feature_counts: tuple
    grid_sizes: tuple
    latent_index: Optional[int] = None
    activations: Optional[tuple] = None
    interval: tuple = (0.0, 1.0)
    lr: float = 0.01
    epochs: int = 2000
    init_scheme: str = "uniform"
    seed: int = 0
    momentum: float = 0.0
    optimizer: str = "gd"

    def __post_init__(self):
        feats = tuple(int(j) for j in self.feature_counts)
        grids = tuple(int(m) for m in self.grid_sizes)
        if len(feats) < 3:
            raise ValueError("need at least 2 layers (3 boundary entries)")
        if len(feats) != len(grids):
            raise ValueError("feature_counts and grid_sizes must have equal length")
        if any(j < 1 for j in feats) or any(m < 1 for m in grids):
            raise ValueError("feature counts and grid sizes must be >= 1")
        if feats[0] != feats[-1] or grids[0] != grids[-1]:
            raise ValueError(
                "first and last feature counts / grid sizes must match the data shape"
            )
        n_layers = len(feats) - 1
        latent = self.latent_index
        if latent is None:
            latent = math.ceil(n_layers / 2)
        if not 1 <= latent <= n_layers - 1:
            raise ValueError(
                f"latent_index must be in 1..{n_layers - 1}, got {latent}"
            )
        acts = self.activations
        if acts is None:
            acts = ("tanh",) * (n_layers - 1) + ("linear",)
        acts = tuple((a if isinstance(a, Activation) else Activation(str(a))).kind for a in acts)
        if len(acts) != n_layers:
            raise ValueError(f"need {n_layers} activations, one per layer, got {len(acts)}")
        if acts[-1] != "linear":
            raise ValueError("output layer activation must be linear")
        if self.init_scheme not in INIT_SCHEMES:
            raise ValueError(
                f"unknown init scheme {self.init_scheme!r}; choose from {INIT_SCHEMES}")
        if len(self.interval) != 2:
            raise ValueError(f"interval must be a pair (a, b), got {self.interval!r}")
        a, b = self.interval
        if not b > a:
            raise ValueError("interval must satisfy b > a")
        if isinstance(self.lr, bool):
            raise ValueError(f"lr must be a number, got {self.lr!r}")
        check_lr(self.lr)
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, (int, np.integer)):
            raise ValueError(f"epochs must be a whole number, got {self.epochs!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if self.optimizer == "lbfgs" and self.momentum > 0:
            raise ValueError(f"momentum must be 0 with optimizer 'lbfgs', got {self.momentum!r}")
        object.__setattr__(self, "feature_counts", feats)
        object.__setattr__(self, "grid_sizes", grids)
        object.__setattr__(self, "latent_index", int(latent))
        object.__setattr__(self, "activations", acts)
        object.__setattr__(self, "interval", (float(a), float(b)))

    @property
    def n_layers(self) -> int:
        return len(self.feature_counts) - 1

    @property
    def latent_shape(self) -> tuple:
        return (self.feature_counts[self.latent_index], self.grid_sizes[self.latent_index])


def bottleneck_config(
    n_features: int,
    n_points: int,
    latent_features: int,
    latent_points: int,
    n_layers: int = 2,
    hidden: str = "tanh",
    **kwargs,
) -> BFAEConfig:
    """Symmetric encoder/decoder config with the latent layer in the middle.

    ``n_layers=2`` gives one encoding and one decoding layer; deeper stacks
    repeat the latent width on the extra interior boundaries.
    """
    if n_layers < 2:
        raise ValueError("need at least 2 layers for an interior latent")
    feats = [n_features] + [latent_features] * (n_layers - 1) + [n_features]
    grids = [n_points] + [latent_points] * (n_layers - 1) + [n_points]
    acts = (hidden,) * (n_layers - 1) + ("linear",)
    return BFAEConfig(
        feature_counts=tuple(feats),
        grid_sizes=tuple(grids),
        activations=acts,
        **kwargs,
    )


@dataclass
class TrainHistory:
    """Training loss at the start of each epoch (``"gd"``) or iteration
    (``"lbfgs"``), and the number of loss ``evaluations`` the fit made: one per
    epoch, or every line-search trial and the first evaluation."""

    losses: np.ndarray
    evaluations: int


@dataclass
class BFAEModel:
    """Encoder (layers ``1..latent_index``) plus decoder (the rest).

    ``config`` describes the model whole: ``build(model.config)`` redraws its
    start, and ``latent_index`` is read from it.  The model owns one vector
    ``params``, every layer's ``params`` laid end to end: making the model
    copies each layer's values into its slice and makes that slice the layer's
    ``params`` (and its ``matrix``, ``bias``, ``weights`` and ``biases`` views
    of it), so writing ``model.params`` moves every layer.
    """

    layers: list
    config: BFAEConfig
    trained_epochs: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.empty(sum(len(layer.params) for layer in self.layers))
        offset = 0
        for layer in self.layers:
            part = self.params[offset : offset + len(layer.params)]
            part[...] = layer.params
            layer._bind(part)
            offset += len(part)

    @property
    def latent_index(self) -> int:
        return self.config.latent_index

    @property
    def data_grid(self) -> Grid:
        return self.layers[0].in_grid

    @property
    def n_features(self) -> int:
        return self.layers[0].j_in

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Latent code: output of the layer at ``latent_index``."""
        return self._apply(self.layers[: self.latent_index], x)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self.layers, x)

    def _apply(self, layers, x: np.ndarray) -> np.ndarray:
        # Forward only: a layer's cache is freed once the next layer ran and
        # never reaches layer_backward.  A batch taller than a weighing layer's
        # kernel leaves the batch unweighed and meets the weighed kernel
        # (W * q).T instead, which makes fewer products and no batch-sized
        # buffer; x (W * q).T and (x q) W.T differ in the last digits.
        h = self._check_batch(x)
        for layer in layers:
            n = len(h)
            if layer.quad is None or n <= len(layer.bias):
                h = layer_forward(layer, h, LayerCache(layer, n))[0]
            else:
                cache = LayerCache(layer, n, weigh=False)
                cache.matrix_t = (layer.matrix * layer.quad).T
                h = layer_forward(layer, h, cache, h.reshape(n, -1))[0]
        return h

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"batch must be (n, R, M), got shape {x.shape}")
        if len(x) == 0:
            raise ValueError(f"batch {x.shape} holds no samples")
        if x.shape[1] != self.n_features or x.shape[2] != len(self.data_grid):
            raise ValueError(
                f"batch shape {x.shape[1:]} does not match model "
                f"({self.n_features}, {len(self.data_grid)})"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in batch")
        return x


def _layer_frames(config: BFAEConfig):
    """``(in_grid, out_grid, activation)`` of each layer; a scalar latent (M=1)
    is one midpoint sample weighted by the interval length."""
    a, b = config.interval
    grids = [
        Grid(points=np.array([(a + b) / 2.0]), quad_weights=np.array([b - a]))
        if m == 1 else make_uniform_grid(a, b, m)
        for m in config.grid_sizes
    ]
    return zip(grids, grids[1:], map(Activation, config.activations))


def build(config: BFAEConfig) -> BFAEModel:
    """Initialize all layers of the architecture described by ``config``."""
    layers = [
        init_layer(
            in_grid=in_grid,
            out_grid=out_grid,
            j_in=config.feature_counts[ell],
            j_out=config.feature_counts[ell + 1],
            activation=activation,
            scheme=config.init_scheme,
            seed=config.seed + ell,
        )
        for ell, (in_grid, out_grid, activation) in enumerate(_layer_frames(config))
    ]
    return BFAEModel(layers=layers, config=config)


def reconstruction_loss(x: np.ndarray, xhat: np.ndarray, grid: Grid) -> float:
    """Mean over samples of the summed integrated squared feature errors."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    if x.shape[-1] != len(grid):
        raise ValueError("last axis must match grid length")
    d = x - xhat
    return float(((d * d) @ grid.quad_weights).sum(axis=1).mean())


class _DualFirstLayer:
    """The first layer of a full-batch fit, trained in dual form.

    The layer's input is the fixed weighed data ``X = weigh_input(layer, x)``,
    so each step ``lr * delta.T @ [X 1]`` of ``[matrix bias]`` lies in the
    rows' span, and the layer stays ``matrix0 + C.T @ X``, ``bias0 + C.sum(0)``
    with ``coef`` ``C`` ``(n, p)`` starting at zero (the representer theorem;
    ``p = len(layer.bias)``).  Its pre-activation is ``G @ C + P``, with the Gram
    ``G = X @ X.T + 1`` and the base ``P = X @ matrix0.T + bias0`` made once per
    fit, and its step is ``C -= lr * delta``, with momentum along
    ``velocity = momentum * velocity + delta``: no weight-gradient product, no
    bias reduce and no ``grads``, and ``X`` is not held.  ``layer.params`` is
    stale until :meth:`fold` writes ``C`` into it.  A relu or tanh layer forms
    ``delta`` over its ``output``, and the step goes over ``delta``.
    """

    def __init__(self, layer: ContinuousLayer, weighted: np.ndarray, momentum: float):
        n = len(weighted)
        self.layer = layer
        self.gram = np.matmul(weighted, weighted.T)
        self.gram += 1.0
        self.base = np.matmul(weighted, layer.matrix.T)
        self.base += layer.bias
        self.coef = np.zeros_like(self.base)
        self.velocity = np.zeros_like(self.coef) if momentum > 0 else None
        self.output = np.empty((n, layer.j_out, len(layer.out_grid)))
        self.out_flat = self.output.reshape(n, -1)
        kind = layer.activation.kind
        self.delta = np.empty_like(self.output) if kind == "sigmoid" else self.output

    def forward(self) -> np.ndarray:
        np.matmul(self.gram, self.coef, out=self.out_flat)
        self.out_flat += self.base
        return self.layer.activation.apply(self.output, out=self.output)

    def step(self, upstream: np.ndarray, lr: float, momentum: float) -> None:
        # a linear layer's delta is ``upstream``, the next layer's spent input gradient
        delta = self.layer.activation.backward(upstream, self.output, self.delta)
        delta = delta.reshape(self.coef.shape)
        if self.velocity is not None:
            self.velocity *= momentum
            self.velocity += delta
        direction = delta if self.velocity is None else self.velocity
        self.coef -= np.multiply(direction, lr, out=delta)

    def fold(self, weighted: np.ndarray) -> None:
        """Write ``C`` into ``layer.params``: ``matrix += C.T @ X``, ``bias += C.sum(0)``,
        with ``X`` the ``weighted`` data again."""
        self.gram = None  # freed before the (p, J0*M0) product
        self.layer.matrix += self.coef.T @ weighted
        self.layer.bias += np.add.reduce(self.coef, axis=0)


def _gradient_pass(model: BFAEModel, x: np.ndarray, weighted: np.ndarray, workspace: tuple = None,
                   lr: float = None, momentum: float = 0.0, velocity: list = None,
                   dual: _DualFirstLayer = None):
    """Forward, loss and backward of a checked batch ``x``, whose first-layer
    ``weigh_input`` is ``weighted``, into a training workspace, made when
    ``workspace`` is ``None`` and passed back for the next pass of the fit;
    returns ``(loss, workspace)``, whose first entry is the caches and second
    their one gradient vector, laid out like ``model.params`` from the first
    cached layer on (each cache's ``grads`` is its slice).  Without ``lr`` it
    holds the gradients.  With ``lr`` each layer takes its
    step by :func:`sgd_step` right after its backward pass, which has already
    formed the input gradient from the old matrix; with ``velocity`` (one
    vector per layer) the step is along ``velocity = momentum * velocity +
    grads``.  With ``dual`` (and ``lr``) the first layer is ``dual``: it makes
    no cache and no ``velocity`` entry, and takes its step last.  The loss is
    :func:`reconstruction_loss` up to rounding.  The output layer must be
    linear, as every ``BFAEConfig`` makes it: a workspace is refused
    (``ValueError``) otherwise."""
    n = len(x)
    first = 0 if dual is None else 1
    if workspace is None:
        kind = model.layers[-1].activation.kind
        if kind != "linear":
            raise ValueError(f"the output layer's activation is {kind!r}; it must be linear")
        grads = np.empty(sum(len(layer.params) for layer in model.layers[first:]))
        caches, offset = [None] * first, 0
        for ell, layer in enumerate(model.layers[first:], first):
            size = len(layer.params)
            # the first layer is passed the data weighted once per fit
            caches.append(_TrainingCache(layer, n, ell > 0, grads[offset : offset + size]))
            offset += size
        # the residual overwrites the linear output, which backward does not read
        residual = caches[-1].output
        upstream = np.empty(x.shape)
        # the loss gradient w.r.t. the output is the residual times (2 / n) q,
        # multiplied over (n, J*M) views: never broadcast over the M axis
        scale = np.tile((2.0 / n) * model.data_grid.quad_weights, x.shape[1])
        workspace = (caches, grads, residual, upstream, residual.reshape(n, -1),
                     upstream.reshape(n, -1), _batch_multiplier(scale, n))
    caches, _, residual, upstream, residual_flat, upstream_flat, scale = workspace
    h = x if dual is None else dual.forward()
    for layer, cache in zip(model.layers[first:], caches[first:]):
        h = layer_forward(layer, h, cache, weighted)[0]
        weighted = None
    np.subtract(h, x, out=residual)
    np.multiply(residual_flat, scale, out=upstream_flat)
    # sum(r * r * q) / n is half of <r, (2 / n) * q * r>, and halving is exact
    loss = 0.5 * float(np.vdot(residual, upstream))
    for ell in reversed(range(first, len(caches))):
        layer, cache = model.layers[ell], caches[ell]
        # the first layer's input is the data: its gradient would go unused
        upstream = layer_backward(layer, cache, upstream, input_grad=ell > 0)[2]
        if lr is not None:
            grads = cache.grads
            if velocity is not None:
                grads = velocity[ell]
                grads *= momentum
                grads += cache.grads
            sgd_step(layer, grads, lr, cache)
    if dual is not None:
        dual.step(upstream, lr, momentum)
    return loss, workspace


def model_gradients(model: BFAEModel, x: np.ndarray):
    """Exact gradients of :func:`reconstruction_loss` w.r.t. all parameters.

    Returns ``(loss, [(grad_w, grad_b), ...])`` ordered like ``model.layers``.
    """
    x = model._check_batch(x)
    loss, (caches, *_) = _gradient_pass(model, x, weigh_input(model.layers[0], x))
    return loss, [(cache.grad_weights, cache.grad_biases) for cache in caches]


def train(model: BFAEModel, train_values: np.ndarray) -> TrainHistory:
    """Fit the model to full batches by its config's ``optimizer``.

    ``"gd"`` takes ``epochs`` descent steps of ``lr``.  A batch shorter than
    ``DUAL_BELOW`` times the first layer's input width trains that layer in
    dual form (``_DualFirstLayer``), which rounds differently from the primal
    steps; its parameters are written back when training ends, however it
    ends.  ``losses[epoch]`` is the loss of that epoch's pass, before its
    steps.  Raises :class:`TrainingDiverged` if the loss becomes non-finite or
    exceeds ``DIVERGENCE_FACTOR`` times the first epoch's loss.

    ``"lbfgs"`` runs at most ``epochs`` iterations of :func:`_train_lbfgs`.
    """
    x = model._check_batch(train_values)
    if model.config.optimizer == "lbfgs":
        return _train_lbfgs(model, x)
    return _train_gd(model, x)


def _train_gd(model: BFAEModel, x: np.ndarray) -> TrainHistory:
    cfg = model.config
    losses = np.empty(cfg.epochs)
    lr, momentum = cfg.lr, cfg.momentum
    # the data and its quadrature weights are fixed: weigh them once per fit
    weighted = weigh_input(model.layers[0], x)
    dual = None
    if cfg.epochs > 0 and len(x) < DUAL_BELOW * weighted.shape[1]:
        dual = _DualFirstLayer(model.layers[0], weighted, momentum)
        # weighed again for the fold, so not held through the epochs
        weighted = None
    first = 0 if dual is None else 1
    velocity = None
    if momentum > 0:
        velocity = [None] * first + [np.zeros_like(lay.params) for lay in model.layers[first:]]
    workspace = None

    try:
        for epoch in range(cfg.epochs):
            loss, workspace = _gradient_pass(model, x, weighted, workspace, lr, momentum,
                                             velocity, dual)
            losses[epoch] = loss
            if not (math.isfinite(loss) and loss <= DIVERGENCE_FACTOR * losses[0]):
                raise TrainingDiverged(
                    f"loss {loss:.6g} at epoch {epoch} (initial loss {losses[0]:.6g}): "
                    f"non-finite or above {DIVERGENCE_FACTOR:g} times the initial loss; reduce lr"
                )
            model.trained_epochs += 1
    finally:
        if dual is not None:
            workspace = None  # freed before the fold
            dual.fold(weigh_input(model.layers[0], x))
    return TrainHistory(losses=losses, evaluations=cfg.epochs)


class _LBFGSMemory:
    """The last ``LBFGS_PAIRS`` pairs ``s = x_new - x``, ``y = g_new - g`` of an
    L-BFGS fit and the inverse-Hessian estimate they make.

    ``pairs`` holds them in ring slots, ``S`` in its first ``size`` rows over
    ``Y``, and ``order`` the slots of the kept pairs, oldest first.  In that
    order, ``R`` is the upper triangle of ``S'Y`` (``R[i, j] = s_i . y_j`` for
    ``i <= j``): ``rinv`` holds its inverse and ``diag`` its diagonal, and
    ``yy[i, j]`` is ``y_i . y_j``.  A new pair borders ``R`` with the column
    ``c = S'y`` and ``d = s . y``, so ``R^-1`` gains the column ``-R^-1 c / d``
    over ``1 / d``; when the oldest pair leaves, ``R^-1`` keeps its trailing
    block, which is the inverse of ``R``'s.  ``proj`` is ``pairs @ g`` at the
    gradient ``g`` last passed to :meth:`update`: the one pass over ``pairs`` a
    step makes before its direction's, from which the new pair's products with
    the kept ones come, ``s_i . y = s_i . g_new - s_i . g``.  ``count`` counts
    the pairs kept.
    """

    def __init__(self, n_params: int):
        size = self.size = LBFGS_PAIRS
        self.count, self.gamma = 0, 1.0
        self.pairs = np.zeros((2 * size, n_params))
        self.rinv = np.zeros((size, size))
        self.diag = np.zeros(size)
        self.yy = np.zeros((size, size))
        self.proj = np.zeros(2 * size)
        self.order = np.arange(0)
        # the direction's coefficients over ``pairs`` (zero outside ``order``) and its buffer
        self.coef = np.zeros(2 * size)
        self.out = np.empty(n_params)

    def update(self, s: np.ndarray, y: np.ndarray, g: np.ndarray) -> None:
        """Keep the pair ``(s, y)`` of the step that reached gradient ``g``, unless
        ``s . y <= CURVATURE_EPS * y . y``, and project ``g``."""
        m = self.size
        sy, yy = float(s @ y), float(y @ y)
        if not sy > CURVATURE_EPS * yy:
            self.proj = self.pairs @ g
            return
        old = self.order
        if len(old) == m:  # the oldest pair leaves
            self.rinv[:-1, :-1] = self.rinv[1:, 1:]
            self.diag[:-1] = self.diag[1:]
            self.yy[:-1, :-1] = self.yy[1:, 1:]
            old = old[1:]
        slot, k = self.count % m, len(old)
        # written over the leaving pair's slot, or a free one, before the pass
        self.pairs[slot], self.pairs[m + slot] = s, y
        proj = self.pairs @ g
        self.rinv[:k, k] = self.rinv[:k, :k] @ (proj[old] - self.proj[old])
        self.rinv[:k, k] /= -sy
        self.rinv[k, k], self.diag[k] = 1.0 / sy, sy
        self.yy[:k, k] = self.yy[k, :k] = proj[m + old] - self.proj[m + old]
        self.yy[k, k] = yy
        self.proj, self.count, self.gamma = proj, self.count + 1, sy / yy
        self.order = np.arange(self.count - k - 1, self.count) % m

    def direction(self, g: np.ndarray) -> np.ndarray:
        """``-H g`` at the gradient ``g`` last passed to :meth:`update`, for the
        compact inverse-Hessian estimate ``H`` (Byrd, Nocedal & Schnabel 1994,
        eq. 3.1) with ``H0 = gamma I``, ``gamma = s.y / y.y`` of the newest pair:
        ``H g = gamma g + S p - gamma Y u`` with ``u = R^-1 S'g`` and
        ``p = R^-T (D u + gamma (Y'Y u - Y'g))``, ``D`` the diagonal of ``R``.
        With no pair kept it is ``-g``, at any ``g``.  The result is a buffer
        of the memory's, overwritten by the next call."""
        order, m, gamma = self.order, self.size, self.gamma
        k = len(order)
        if k == 0:
            return np.negative(g, out=self.out)
        rinv = self.rinv[:k, :k]
        u = rinv @ self.proj[order]
        p = rinv.T @ (self.diag[:k] * u + gamma * (self.yy[:k, :k] @ u - self.proj[m + order]))
        # the negation of -H g is in the coefficients
        self.coef[order], self.coef[m + order] = -p, gamma * u
        direction = np.matmul(self.coef, self.pairs, out=self.out)
        direction -= gamma * g
        return direction


def _train_lbfgs(model: BFAEModel, x: np.ndarray) -> TrainHistory:
    """L-BFGS over ``model.params``.

    Each evaluation writes a trial point into ``model.params`` and takes the
    loss and gradient from a primal :func:`_gradient_pass` without ``lr``.
    Iteration ``k`` records ``losses[k]``, the loss at its start, and steps
    along :meth:`_LBFGSMemory.direction` by Armijo backtracking, from ``lr``
    while no pair is kept (the first iteration) and from 1 after that.  A
    trial whose loss is not finite fails like one that does not fall enough;
    training stops early once no trial step lowers the loss, or once the
    direction does not descend, which the runs seen met only at a zero
    gradient.  The last accepted point is written back into ``model.params``
    however training ends.  A first loss that is not finite raises
    :class:`TrainingDiverged`.
    """
    iterations = model.config.epochs
    losses = np.empty(iterations)
    if iterations == 0:
        return TrainHistory(losses=losses, evaluations=0)
    params = model.params
    point = params.copy()
    # the data and its quadrature weights are fixed: weigh them once per fit
    weighted = weigh_input(model.layers[0], x)
    try:
        loss, workspace = _gradient_pass(model, x, weighted)
        evaluations, trial_grad = 1, workspace[1]
        if not math.isfinite(loss):
            raise TrainingDiverged(f"initial loss {loss:.6g} is not finite; the data or "
                                   f"the start overflow the loss")
        grad, s, y = trial_grad.copy(), np.empty_like(point), np.empty_like(point)
        memory = _LBFGSMemory(len(point))
        with np.errstate(over="ignore", invalid="ignore"):  # a failed trial may overflow
            for it in range(iterations):
                losses[it] = loss
                direction = memory.direction(grad)
                slope = float(grad @ direction)
                if not slope < 0:  # seen only at a zero gradient
                    break
                step = model.config.lr if memory.count == 0 else 1.0
                for _ in range(LINE_SEARCH_TRIALS):
                    # point + step * direction, written into the layers
                    np.multiply(direction, step, out=params)
                    params += point
                    trial_loss = _gradient_pass(model, x, weighted, workspace)[0]
                    evaluations += 1
                    if trial_loss < loss and trial_loss <= loss + ARMIJO_C1 * step * slope:
                        break
                    step *= 0.5
                else:  # no trial lowered the loss
                    break
                memory.update(np.subtract(params, point, out=s),
                              np.subtract(trial_grad, grad, out=y), trial_grad)
                point[...] = params
                grad[...] = trial_grad
                loss = trial_loss
                model.trained_epochs += 1
        return TrainHistory(losses=losses[: it + 1], evaluations=evaluations)
    finally:
        params[...] = point


# --- serialization -------------------------------------------------------------

# the top-level keys of a format-1 model file, in the order save_model writes them
_FILE_KEYS = ("format_version", "config", "trained_epochs", "layer_shapes", "dtype", "payload_b64")
# the top-level values a format-1 file must hold before their contents are read
_FILE_TYPES = (("config", dict, "object"), ("layer_shapes", list, "array"),
               ("payload_b64", str, "string"))


def save_model(model: BFAEModel, path) -> Path:
    """Write a model as JSON: config + shapes header + base64 row-major payload.

    The config block is ``BFAEConfig``'s fields in declaration order, then
    ``batch_size``, which format 1 keeps as null: training is full batch.
    ``optimizer`` is left out when it is ``"gd"``, so a descent-trained
    model's file is as format 1 first wrote it.
    """
    path = Path(path)
    chunks = []
    shapes = []
    for lay in model.layers:
        shapes.append({"weights": list(lay.weights.shape), "biases": list(lay.biases.shape)})
        chunks.append(lay.weights.ravel())
        chunks.append(lay.biases.ravel())
    payload = np.concatenate(chunks).astype("<f8").tobytes()
    config = asdict(model.config)
    if config["optimizer"] == "gd":
        del config["optimizer"]
    doc = {
        "format_version": 1,
        "config": {**config, "batch_size": None},
        "trained_epochs": model.trained_epochs,
        "layer_shapes": shapes,
        "dtype": "float64",
        "payload_b64": base64.b64encode(payload).decode("ascii"),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8", newline="\n")
    return path


def load_model(path) -> BFAEModel:
    """Inverse of :func:`save_model`; reconstruction is bitwise identical.

    A format-1 file holds exactly the keys :func:`save_model` writes, with
    ``dtype`` ``"float64"`` and ``trained_epochs`` a whole number ``>= 0``; a
    config block without ``optimizer`` is read as ``"gd"``.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file holds a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported model file version: {doc.get('format_version')}")
    missing = [key for key in _FILE_KEYS if key not in doc]
    unknown = sorted(set(doc) - set(_FILE_KEYS))
    if missing or unknown:
        raise ValueError(f"{path}: model file keys missing {missing}, unknown {unknown}")
    if doc["dtype"] != "float64":
        raise ValueError(f"{path}: dtype must be 'float64', got {doc['dtype']!r}")
    epochs = doc["trained_epochs"]
    if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs < 0:
        raise ValueError(f"{path}: trained_epochs must be a whole number >= 0, got {epochs!r}")
    for key, kind, name in _FILE_TYPES:
        if not isinstance(doc[key], kind):
            raise ValueError(f"{path}: {key} must be a JSON {name}, got {type(doc[key]).__name__}")
    block = doc["config"]
    names = [f.name for f in fields(BFAEConfig)] + ["batch_size"]
    if set(block) | {"optimizer"} != set(names):
        raise ValueError(f"{path}: model file config keys {sorted(block)} differ from {names} "
                         f"(optimizer may be left out)")
    if block.pop("batch_size") is not None:
        raise ValueError(f"{path}: model file batch_size must be null: training is full batch")
    try:
        config = BFAEConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: config: {exc}") from exc
    shapes = doc["layer_shapes"]
    if len(shapes) != config.n_layers:
        raise ValueError(f"{path}: model file has {len(shapes)} layer shapes "
                         f"for {config.n_layers} layers")
    feats, points = config.feature_counts, config.grid_sizes
    for ell, shp in enumerate(shapes):
        # weights (J_{l+1}, J_l, M_{l+1}, M_l) and biases (J_{l+1}, M_{l+1})
        want = {"weights": [feats[ell + 1], feats[ell], points[ell + 1], points[ell]],
                "biases": [feats[ell + 1], points[ell + 1]]}
        if shp != want:
            raise ValueError(f"{path}: layer {ell} shapes {shp} do not match its config's {want}")
    try:
        payload = base64.b64decode(doc["payload_b64"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{path}: payload is not base64 ({exc})") from None
    sizes = [math.prod(shp[key]) for shp in shapes for key in ("weights", "biases")]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"{path}: payload size does not match shapes header "
                         f"({len(payload)} bytes for {sum(sizes)} float64 values)")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    del payload  # freed before the layers copy their parts: lower peak memory
    layers = []
    offset = 0
    for shp, (in_grid, out_grid, activation) in zip(shapes, _layer_frames(config)):
        params = []
        for shape in (shp["weights"], shp["biases"]):
            size = int(np.prod(shape))
            params.append(flat[offset : offset + size].reshape(shape))
            offset += size
        try:
            layers.append(ContinuousLayer(in_grid, out_grid, *params, activation))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: layer {len(layers)}: {exc}") from exc
    del flat, params  # freed before the model vector is made
    return BFAEModel(layers=layers, config=config, trained_epochs=epochs)
