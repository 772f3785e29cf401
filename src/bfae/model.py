"""Bi-functional autoencoder: encoder/decoder stacks of continuous layers.

The latent code of sample ``i`` is the output of layer ``latent_index``:
``feature_counts[latent_index]`` functions observed on a grid of
``grid_sizes[latent_index]`` timepoints.  Training minimizes the quadrature
approximation of the mean integrated squared reconstruction error by
full-batch gradient descent on the exact discretized gradients.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import Grid, make_uniform_grid
from .layers import (
    Activation,
    ContinuousLayer,
    LayerCache,
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


class TrainingDiverged(RuntimeError):
    """Raised when the loss is non-finite or exceeds ``DIVERGENCE_FACTOR`` times the first."""


def check_lr(lr: float) -> None:
    """Raise ``ValueError`` unless ``lr`` is finite and ``>= 0``."""
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr!r}")


@dataclass(frozen=True)
class BFAEConfig:
    """Architecture and optimization settings.

    ``feature_counts`` and ``grid_sizes`` have one entry per layer boundary
    (``L + 1`` entries for ``L`` layers); the first and last entries must
    match the data shape.  ``latent_index`` picks the layer whose output is
    the latent code and defaults to ``ceil(L / 2)``.
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
    batch_size: Optional[int] = None

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
        acts = tuple(a.kind if isinstance(a, Activation) else str(a) for a in acts)
        if len(acts) != n_layers:
            raise ValueError(f"need {n_layers} activations, got {len(acts)}")
        if acts[-1] != "linear":
            raise ValueError("output layer activation must be linear")
        a, b = self.interval
        if not b > a:
            raise ValueError("interval must satisfy b > a")
        check_lr(self.lr)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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
    """Per-epoch training loss."""

    losses: np.ndarray


@dataclass
class BFAEModel:
    """Encoder (layers ``1..latent_index``) plus decoder (the rest)."""

    layers: list
    latent_index: int
    config: BFAEConfig
    trained_epochs: int = 0

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
        # keeps no caches: a layer's buffers are freed once the next layer ran
        h = self._check_batch(x)
        for layer in layers:
            h = layer_forward(layer, h, LayerCache(layer, len(h)))[0]
        return h

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"batch must be (n, R, M), got shape {x.shape}")
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
    return BFAEModel(layers=layers, latent_index=config.latent_index, config=config)


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


def _gradient_pass(model: BFAEModel, x: np.ndarray, weighted: np.ndarray, workspaces: dict):
    """Forward, loss (as in :func:`reconstruction_loss`) and backward of a
    checked batch ``x``, whose first-layer ``weigh_input`` is ``weighted``,
    into caches made once per batch size in ``workspaces``; returns
    ``(loss, caches)``, the caches holding the gradients."""
    n = len(x)
    if n not in workspaces:
        qw = model.data_grid.quad_weights
        # the first layer is passed the data weighted once per fit
        caches = [LayerCache(layer, n, weigh=ell > 0) for ell, layer in enumerate(model.layers)]
        # residual, its squares, the weights and the loss gradient's scale
        workspaces[n] = caches, np.empty(x.shape), np.empty(x.shape), qw, (2.0 / n) * qw
    caches, residual, squares, qw, scale = workspaces[n]
    h = x
    for layer, cache in zip(model.layers, caches):
        h = layer_forward(layer, h, cache, weighted)[0]
        weighted = None
    np.subtract(h, x, out=residual)
    np.multiply(residual, residual, out=squares)
    loss = float((squares @ qw).sum(axis=1).sum() / n)  # the bits of ``.mean()``
    residual *= scale
    upstream = residual
    for ell in reversed(range(len(caches))):
        # the first layer's input is the data: its gradient would go unused
        upstream = layer_backward(model.layers[ell], caches[ell], upstream, input_grad=ell > 0)[2]
    return loss, caches


def model_gradients(model: BFAEModel, x: np.ndarray):
    """Exact gradients of :func:`reconstruction_loss` w.r.t. all parameters.

    Returns ``(loss, [(grad_w, grad_b), ...])`` ordered like ``model.layers``.
    """
    x = model._check_batch(x)
    loss, caches = _gradient_pass(model, x, weigh_input(model.layers[0], x), {})
    return loss, [(cache.grad_weights, cache.grad_biases) for cache in caches]


def train(model: BFAEModel, train_values: np.ndarray) -> TrainHistory:
    """Gradient-descent training using the model config's lr/epochs.

    Full batch by default; with ``config.batch_size`` set, fixed contiguous
    mini-batches are visited in order each epoch.  Raises
    :class:`TrainingDiverged` if the loss becomes non-finite or exceeds
    ``DIVERGENCE_FACTOR`` times the first epoch's loss.
    """
    cfg = model.config
    lr, momentum = cfg.lr, cfg.momentum
    x = model._check_batch(train_values)
    n = x.shape[0]
    # the data and its quadrature weights are fixed: weigh them once per fit
    weighted = weigh_input(model.layers[0], x)
    size = max(1, n if cfg.batch_size is None else min(cfg.batch_size, n))
    batches = [(x[s : s + size], weighted[s : s + size]) for s in range(0, n, size)]
    velocity = [np.zeros_like(lay.params) for lay in model.layers] if momentum > 0 else None
    workspaces = {}

    losses = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for xb, wb in batches:
            batch_loss, caches = _gradient_pass(model, xb, wb, workspaces)
            epoch_loss += batch_loss * xb.shape[0]
            for i, (layer, cache) in enumerate(zip(model.layers, caches)):
                grads = cache.grads
                if velocity is not None:
                    grads = velocity[i]
                    grads *= momentum
                    grads += cache.grads
                sgd_step(layer, grads, lr, cache)
        epoch_loss /= n
        losses[epoch] = epoch_loss
        if not (math.isfinite(epoch_loss) and epoch_loss <= DIVERGENCE_FACTOR * losses[0]):
            raise TrainingDiverged(
                f"loss {epoch_loss:.6g} at epoch {epoch} (initial loss {losses[0]:.6g}): "
                f"non-finite or above {DIVERGENCE_FACTOR:g} times the initial loss; reduce lr"
            )
        model.trained_epochs += 1
    return TrainHistory(losses=losses)


# --- serialization -------------------------------------------------------------


def save_model(model: BFAEModel, path) -> Path:
    """Write a model as JSON: config + shapes header + base64 row-major payload.

    The config block is ``BFAEConfig``'s fields in declaration order.
    """
    path = Path(path)
    chunks = []
    shapes = []
    for lay in model.layers:
        shapes.append({"weights": list(lay.weights.shape), "biases": list(lay.biases.shape)})
        chunks.append(lay.weights.ravel())
        chunks.append(lay.biases.ravel())
    payload = np.concatenate(chunks).astype("<f8").tobytes()
    doc = {
        "format_version": 1,
        "config": asdict(model.config),
        "trained_epochs": model.trained_epochs,
        "layer_shapes": shapes,
        "dtype": "float64",
        "payload_b64": base64.b64encode(payload).decode("ascii"),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8", newline="\n")
    return path


def load_model(path) -> BFAEModel:
    """Inverse of :func:`save_model`; reconstruction is bitwise identical."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported model file version: {doc.get('format_version')}")
    names = [f.name for f in fields(BFAEConfig)]
    if set(doc["config"]) != set(names):
        raise ValueError(f"model file config keys {sorted(doc['config'])} differ from {names}")
    config = BFAEConfig(**doc["config"])
    shapes = doc["layer_shapes"]
    if len(shapes) != config.n_layers:
        raise ValueError(f"model file has {len(shapes)} layer shapes for {config.n_layers} layers")
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
        layers.append(ContinuousLayer(in_grid, out_grid, *params, activation))
    return BFAEModel(
        layers=layers,
        latent_index=config.latent_index,
        config=config,
        trained_epochs=doc.get("trained_epochs", 0),
    )
