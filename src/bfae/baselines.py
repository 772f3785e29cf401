"""Comparison methods: PCA, functional PCA, and a dense autoencoder.

PCA and the dense AE treat a multivariate functional sample as one flat
``R*M`` vector; the dense AE is the BFAE's continuous-layer engine with unit
quadrature weights.  FPCA works per feature under the quadrature inner product,
with a shared explained-variance budget across features: eigenvalues are
pooled over features and components retained greedily until the variance
target is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grids import Grid
from .layers import Activation, ContinuousLayer
from .model import BFAEConfig, BFAEModel, check_lr, train

__all__ = [
    "PCAModel",
    "pca_fit",
    "pca_encode",
    "pca_reconstruct",
    "FPCAModel",
    "fpca_fit",
    "fpca_encode",
    "fpca_reconstruct",
    "AEModel",
    "ae_widths_from_config",
    "ae_fit",
    "ae_reconstruct",
]


# --- PCA ------------------------------------------------------------------------


@dataclass(frozen=True)
class PCAModel:
    """Principal components of flattened data; ``components`` has orthonormal columns."""

    mean: np.ndarray              # (d,)
    components: np.ndarray        # (d, k)
    explained_ratio: np.ndarray   # all ratios, nonincreasing
    retained: int


def pca_fit(data: np.ndarray, variance_target: float = 0.99) -> PCAModel:
    """Fit PCA on ``(n, d)`` rows, retaining the smallest component count
    whose cumulative explained-variance ratio reaches ``variance_target``,
    which must be in (0, 1]."""
    if not 0 < variance_target <= 1:
        raise ValueError(f"variance_target must be in (0, 1], got {variance_target!r}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D array with at least 2 samples")
    mean = data.mean(axis=0)
    centered = data - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    variances = svals**2
    total = variances.sum()
    if total <= 0:
        raise ValueError("degenerate data: zero variance")
    ratios = variances / total
    k = int(np.searchsorted(np.cumsum(ratios), variance_target - 1e-12) + 1)
    k = min(k, len(ratios))
    return PCAModel(
        mean=mean,
        components=vt[:k].T.copy(),
        explained_ratio=ratios,
        retained=k,
    )


def pca_encode(model: PCAModel, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != model.mean.shape[0]:
        raise ValueError("data dimension does not match model")
    return (data - model.mean) @ model.components


def pca_reconstruct(model: PCAModel, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1] != model.retained:
        raise ValueError("score dimension does not match retained components")
    return model.mean + scores @ model.components.T


# --- FPCA -----------------------------------------------------------------------


@dataclass(frozen=True)
class FPCAModel:
    """Per-feature eigenfunctions, orthonormal under the grid's quadrature."""

    grid: Grid
    means: np.ndarray          # (r, m)
    eigenfunctions: tuple      # per feature: (m, k_r)
    eigenvalues: tuple         # per feature: all eigenvalues, nonincreasing
    retained: tuple            # per feature k_r

    @property
    def total_retained(self) -> int:
        return int(sum(self.retained))


def fpca_fit(values: np.ndarray, grid: Grid, variance_target: float = 0.99) -> FPCAModel:
    """Fit per-feature FPCA on ``(n, r, m)`` curves.

    Eigenpairs come from ``W^{1/2} C W^{1/2}`` with ``W = diag(quad_weights)``
    and ``C`` the sample covariance matrix; eigenvectors are mapped back by
    ``W^{-1/2}``, which makes them orthonormal in the quadrature inner
    product.  Retention is greedy on the eigenvalues pooled across features
    until ``variance_target`` (in (0, 1]) of the summed variance is covered.
    """
    if not 0 < variance_target <= 1:
        raise ValueError(f"variance_target must be in (0, 1], got {variance_target!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or values.shape[0] < 2:
        raise ValueError("need (n, r, m) values with at least 2 samples")
    n, r, m = values.shape
    if m != len(grid):
        raise ValueError("last axis must match grid length")
    w_sqrt = np.sqrt(grid.quad_weights)
    means = values.mean(axis=0)
    all_eigvals = []
    all_eigfuns = []
    pooled = []
    for feat in range(r):
        centered = values[:, feat] - means[feat]
        cov = centered.T @ centered / (n - 1)
        weighted = w_sqrt[:, None] * cov * w_sqrt[None, :]
        lam, vecs = np.linalg.eigh(weighted)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        all_eigvals.append(lam)
        all_eigfuns.append(vecs / w_sqrt[:, None])
        pooled.extend((lam[k], feat, k) for k in range(m))
    total = sum(max(lam_val, 0.0) for lam_val, _, _ in pooled)
    if total <= 0:
        raise ValueError("degenerate data: zero variance in every feature")
    pooled.sort(key=lambda item: (-item[0], item[1], item[2]))
    retained = [0] * r
    cum = 0.0
    for lam_val, feat, k in pooled:
        retained[feat] = max(retained[feat], k + 1)
        cum += lam_val
        if cum >= variance_target * total - 1e-12 * total:
            break
    return FPCAModel(
        grid=grid,
        means=means,
        eigenfunctions=tuple(
            all_eigfuns[feat][:, : max(retained[feat], 0)].copy() for feat in range(r)
        ),
        eigenvalues=tuple(all_eigvals),
        retained=tuple(retained),
    )


def fpca_encode(model: FPCAModel, values: np.ndarray) -> np.ndarray:
    """Quadrature inner products with the retained eigenfunctions,
    concatenated across features into ``(n, total_retained)``."""
    values = np.asarray(values, dtype=np.float64)
    r = model.means.shape[0]
    if values.ndim != 3 or values.shape[1] != r or values.shape[2] != len(model.grid):
        raise ValueError("values shape does not match fitted model")
    qw = model.grid.quad_weights
    blocks = []
    for feat in range(r):
        centered = (values[:, feat] - model.means[feat]) * qw
        blocks.append(centered @ model.eigenfunctions[feat])
    return np.concatenate(blocks, axis=1)


def fpca_reconstruct(model: FPCAModel, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1] != model.total_retained:
        raise ValueError("score dimension does not match retained components")
    n = scores.shape[0]
    r, m = model.means.shape
    out = np.empty((n, r, m))
    offset = 0
    for feat in range(r):
        k = model.retained[feat]
        block = scores[:, offset : offset + k]
        out[:, feat] = model.means[feat] + block @ model.eigenfunctions[feat].T
        offset += k
    return out


# --- dense autoencoder ------------------------------------------------------------


@dataclass
class AEModel(BFAEModel):
    """Plain fully connected autoencoder on flattened ``R*M`` vectors.

    A dense layer is a continuous layer with one neuron on each side whose
    grids have every quadrature weight equal to 1 (the counting measure), so
    the AE runs on the BFAE's layer engine and training loop.  Its
    ``latent_index`` is the bottleneck: the output of the narrowest layer.
    """


def ae_widths_from_config(config: BFAEConfig) -> list:
    """Mirror a BFAE architecture: width ``J_l * M_l`` at every boundary."""
    return [j * m for j, m in zip(config.feature_counts, config.grid_sizes)]


def _unit_grid(width: int) -> Grid:
    # ``width`` points spread over [0, width], so unit weights sum to the span
    points = np.linspace(0.0, width, width) if width > 1 else np.array([0.5])
    return Grid(points=points, quad_weights=np.ones(width))


def ae_fit(
    data: np.ndarray,
    widths,
    activations=None,
    lr: float = 0.05,
    epochs: int = 2000,
    seed: int = 0,
) -> tuple:
    """Train by full-batch gradient descent; returns ``(model, history)``.

    ``widths`` lists at least 3 boundary widths (2 layers), and
    ``activations``, when given, one activation per layer.  Weights start
    Glorot-uniform, drawn layer by layer from one generator seeded with
    ``seed``; biases start at zero.
    """
    check_lr(lr)
    if not epochs >= 0:
        raise ValueError(f"epochs must be >= 0, got {epochs!r}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be (n, d)")
    widths = list(widths)
    if len(widths) < 3:
        raise ValueError(f"need at least 2 layers (3 widths), got widths {widths}")
    if widths[0] != data.shape[1] or widths[-1] != data.shape[1]:
        raise ValueError("first and last widths must equal the data dimension")
    if activations is None:
        activations = ["tanh"] * (len(widths) - 2) + ["linear"]
    if len(activations) != len(widths) - 1:
        raise ValueError(f"need {len(widths) - 1} activations, one per layer, "
                         f"got {len(activations)}")
    rng = np.random.default_rng(seed)
    grids = [_unit_grid(width) for width in widths]
    layers = []
    for ell in range(len(widths) - 1):
        fan_in, fan_out = widths[ell], widths[ell + 1]
        c = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            ContinuousLayer(
                in_grid=grids[ell],
                out_grid=grids[ell + 1],
                weights=rng.uniform(-c, c, size=(1, 1, fan_out, fan_in)),
                biases=np.zeros((1, fan_out)),
                activation=Activation(activations[ell]),
            )
        )
    # ``train`` reads only these optimization settings from ``model.config``
    settings = SimpleNamespace(lr=lr, epochs=epochs, momentum=0.0)
    model = AEModel(
        layers=layers, latent_index=int(np.argmin(widths[1:])) + 1, config=settings
    )
    return model, train(model, data[:, None, :])


def ae_reconstruct(model: AEModel, data: np.ndarray) -> np.ndarray:
    return model.reconstruct(np.asarray(data, dtype=np.float64)[:, None, :])[:, 0, :]
