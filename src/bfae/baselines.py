"""Comparison methods: PCA, functional PCA, and a dense autoencoder.

PCA and the dense AE treat a multivariate functional sample as one flat
``R*M`` vector; the dense AE is the BFAE whose every boundary is a one-point
grid, so its layers weigh nothing.  FPCA works per feature under the
quadrature inner product, with a shared explained-variance budget across
features: eigenvalues are pooled over features and components retained
greedily until the variance target is met.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import BFAEConfig, BFAEModel, build, train

__all__ = [
    "PCAModel",
    "pca_fit",
    "pca_encode",
    "pca_reconstruct",
    "FPCAModel",
    "fpca_fit",
    "fpca_encode",
    "fpca_reconstruct",
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


def ae_widths_from_config(config: BFAEConfig) -> list:
    """Mirror a BFAE architecture: width ``J_l * M_l`` at every boundary."""
    return [j * m for j, m in zip(config.feature_counts, config.grid_sizes)]


def ae_fit(
    data: np.ndarray,
    widths,
    activations=None,
    lr: float = 0.05,
    epochs: int = 2000,
    seed: int = 0,
) -> tuple:
    """Train a dense autoencoder on ``(n, d)`` rows by full-batch gradient
    descent; returns ``(model, history)``.

    The dense AE is the BFAE whose every boundary is a one-point grid: a
    layer from ``widths[l]`` to ``widths[l + 1]`` values maps that many
    features, each one sample with quadrature weight 1, so nothing is
    weighed.  ``widths`` and ``activations`` (one per layer, the last
    linear) are the model's ``feature_counts`` and ``activations``, and its
    latent is the config's default layer ``ceil(L / 2)``.  The model starts
    as :func:`build` starts it: layer ``l``'s weights from ``seed + l`` by the
    ``"uniform"`` scheme, which on these unit one-point grids is
    Glorot-uniform, and zero biases.  So ``build(model.config)`` redraws
    this start.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be (n, d)")
    widths = tuple(widths)
    config = BFAEConfig(feature_counts=widths, grid_sizes=(1,) * len(widths),
                        activations=activations, lr=lr, epochs=epochs, seed=seed)
    if widths[0] != data.shape[1]:
        raise ValueError("first and last widths must equal the data dimension")
    model = build(config)
    return model, train(model, data[:, :, None])


def ae_reconstruct(model: BFAEModel, data: np.ndarray) -> np.ndarray:
    return model.reconstruct(np.asarray(data, dtype=np.float64)[:, :, None])[:, :, 0]
