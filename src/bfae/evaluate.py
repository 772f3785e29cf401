"""Functional RMSE and the downstream models run on reduced data.

Two task heads are provided: a ridge-penalized functional logistic
classifier for labeled single-feature curves, and a function-on-function
ridge regression mapping one set of curves to another.  Both are continuous
layers fitted exactly on raw grids (a sigmoid layer to one value, a linear
layer to the output curves); the ridge strength can be picked by a fixed
grid search on a validation fifth of the training split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import baselines
from .data import FunctionalDataset, Standardizer
from .grids import Grid
from .layers import ContinuousLayer, _sigmoid, init_layer, layer_forward, weigh_input
from .model import BFAEConfig, build, reconstruction_loss, train

__all__ = [
    "functional_rmse",
    "FLMClassifier",
    "flm_classify_fit",
    "flm_classify_predict",
    "classification_error",
    "fof_fit",
    "fof_predict",
    "select_ridge",
    "RIDGE_GRID",
    "REDUCERS",
    "fit_reducer",
    "PipelineData",
    "PipelineConfig",
    "evaluate_pipeline",
]

RIDGE_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def functional_rmse(truth: np.ndarray, estimate: np.ndarray, grid: Grid) -> float:
    """Root mean (over samples) of summed integrated squared feature errors
    of ``(n, r, m)`` curves: the square root of :func:`reconstruction_loss`."""
    return float(np.sqrt(reconstruction_loss(truth, estimate, grid)))


# --- functional logistic classifier ----------------------------------------------


@dataclass
class FLMClassifier:
    """Logistic model on the quadrature inner product with a coefficient curve.

    ``layer`` is a sigmoid layer from one curve to one value: the curve in
    ``matrix`` and the intercept in ``bias``.
    """

    layer: ContinuousLayer
    classes: tuple             # (label for p < 0.5, label for p >= 0.5)
    ridge: float
    objective_path: np.ndarray


# the classifier's output: one value, its point and weight arbitrary
_ONE_VALUE = Grid(points=np.array([0.0]), quad_weights=np.array([1.0]))


def _as_curves(curves: np.ndarray) -> np.ndarray:
    """Single-feature curves ``(n, m)`` or ``(n, 1, m)`` as ``(n, 1, m)``."""
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim == 3 and curves.shape[1] != 1:
        raise ValueError("classifier expects single-feature curves")
    if curves.ndim not in (2, 3):
        raise ValueError("curves must be (n, m) or (n, 1, m)")
    return curves.reshape(curves.shape[0], 1, curves.shape[-1])


def flm_classify_fit(
    curves: np.ndarray,
    labels,
    grid: Grid,
    ridge: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> FLMClassifier:
    """Maximize the ridge-penalized mean log-likelihood by Newton's method.

    The objective is strictly concave in ``(alpha, beta)``, so Newton steps
    on the design ``[1, weigh_input(layer, x)]`` reach its maximum in a handful of
    iterations.  A step is halved while it would decrease the objective, so
    the objective path is nondecreasing.  The fit stops once no gradient
    entry exceeds ``tol`` in size, or when no step along the Newton
    direction raises the objective any more (the gain has fallen below its
    rounding); ``max_iter`` only caps the steps.
    Deterministic: parameters start at zero.
    """
    x = _as_curves(curves)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    y = (labels == classes[1]).astype(np.float64)
    n, _, m = x.shape
    if m != len(grid):
        raise ValueError("curve length must match grid")
    layer = init_layer(grid, _ONE_VALUE, 1, 1, "sigmoid", scheme="zeros")
    # row i dotted with theta = (alpha, beta) is alpha + <x_i, beta>
    design = np.column_stack((np.ones(n), weigh_input(layer, x)))
    penalty = np.concatenate(([0.0], ridge * grid.quad_weights))  # the intercept is free

    def objective(theta):
        z = design @ theta
        # mean log-likelihood, numerically safe via logaddexp
        ll = -(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).mean()
        return ll - 0.5 * float(penalty @ (theta * theta))

    theta = np.zeros(m + 1)
    current = objective(theta)
    path = [current]
    for _ in range(max_iter):
        p = _sigmoid(design @ theta)
        gradient = design.T @ (y - p) / n - penalty * theta
        if np.max(np.abs(gradient)) <= tol:
            break
        hessian = (design.T * (p * (1.0 - p))) @ design / n + np.diag(penalty)
        direction = np.linalg.solve(hessian, gradient)
        step, candidate = 1.0, objective(theta + direction)
        while candidate < current and step > 1e-12:
            step /= 2.0
            candidate = objective(theta + step * direction)
        if not candidate > current:  # below the objective's rounding: nothing left to gain
            break
        theta += step * direction
        current = candidate
        path.append(current)
    layer.bias[0] = theta[0]
    layer.matrix[0] = theta[1:]
    return FLMClassifier(
        layer=layer, classes=tuple(classes), ridge=ridge, objective_path=np.asarray(path),
    )


def flm_classify_predict(model: FLMClassifier, curves: np.ndarray):
    """Returns ``(labels, probabilities)``; label is class 1 when p >= 0.5."""
    p = layer_forward(model.layer, _as_curves(curves))[0].reshape(-1)
    labels = np.where(p >= 0.5, model.classes[1], model.classes[0])
    return labels, p


def classification_error(model: FLMClassifier, curves, labels) -> float:
    predicted, _ = flm_classify_predict(model, curves)
    return float(np.mean(predicted != np.asarray(labels)))


# --- function-on-function regression ----------------------------------------------


def fof_fit(
    inputs: np.ndarray,
    outputs: np.ndarray,
    in_grid: Grid,
    out_grid: Grid,
    ridge: float = 1e-3,
) -> ContinuousLayer:
    """Regularized least squares for all output grid points at once.

    The regression is one linear continuous layer.  The design for sample
    ``i`` is its weighted input ``weigh_input(layer, inputs)[i]``, so the
    solved coefficients are the surface values directly; the ridge penalty
    acts on those values, not the intercept.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    if inputs.ndim != 3 or outputs.ndim != 3 or inputs.shape[0] != outputs.shape[0]:
        raise ValueError("inputs and outputs must be (n, r, m) with equal n")
    if inputs.shape[0] < 2:
        raise ValueError("need more than one sample")
    if ridge <= 0:
        raise ValueError("ridge must be > 0 (the normal equations are singular otherwise)")
    n, r_in, m_in = inputs.shape
    _, r_out, m_out = outputs.shape
    if m_in != len(in_grid) or m_out != len(out_grid):
        raise ValueError("curve lengths must match the grids")
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
        raise ValueError("non-finite inputs or outputs")
    layer = init_layer(in_grid, out_grid, r_in, r_out, "linear", scheme="zeros")
    design = weigh_input(layer, inputs)
    target = outputs.reshape(n, r_out * m_out)
    x_mean = design.mean(axis=0)
    y_mean = target.mean(axis=0)
    xc = design - x_mean
    yc = target - y_mean
    gram = xc.T @ xc / n + ridge * np.eye(r_in * m_in)
    coef = np.linalg.solve(gram, xc.T @ yc / n)  # (r_in*m_in, r_out*m_out)
    layer.matrix[...] = coef.T
    layer.bias[...] = y_mean - x_mean @ coef
    return layer


def fof_predict(model: ContinuousLayer, inputs: np.ndarray) -> np.ndarray:
    """The fitted layer applied to ``(n, r_in, m_in)`` input curves."""
    return layer_forward(model, inputs)[0]


# --- ridge selection ---------------------------------------------------------------


def select_ridge(
    fit_and_score,
    n_train: int,
    seed: int = 0,
    grid=RIDGE_GRID,
) -> float:
    """Pick the ridge with the best score on a validation fifth of the train split.

    ``fit_and_score(train_idx, val_idx, ridge)`` must return a score where
    smaller is better.  Ties go to the larger ridge.
    """
    order = np.random.default_rng(seed).permutation(n_train)
    n_val = max(1, n_train // 5)
    val_idx, train_idx = order[:n_val], order[n_val:]
    best = None
    for ridge in grid:
        score = fit_and_score(train_idx, val_idx, ridge)
        if best is None or score <= best[0]:
            best = (score, ridge)
    return best[1]


# --- reducers and the end-to-end pipeline -------------------------------------------

REDUCERS = ("none", "bfae", "pca", "fpca", "ae")


def fit_reducer(
    name: str,
    train_values: np.ndarray,
    grid: Grid,
    bfae_config: Optional[BFAEConfig] = None,
    variance_target: float = 0.99,
    ae_lr: float = 0.05,
    ae_epochs: int = 2000,
    seed: int = 0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Fit a dimension reducer on training curves ``(n, r, m)``.

    Returns a function mapping curves to their reduced-then-reconstructed
    version.  ``"none"`` is the identity.
    """
    if name == "none":
        return lambda values: np.asarray(values, dtype=np.float64)
    if name == "pca":
        flat = train_values.reshape(train_values.shape[0], -1)
        pca = baselines.pca_fit(flat, variance_target)
        def reconstruct(values, _pca=pca):
            flat_in = values.reshape(values.shape[0], -1)
            out = baselines.pca_reconstruct(_pca, baselines.pca_encode(_pca, flat_in))
            return out.reshape(values.shape)
        return reconstruct
    if name == "fpca":
        fp = baselines.fpca_fit(train_values, grid, variance_target)
        return lambda values, _fp=fp: baselines.fpca_reconstruct(
            _fp, baselines.fpca_encode(_fp, values)
        )
    if name == "ae":
        if bfae_config is None:
            raise ValueError("reducer 'ae' mirrors a BFAE architecture; pass bfae_config")
        flat = train_values.reshape(train_values.shape[0], -1)
        widths = baselines.ae_widths_from_config(bfae_config)
        ae, _ = baselines.ae_fit(
            flat, widths, activations=list(bfae_config.activations),
            lr=ae_lr, epochs=ae_epochs, seed=seed,
        )
        def reconstruct_ae(values, _ae=ae):
            flat_in = values.reshape(values.shape[0], -1)
            return baselines.ae_reconstruct(_ae, flat_in).reshape(values.shape)
        return reconstruct_ae
    if name == "bfae":
        if bfae_config is None:
            raise ValueError("pass bfae_config for reducer 'bfae'")
        model = build(bfae_config)
        train(model, train_values)
        return lambda values, _m=model: _m.reconstruct(values)
    raise ValueError(f"unknown reducer {name!r}; choose from {REDUCERS}")


@dataclass
class PipelineData:
    """Inputs for one pipeline cell; outputs only apply to the regression task."""

    train_inputs: FunctionalDataset
    test_inputs: FunctionalDataset
    train_outputs: Optional[FunctionalDataset] = None
    test_outputs: Optional[FunctionalDataset] = None


@dataclass
class PipelineConfig:
    bfae: Optional[BFAEConfig] = None
    ridge: Optional[float] = None      # None -> validation grid search
    standardize: bool = True
    variance_target: float = 0.99
    ae_lr: float = 0.05
    ae_epochs: int = 2000
    seed: int = 0


def evaluate_pipeline(reducer: str, task: str, data: PipelineData, config: PipelineConfig):
    """Reduce-reconstruct the inputs, fit the downstream model, report errors.

    Returns a list of row dicts with keys ``split``, ``metric``, ``value``:
    reconstruction RMSE per split plus the task's train/test errors
    (classification error or regression RMSE), all on the original scale.
    """
    train_ds, test_ds = data.train_inputs, data.test_inputs
    grid = train_ds.grid
    # heads are looked up when called, so wrappers set on this module see each fit
    if task == "classify":
        if train_ds.labels is None or test_ds.labels is None:
            raise ValueError("classification task needs labeled datasets")
        metric, (y_train, y_test), fit, error = (
            "classification_error", (train_ds.labels, test_ds.labels),
            lambda x, y, rg: flm_classify_fit(x, y, grid, ridge=rg),
            classification_error,
        )
    elif task == "regress":
        if data.train_outputs is None or data.test_outputs is None:
            raise ValueError("regression task needs paired output datasets")
        out_grid = data.train_outputs.grid
        metric, (y_train, y_test), fit, error = (
            "regression_rmse", (data.train_outputs.values, data.test_outputs.values),
            lambda x, y, rg: fof_fit(x, y, grid, out_grid, ridge=rg),
            lambda model, x, y: functional_rmse(y, fof_predict(model, x), out_grid),
        )
    else:
        raise ValueError("task must be 'classify' or 'regress'")

    std = Standardizer().fit(train_ds) if config.standardize else None
    train_in = std.apply(train_ds).values if std else train_ds.values
    test_in = std.apply(test_ds).values if std else test_ds.values

    reconstruct = fit_reducer(
        reducer, train_in, grid,
        bfae_config=config.bfae,
        variance_target=config.variance_target,
        ae_lr=config.ae_lr, ae_epochs=config.ae_epochs, seed=config.seed,
    )
    train_rec = reconstruct(train_in)
    test_rec = reconstruct(test_in)
    if std is not None:
        train_rec = std.invert_values(train_rec)
        test_rec = std.invert_values(test_rec)

    ridge = config.ridge
    if ridge is None:
        def score(tr_idx, va_idx, rg):
            model = fit(train_rec[tr_idx], y_train[tr_idx], rg)
            return error(model, train_rec[va_idx], y_train[va_idx])
        ridge = select_ridge(score, train_rec.shape[0], seed=config.seed)
    model = fit(train_rec, y_train, ridge)
    return [
        {"split": "train", "metric": "reconstruction_rmse",
         "value": functional_rmse(train_ds.values, train_rec, grid)},
        {"split": "test", "metric": "reconstruction_rmse",
         "value": functional_rmse(test_ds.values, test_rec, grid)},
        {"split": "train", "metric": metric, "value": error(model, train_rec, y_train)},
        {"split": "test", "metric": metric, "value": error(model, test_rec, y_test)},
    ]
