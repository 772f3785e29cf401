"""Functional RMSE and the downstream models run on reduced data.

Two task heads are provided: a ridge-penalized functional logistic
classifier for labeled single-feature curves, and a function-on-function
ridge regression mapping one set of curves to another.  Both fit on raw
grids; the ridge strength can be picked by a fixed grid search on a
validation fifth of the training split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import baselines
from .data import FunctionalDataset, Standardizer
from .grids import Grid
from .layers import Activation, ContinuousLayer, _sigmoid, _surfaces, layer_forward
from .model import BFAEConfig, bottleneck_config, build, train

__all__ = [
    "functional_rmse",
    "FLMClassifier",
    "flm_classify_fit",
    "flm_classify_predict",
    "classification_error",
    "FoFRegression",
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
    """Root mean (over samples) of summed integrated squared feature errors."""
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    if truth.shape[-1] != len(grid):
        raise ValueError("last axis must match grid length")
    d = truth - estimate
    per_sample = ((d * d) @ grid.quad_weights)
    if per_sample.ndim > 1:
        per_sample = per_sample.sum(axis=tuple(range(1, per_sample.ndim)))
    return float(np.sqrt(per_sample.mean()))


# --- functional logistic classifier ----------------------------------------------


@dataclass
class FLMClassifier:
    """Logistic model on the quadrature inner product with a coefficient curve."""

    grid: Grid
    alpha: float
    beta: np.ndarray           # (m,)
    classes: tuple             # (label for p < 0.5, label for p >= 0.5)
    ridge: float
    objective_path: np.ndarray


def _as_curve_matrix(curves: np.ndarray) -> np.ndarray:
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim == 3:
        if curves.shape[1] != 1:
            raise ValueError("classifier expects single-feature curves")
        curves = curves[:, 0, :]
    if curves.ndim != 2:
        raise ValueError("curves must be (n, m) or (n, 1, m)")
    return curves


def flm_classify_fit(
    curves: np.ndarray,
    labels,
    grid: Grid,
    ridge: float = 1e-3,
    max_iter: int = 500,
    step: float = 4.0,
    tol: float = 1e-10,
) -> FLMClassifier:
    """Maximize the ridge-penalized mean log-likelihood by gradient ascent.

    Each iteration takes a gradient step with a backtracking line search:
    the step doubles after a success and halves while a step would decrease
    the objective, so the objective path is nondecreasing.  Deterministic:
    parameters start at zero.
    """
    x = _as_curve_matrix(curves)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    y = (labels == classes[1]).astype(np.float64)
    n, m = x.shape
    if m != len(grid):
        raise ValueError("curve length must match grid")
    design = x * grid.quad_weights  # row i dotted with beta = <x_i, beta>
    qw = grid.quad_weights

    def objective(alpha, beta):
        z = alpha + design @ beta
        # mean log-likelihood, numerically safe via logaddexp
        ll = -(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).mean()
        return ll - 0.5 * ridge * float(qw @ (beta * beta))

    alpha, beta = 0.0, np.zeros(m)
    current = objective(alpha, beta)
    path = [current]
    for _ in range(max_iter):
        p = _sigmoid(alpha + design @ beta)
        resid = y - p
        g_alpha = resid.mean()
        g_beta = design.T @ resid / n - ridge * qw * beta
        while step > 1e-12:
            cand_a = alpha + step * g_alpha
            cand_b = beta + step * g_beta
            cand_obj = objective(cand_a, cand_b)
            if cand_obj >= current:
                alpha, beta, current = cand_a, cand_b, cand_obj
                step *= 2.0
                break
            step /= 2.0
        path.append(current)
        if path[-1] - path[-2] < tol:
            break
    return FLMClassifier(
        grid=grid, alpha=float(alpha), beta=beta,
        classes=tuple(classes), ridge=ridge,
        objective_path=np.asarray(path),
    )


def flm_classify_predict(model: FLMClassifier, curves: np.ndarray):
    """Returns ``(labels, probabilities)``; label is class 1 when p >= 0.5."""
    x = _as_curve_matrix(curves)
    if x.shape[1] != len(model.grid):
        raise ValueError("curve length must match model grid")
    p = _sigmoid(model.alpha + (x * model.grid.quad_weights) @ model.beta)
    labels = np.where(p >= 0.5, model.classes[1], model.classes[0])
    return labels, p


def classification_error(model: FLMClassifier, curves, labels) -> float:
    predicted, _ = flm_classify_predict(model, curves)
    return float(np.mean(predicted != np.asarray(labels)))


# --- function-on-function regression ----------------------------------------------


@dataclass
class FoFRegression:
    """Affine map from input curves to output curves via coefficient surfaces."""

    in_grid: Grid
    out_grid: Grid
    intercepts: np.ndarray     # (r_out, m_out)
    surfaces: np.ndarray       # (r_out, r_in, m_out, m_in)
    ridge: float


def fof_fit(
    inputs: np.ndarray,
    outputs: np.ndarray,
    in_grid: Grid,
    out_grid: Grid,
    ridge: float = 1e-3,
) -> FoFRegression:
    """Regularized least squares for all output grid points at once.

    The design for sample ``i`` is the flattened ``quad_weights * inputs``
    vector, so the solved coefficients are the surface values directly; the
    ridge penalty acts on those values, not the intercept.
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
    design = (inputs * in_grid.quad_weights).reshape(n, r_in * m_in)
    target = outputs.reshape(n, r_out * m_out)
    x_mean = design.mean(axis=0)
    y_mean = target.mean(axis=0)
    xc = design - x_mean
    yc = target - y_mean
    gram = xc.T @ xc / n + ridge * np.eye(r_in * m_in)
    coef = np.linalg.solve(gram, xc.T @ yc / n)  # (r_in*m_in, r_out*m_out)
    intercept = y_mean - x_mean @ coef
    return FoFRegression(
        in_grid=in_grid,
        out_grid=out_grid,
        intercepts=intercept.reshape(r_out, m_out),
        surfaces=_surfaces(coef.T, r_out, r_in),
        ridge=ridge,
    )


def fof_predict(model: FoFRegression, inputs: np.ndarray) -> np.ndarray:
    """The regression is one linear continuous layer with the fitted surfaces."""
    layer = ContinuousLayer(
        model.in_grid, model.out_grid, model.surfaces, model.intercepts, Activation("linear")
    )
    return layer_forward(layer, inputs)[0]


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
    if task not in ("classify", "regress"):
        raise ValueError("task must be 'classify' or 'regress'")
    train_ds, test_ds = data.train_inputs, data.test_inputs
    grid = train_ds.grid

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

    rows = [
        {"split": "train", "metric": "reconstruction_rmse",
         "value": functional_rmse(train_ds.values, train_rec, grid)},
        {"split": "test", "metric": "reconstruction_rmse",
         "value": functional_rmse(test_ds.values, test_rec, grid)},
    ]

    if task == "classify":
        labels_train = train_ds.labels
        labels_test = test_ds.labels
        if labels_train is None or labels_test is None:
            raise ValueError("classification task needs labeled datasets")
        ridge = config.ridge
        if ridge is None:
            def score(tr_idx, va_idx, rg):
                m = flm_classify_fit(train_rec[tr_idx], labels_train[tr_idx], grid, ridge=rg)
                return classification_error(m, train_rec[va_idx], labels_train[va_idx])
            ridge = select_ridge(score, train_rec.shape[0], seed=config.seed)
        model = flm_classify_fit(train_rec, labels_train, grid, ridge=ridge)
        rows.append({"split": "train", "metric": "classification_error",
                     "value": classification_error(model, train_rec, labels_train)})
        rows.append({"split": "test", "metric": "classification_error",
                     "value": classification_error(model, test_rec, labels_test)})
    else:
        if data.train_outputs is None or data.test_outputs is None:
            raise ValueError("regression task needs paired output datasets")
        y_train = data.train_outputs.values
        y_test = data.test_outputs.values
        out_grid = data.train_outputs.grid
        ridge = config.ridge
        if ridge is None:
            def score(tr_idx, va_idx, rg):
                m = fof_fit(train_rec[tr_idx], y_train[tr_idx], grid, out_grid, ridge=rg)
                return functional_rmse(y_train[va_idx], fof_predict(m, train_rec[va_idx]), out_grid)
            ridge = select_ridge(score, train_rec.shape[0], seed=config.seed)
        model = fof_fit(train_rec, y_train, grid, out_grid, ridge=ridge)
        rows.append({"split": "train", "metric": "regression_rmse",
                     "value": functional_rmse(y_train, fof_predict(model, train_rec), out_grid)})
        rows.append({"split": "test", "metric": "regression_rmse",
                     "value": functional_rmse(y_test, fof_predict(model, test_rec), out_grid)})
    return rows
