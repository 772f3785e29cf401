import math

import numpy as np
import pytest

from bfae.data import FunctionalDataset
from bfae.evaluate import (
    RIDGE_GRID,
    PipelineConfig,
    PipelineData,
    classification_error,
    evaluate_pipeline,
    fit_reducer,
    flm_classify_fit,
    flm_classify_predict,
    fof_fit,
    fof_predict,
    functional_rmse,
    select_ridge,
    _fof_solver,
)
from bfae.gp import SimConfig, sample_gp
from bfae.grids import Grid, make_uniform_grid
from bfae.model import bottleneck_config


def rmse_oracle(truth, estimate, grid):
    """Independent re-implementation: explicit loops and running sums."""
    n = truth.shape[0]
    total = 0.0
    for i in range(n):
        for r in range(truth.shape[1]):
            diff = truth[i, r] - estimate[i, r]
            total += float(np.sum(grid.quad_weights * diff * diff))
    return float(np.sqrt(total / n))


class TestFunctionalRmse:
    def test_zero_for_equal(self):
        g = make_uniform_grid(0, 1, 9)
        x = np.random.default_rng(0).standard_normal((4, 2, 9))
        assert functional_rmse(x, x, g) == 0.0

    def test_constant_offset_closed_form(self):
        g = make_uniform_grid(0, 1, 25)
        for r, delta in [(1, 0.5), (4, 0.21), (10, 1.5)]:
            x = np.random.default_rng(1).standard_normal((6, r, 25))
            got = functional_rmse(x, x + delta, g)
            assert abs(got - delta * np.sqrt(r)) < 1e-12

    def test_matches_oracle(self):
        g = make_uniform_grid(0, 1, 14)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((5, 3, 14)), rng.standard_normal((5, 3, 14))
        assert abs(functional_rmse(x, y, g) - rmse_oracle(x, y, g)) < 1e-12

    def test_symmetric_and_scales_linearly(self):
        g = make_uniform_grid(0, 1, 11)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((4, 1, 11)), rng.standard_normal((4, 1, 11))
        assert functional_rmse(x, y, g) == functional_rmse(y, x, g)
        c = -2.5
        assert abs(functional_rmse(c * x, c * y, g) - abs(c) * functional_rmse(x, y, g)) < 1e-12

    def test_shape_mismatch(self):
        g = make_uniform_grid(0, 1, 5)
        with pytest.raises(ValueError, match="mismatch"):
            functional_rmse(np.zeros((2, 1, 5)), np.zeros((2, 2, 5)), g)


def separable_curves(n, m, seed, scale=4.0):
    """Class = sign of the curve integral, far from the boundary."""
    g = make_uniform_grid(0, 1, m)
    rng = np.random.default_rng(seed)
    shift = np.where(rng.random(n) < 0.5, -scale, scale)
    curves = shift[:, None] + 0.3 * rng.standard_normal((n, m))
    labels = np.where(shift > 0, "pos", "neg")
    return curves[:, None, :], labels, g


def fitted_curve(model):
    """``(alpha, beta)``: the classifier layer's intercept and coefficient curve."""
    return float(model.layer.bias[0]), model.layer.matrix[0]


def penalized_gradient(model, curves, labels, grid):
    """Gradient of the ridge-penalized mean log-likelihood at the fitted
    ``(alpha, beta)``, recomputed one sample at a time."""
    qw = grid.quad_weights
    alpha, beta = fitted_curve(model)
    g_alpha, g_beta = 0.0, np.zeros(len(grid))
    for curve, label in zip(curves[:, 0, :], labels):
        z = alpha + float(np.sum(qw * curve * beta))
        resid = float(label == model.classes[1]) - 1.0 / (1.0 + math.exp(-z))
        g_alpha += resid
        g_beta += resid * qw * curve
    n = len(labels)
    return np.concatenate(([g_alpha / n], g_beta / n - model.ridge * qw * beta))


def gradient_ascent_reference(curves, labels, grid, ridge, tol=1e-12, max_iter=200_000):
    """Plain gradient ascent with the fixed step 1 / L (L bounds the Hessian),
    run until the gradient vanishes; returns ``(alpha, beta)`` as one vector."""
    design = np.hstack([np.ones((len(curves), 1)), curves[:, 0, :] * grid.quad_weights])
    y = (np.asarray(labels) == sorted(set(labels))[1]).astype(np.float64)
    penalty = np.concatenate(([0.0], ridge * grid.quad_weights))
    lipschitz = 0.25 * np.linalg.norm(design, 2) ** 2 / len(y) + penalty.max()
    theta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        gradient = design.T @ (y - 1.0 / (1.0 + np.exp(-design @ theta))) / len(y) - penalty * theta
        if np.max(np.abs(gradient)) <= tol:
            return theta
        theta += gradient / lipschitz
    raise AssertionError("reference gradient ascent did not converge")


class TestFlmClassifier:
    @pytest.mark.parametrize("ridge", [1e-5, 1e-3, 1e-1])
    def test_gradient_vanishes_at_the_returned_optimum(self, ridge):
        curves, labels, g = separable_curves(80, 15, seed=14, scale=0.3)
        model = flm_classify_fit(curves, labels, g, ridge=ridge)
        assert np.max(np.abs(penalized_gradient(model, curves, labels, g))) <= 1e-10

    def test_matches_gradient_ascent_run_to_convergence(self):
        curves, labels, g = separable_curves(40, 6, seed=15, scale=0.5)
        model = flm_classify_fit(curves, labels, g, ridge=1e-2)
        reference = gradient_ascent_reference(curves, labels, g, ridge=1e-2)
        alpha, beta = fitted_curve(model)
        np.testing.assert_allclose(alpha, reference[0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(beta, reference[1:], rtol=0, atol=1e-9)

    def test_separable_data_at_small_ridge_takes_few_monotone_steps(self):
        curves, labels, g = separable_curves(60, 20, seed=4)
        model = flm_classify_fit(curves, labels, g, ridge=1e-5)
        assert np.all(np.diff(model.objective_path) >= 0.0)
        assert model.objective_path.size - 1 <= 25
        assert classification_error(model, curves, labels) == 0.0

    def test_separable_training_error_zero(self):
        curves, labels, g = separable_curves(60, 20, seed=4)
        model = flm_classify_fit(curves, labels, g, ridge=1e-4)
        assert classification_error(model, curves, labels) == 0.0

    def test_shuffled_labels_near_chance(self):
        curves, labels, g = separable_curves(400, 15, seed=5)
        rng = np.random.default_rng(6)
        shuffled = rng.permutation(labels)
        model = flm_classify_fit(curves[:200], shuffled[:200], g, ridge=1e-2)
        err = classification_error(model, curves[200:], shuffled[200:])
        assert abs(err - 0.5) <= 0.1

    def test_zero_model_predicts_half(self):
        # each curve once per label: the gradient at zero vanishes, so the fit stops there
        curves, _, g = separable_curves(10, 8, seed=7)
        curves = np.concatenate([curves, curves])
        labels = np.repeat(["a", "b"], 10)
        model = flm_classify_fit(curves, labels, g, ridge=1e-3)
        assert not model.layer.params.any()
        assert model.objective_path.size == 1
        _, p = flm_classify_predict(model, curves)
        np.testing.assert_array_equal(p, 0.5)

    def test_probability_monotone_in_inner_product(self):
        curves, labels, g = separable_curves(50, 12, seed=8)
        model = flm_classify_fit(curves, labels, g, ridge=1e-3)
        scores = (curves[:, 0, :] * g.quad_weights) @ fitted_curve(model)[1]
        _, p = flm_classify_predict(model, curves)
        order = np.argsort(scores)
        assert np.all(np.diff(p[order]) >= -1e-12)

    def test_fit_predict_round_trip(self):
        curves, labels, g = separable_curves(40, 10, seed=9, scale=0.8)
        model = flm_classify_fit(curves, labels, g, ridge=1e-3)
        predicted, _ = flm_classify_predict(model, curves)
        assert np.mean(predicted != labels) == classification_error(model, curves, labels)

    def test_objective_path_monotone(self):
        curves, labels, g = separable_curves(40, 10, seed=10, scale=0.5)
        model = flm_classify_fit(curves, labels, g, ridge=1e-3)
        assert np.all(np.diff(model.objective_path) >= 0.0)

    def test_non_finite_curves_rejected(self):
        curves, labels, g = separable_curves(10, 8, seed=11)
        model = flm_classify_fit(curves, labels, g)
        curves[3, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            flm_classify_predict(model, curves)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_rejects_non_finite_curves(self, bad):
        curves, labels, g = separable_curves(10, 8, seed=11)
        curves[3, 0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            flm_classify_fit(curves, labels, g)

    def test_single_class_rejected(self):
        curves, _, g = separable_curves(10, 8, seed=11)
        with pytest.raises(ValueError, match="two classes"):
            flm_classify_fit(curves, ["a"] * 10, g)

    @pytest.mark.parametrize("ridge", [-1.0, np.inf, np.nan])
    def test_negative_or_non_finite_ridge_rejected(self, ridge):
        curves, labels, g = separable_curves(10, 8, seed=11)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            flm_classify_fit(curves, labels, g, ridge=ridge)

    def test_deterministic(self):
        curves, labels, g = separable_curves(30, 9, seed=12)
        m1 = flm_classify_fit(curves, labels, g)
        m2 = flm_classify_fit(curves, labels, g)
        np.testing.assert_array_equal(m1.layer.params, m2.layer.params)


class TestFofRegression:
    def make_problem(self, n=60, r=1, m=7, seed=13, noise=0.0):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(0, 1, m)
        x = rng.standard_normal((n, r, m))
        surf = rng.standard_normal((r, r, m, m))
        intercept = rng.standard_normal((r, m))
        y = intercept + np.einsum(
            "qrst,irt->iqs", surf, x * g.quad_weights
        )
        if noise:
            y = y + noise * rng.standard_normal(y.shape)
        return x, y, g

    def test_zero_outputs_give_zero_coefficients(self):
        x, _, g = self.make_problem()
        model = fof_fit(x, np.zeros_like(x), g, g, ridge=1e-3)
        assert np.abs(model.weights).max() < 1e-6
        assert np.abs(model.biases).max() < 1e-12

    def test_recovers_known_surface(self):
        x, y, g = self.make_problem(n=80, m=7)
        model = fof_fit(x, y, g, g, ridge=1e-8)
        pred = fof_predict(model, x)
        assert functional_rmse(y, pred, g) < 1e-3

    def test_train_error_nonincreasing_as_ridge_shrinks(self):
        x, y, g = self.make_problem(n=50, m=6, noise=0.3)
        errs = [
            functional_rmse(y, fof_predict(fof_fit(x, y, g, g, ridge=rg), x), g)
            for rg in (1e-1, 1e-3, 1e-5, 1e-7)
        ]
        assert np.all(np.diff(errs) <= 1e-9)

    def test_requires_positive_ridge(self):
        x, y, g = self.make_problem()
        with pytest.raises(ValueError, match="ridge"):
            fof_fit(x, y, g, g, ridge=0.0)

    def test_multifeature_shapes(self):
        x, y, g = self.make_problem(n=40, r=3, m=5)
        model = fof_fit(x, y, g, g, ridge=1e-6)
        assert model.weights.shape == (3, 3, 5, 5)
        assert fof_predict(model, x).shape == (40, 3, 5)

    @staticmethod
    def reference_fit(inputs, outputs, in_grid, out_grid, ridge):
        """The one-ridge solve written out: weigh, centre, solve the normal equations."""
        design = (inputs * in_grid.quad_weights).reshape(len(inputs), -1)
        target = outputs.reshape(len(outputs), -1)
        x_mean, y_mean = design.mean(axis=0), target.mean(axis=0)
        xc, yc = design - x_mean, target - y_mean
        gram = xc.T @ xc / len(xc) + ridge * np.eye(xc.shape[1])
        coef = np.linalg.solve(gram, xc.T @ yc / len(xc))
        return coef.T, y_mean - x_mean @ coef

    @pytest.mark.parametrize("r", [1, 3])
    def test_shared_equations_equal_a_fit_per_ridge(self, r):
        x, y, g = self.make_problem(n=50, r=r, m=6, noise=0.3)
        x_before, y_before = x.copy(), y.copy()
        solve = _fof_solver(x, y, g, g)  # one build, shared by every ridge
        for ridge in RIDGE_GRID:
            shared = solve(ridge)
            alone = fof_fit(x, y, g, g, ridge=ridge)
            np.testing.assert_array_equal(shared.params, alone.params)
            matrix, bias = self.reference_fit(x, y, g, g, ridge)
            np.testing.assert_array_equal(alone.matrix, matrix)
            np.testing.assert_array_equal(alone.bias, bias)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(y, y_before)

    def test_unit_weights_leave_the_inputs_alone(self):
        # with every quadrature weight 1 the design is the inputs themselves
        g = Grid(points=np.arange(5.0), quad_weights=np.full(5, 0.8))
        unit = Grid(points=np.linspace(0.0, 5.0, 5), quad_weights=np.ones(5))
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((30, 2, 5)), rng.standard_normal((30, 1, 5))
        x_before = x.copy()
        model = fof_fit(x, y, unit, g, ridge=1e-3)
        np.testing.assert_array_equal(x, x_before)
        matrix, bias = self.reference_fit(x, y, unit, g, 1e-3)
        np.testing.assert_array_equal(model.matrix, matrix)
        np.testing.assert_array_equal(model.bias, bias)


class TestSelectRidge:
    def test_picks_known_best(self):
        splits, calls = [], []

        def score_split(tr, va):
            splits.append((len(tr), len(va)))

            def score(ridge):
                calls.append(ridge)
                return abs(np.log10(ridge) + 3)  # best at 1e-3
            return score

        assert select_ridge(score_split, n_train=50, seed=0) == 1e-3
        assert splits == [(40, 10)]  # one split, shared by every ridge
        assert calls == list((1e-5, 1e-4, 1e-3, 1e-2, 1e-1))


class TestPipeline:
    def gp_dataset(self, n, r, m, seed, labels=None):
        g = make_uniform_grid(0, 1, m)
        ds = sample_gp(SimConfig(n_samples=n, n_features=r, grid=g, seed=seed))
        if labels is not None:
            ds = FunctionalDataset(ds.values, ds.grid, ds.feature_names, labels)
        return ds

    def test_reducer_none_is_identity(self):
        ds = self.gp_dataset(10, 1, 8, seed=20)
        rec = fit_reducer("none", ds.values, ds.grid)
        np.testing.assert_array_equal(rec(ds.values), ds.values)

    def test_unknown_reducer(self):
        ds = self.gp_dataset(4, 1, 8, seed=21)
        with pytest.raises(ValueError, match="unknown reducer"):
            fit_reducer("umap", ds.values, ds.grid)

    def test_classification_pipeline_runs_and_is_deterministic(self):
        rng = np.random.default_rng(22)
        curves, labels, g = separable_curves(60, 12, seed=22, scale=1.0)
        ds = FunctionalDataset(curves, g, ("signal",), np.asarray(labels, dtype=object))
        train = ds.subset(np.arange(40))
        test = ds.subset(np.arange(40, 60))
        data = PipelineData(train_inputs=train, test_inputs=test)
        cfg = PipelineConfig(
            bfae=bottleneck_config(1, 12, 1, 4, lr=2.0, epochs=100, seed=1),
            standardize=True, seed=5,
        )
        rows1 = evaluate_pipeline("bfae", "classify", data, cfg)
        rows2 = evaluate_pipeline("bfae", "classify", data, cfg)
        assert rows1 == rows2
        metrics = {(r["split"], r["metric"]) for r in rows1}
        assert ("test", "classification_error") in metrics
        assert ("train", "reconstruction_rmse") in metrics

    def test_none_reducer_has_zero_reconstruction_error(self):
        curves, labels, g = separable_curves(30, 10, seed=23)
        ds = FunctionalDataset(curves, g, ("signal",), np.asarray(labels, dtype=object))
        data = PipelineData(train_inputs=ds.subset(range(20)), test_inputs=ds.subset(range(20, 30)))
        rows = evaluate_pipeline("none", "classify", data, PipelineConfig(standardize=False))
        recon = [r["value"] for r in rows if r["metric"] == "reconstruction_rmse"]
        assert max(recon) == 0.0

    def test_regression_pipeline_runs(self):
        inputs = self.gp_dataset(30, 2, 9, seed=24)
        rng = np.random.default_rng(25)
        surf = rng.standard_normal((2, 2, 9, 9))
        y = np.einsum("qrst,irt->iqs", surf, inputs.values * inputs.grid.quad_weights)
        outputs = FunctionalDataset(y, inputs.grid, inputs.feature_names)
        data = PipelineData(
            train_inputs=inputs.subset(range(20)),
            test_inputs=inputs.subset(range(20, 30)),
            train_outputs=outputs.subset(range(20)),
            test_outputs=outputs.subset(range(20, 30)),
        )
        rows = evaluate_pipeline("fpca", "regress", data, PipelineConfig(standardize=False))
        by_key = {(r["split"], r["metric"]): r["value"] for r in rows}
        assert by_key[("test", "regression_rmse")] > 0
        assert np.isfinite(by_key[("train", "regression_rmse")])
