import numpy as np
import pytest
from conftest import finite_difference_gradient
from test_train_reference import reference_derivative

from bfae.baselines import (
    ae_encode,
    ae_fit,
    ae_reconstruct,
    ae_widths_from_config,
    fpca_encode,
    fpca_fit,
    fpca_reconstruct,
    pca_encode,
    pca_fit,
    pca_reconstruct,
)
from bfae.grids import inner_product, make_uniform_grid
from bfae.layers import Activation
from bfae.model import bottleneck_config, model_gradients


class TestPCA:
    def test_rank_one_data(self):
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(8)
        data = 3.0 + np.outer(rng.standard_normal(40), direction)
        model = pca_fit(data)
        assert model.retained == 1
        assert model.explained_ratio[0] >= 0.99

    def test_full_retention_reconstructs(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((20, 6))
        model = pca_fit(data, variance_target=1.0)
        rec = pca_reconstruct(model, pca_encode(model, data))
        np.testing.assert_allclose(rec, data, atol=1e-8)

    def test_mean_encodes_to_zero(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((30, 5))
        model = pca_fit(data)
        np.testing.assert_allclose(pca_encode(model, data.mean(axis=0)), 0.0, atol=1e-10)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((25, 7))
        model = pca_fit(data, variance_target=0.9)
        once = pca_reconstruct(model, pca_encode(model, data))
        twice = pca_reconstruct(model, pca_encode(model, once))
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_components_orthonormal_ratios_sorted(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 9))
        model = pca_fit(data)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(model.retained), atol=1e-8)
        assert np.all(np.diff(model.explained_ratio) <= 1e-12)
        assert model.explained_ratio.sum() <= 1.0 + 1e-12

    def test_never_worse_than_random_projections(self):
        # optimality of the PCA subspace at fixed rank, on tiny instances
        rng = np.random.default_rng(5)
        data = rng.standard_normal((15, 4)) @ np.diag([3.0, 2.0, 0.5, 0.1])
        centered = data - data.mean(axis=0)
        model = pca_fit(data, variance_target=0.5)
        k = model.retained
        rec = pca_reconstruct(model, pca_encode(model, data))
        pca_err = ((data - rec) ** 2).sum()
        for _ in range(30):
            basis, _ = np.linalg.qr(rng.standard_normal((4, k)))
            proj = centered @ basis @ basis.T
            assert pca_err <= ((centered - proj) ** 2).sum() + 1e-9

    def test_degenerate_data(self):
        with pytest.raises(ValueError, match="degenerate"):
            pca_fit(np.ones((5, 3)))


class TestFPCA:
    def grid(self, m=20):
        return make_uniform_grid(0, 1, m)

    def gp_values(self, n=60, r=1, m=20, seed=6, noise=0.0):
        from bfae.gp import SimConfig, sample_gp

        cfg = SimConfig(n_samples=n, n_features=r, grid=self.grid(m), noise_sd=noise, seed=seed)
        return sample_gp(cfg).values

    def test_eigenfunctions_orthonormal_under_quadrature(self):
        grid = self.grid()
        model = fpca_fit(self.gp_values(), grid)
        phi = model.eigenfunctions[0]
        for i in range(phi.shape[1]):
            for j in range(phi.shape[1]):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(phi[:, i], phi[:, j], grid) - expected) < 1e-6

    def test_eigenvalues_sorted_and_nonnegative(self):
        model = fpca_fit(self.gp_values(), self.grid())
        lam = model.eigenvalues[0]
        assert np.all(np.diff(lam) <= 1e-12)
        assert lam.min() >= -1e-10

    def test_rank_one_functional_data(self):
        grid = self.grid()
        f = np.sin(np.pi * grid.points)
        scores = np.random.default_rng(7).standard_normal(30)
        values = (scores[:, None] * f)[:, None, :]
        model = fpca_fit(values, grid)
        assert model.total_retained == 1
        rec = fpca_reconstruct(model, fpca_encode(model, values))
        np.testing.assert_allclose(rec, values, atol=1e-8)

    def test_mean_function_encodes_to_zero(self):
        grid = self.grid()
        values = self.gp_values()
        model = fpca_fit(values, grid)
        mean_curve = values.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(fpca_encode(model, mean_curve), 0.0, atol=1e-10)

    def test_full_retention_reconstructs(self):
        grid = self.grid(m=12)
        values = self.gp_values(n=40, m=12, noise=0.2)
        model = fpca_fit(values, grid, variance_target=1.0)
        rec = fpca_reconstruct(model, fpca_encode(model, values))
        np.testing.assert_allclose(rec, values, atol=1e-6)

    def test_error_nonincreasing_in_k(self):
        grid = self.grid()
        values = self.gp_values(n=50, noise=0.1)
        model = fpca_fit(values, grid, variance_target=1.0)
        phi = model.eigenfunctions[0]
        centered = values[:, 0] - model.means[0]
        errs = []
        for k in range(1, 8):
            scores = centered * grid.quad_weights @ phi[:, :k]
            rec = scores @ phi[:, :k].T
            errs.append(((centered - rec) ** 2).sum())
        assert np.all(np.diff(errs) <= 1e-9)

    def test_multifeature_budget_is_shared(self):
        grid = self.grid()
        strong = self.gp_values(n=80, seed=8)
        weak = 0.05 * self.gp_values(n=80, seed=9)
        values = np.concatenate([strong, weak], axis=1)
        model = fpca_fit(values, grid)
        # nearly all the variance budget should go to the strong feature
        assert model.retained[0] >= model.retained[1]

    def test_matches_pca_of_weighted_data(self):
        # uniform grid: FPCA == PCA applied to sqrt(w)-scaled curves
        grid = self.grid()
        values = self.gp_values(n=50, noise=0.05, seed=10)
        target = 0.95
        fmodel = fpca_fit(values, grid, variance_target=target)
        w_sqrt = np.sqrt(grid.quad_weights)
        pmodel = pca_fit(values[:, 0] * w_sqrt, variance_target=target)
        assert pmodel.retained == fmodel.total_retained
        frec = fpca_reconstruct(fmodel, fpca_encode(fmodel, values))
        prec = pca_reconstruct(pmodel, pca_encode(pmodel, values[:, 0] * w_sqrt)) / w_sqrt
        np.testing.assert_allclose(frec[:, 0], prec, atol=1e-8)

    def test_degenerate_data(self):
        with pytest.raises(ValueError, match="degenerate"):
            fpca_fit(np.ones((5, 1, 6)), self.grid(6))


def dense_reference(data, widths, activations, lr, epochs, seed):
    """The dense AE as plain matrix algebra: Glorot-uniform weights drawn layer
    by layer from one generator, zero biases, then full-batch gradient descent
    on the mean squared reconstruction error.

    Returns ``(params, losses, forward)`` with ``params`` a list of
    ``[weights (out, in), biases (out,)]`` and ``forward(x)`` the network output.
    """
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        c = np.sqrt(6.0 / (fan_in + fan_out))
        params.append([rng.uniform(-c, c, size=(fan_out, fan_in)), np.zeros(fan_out)])
    acts = [Activation(a) for a in activations]

    def forward(x):
        caches, h = [], x
        for (w, b), act in zip(params, acts):
            pre = h @ w.T + b
            caches.append((h, pre))
            h = act.apply(pre)
        return h, caches

    losses = np.empty(epochs)
    for epoch in range(epochs):
        xhat, caches = forward(data)
        losses[epoch] = ((xhat - data) ** 2).sum(axis=1).mean()
        upstream = 2.0 / data.shape[0] * (xhat - data)
        for (w, b), act, (inp, pre) in reversed(list(zip(params, acts, caches))):
            delta = upstream * reference_derivative(act, pre)
            upstream = delta @ w
            w -= lr * (delta.T @ inp)
            b -= lr * delta.sum(axis=0)
    return params, losses, lambda x: forward(x)[0]


class TestDenseAE:
    @pytest.mark.parametrize(
        "widths, activations",
        [
            ([6, 1, 6], ["tanh", "linear"]),                 # 1-wide bottleneck
            ([8, 4, 3, 8], ["tanh", "relu", "linear"]),     # three-layer stack
            ([6, 3, 6], ["tanh", "sigmoid"]),               # non-linear output layer
            ([6, 8, 6], ["tanh", "linear"]),                 # narrowest layer is the output
        ],
    )
    def test_matches_dense_reference(self, widths, activations):
        data = np.random.default_rng(15).standard_normal((12, widths[0]))
        model, history = ae_fit(data, widths, activations, lr=0.03, epochs=60, seed=5)
        params, losses, forward = dense_reference(data, widths, activations, 0.03, 60, 5)
        for layer, (w, b) in zip(model.layers, params):
            np.testing.assert_array_equal(layer.weights, w.reshape(1, 1, *w.shape))
            np.testing.assert_array_equal(layer.biases, b[None, :])
        np.testing.assert_array_equal(ae_reconstruct(model, data), forward(data))
        np.testing.assert_allclose(history.losses, losses, rtol=1e-12, atol=0.0)

    def test_narrowest_output_layer_encodes_to_reconstruction(self):
        data = np.random.default_rng(16).standard_normal((5, 6))
        model, _ = ae_fit(data, [6, 8, 6], lr=0.01, epochs=3, seed=6)
        assert model.latent_index == 2
        np.testing.assert_array_equal(ae_encode(model, data), ae_reconstruct(model, data))

    def test_zero_lr_keeps_model(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((10, 6))
        model, history = ae_fit(data, [6, 3, 6], lr=0.0, epochs=5, seed=1)
        params, _, _ = dense_reference(data, [6, 3, 6], ["tanh", "linear"], 0.0, 0, 1)
        for got, (w, _) in zip(model.layers, params):
            np.testing.assert_array_equal(got.weights[0, 0], w)
        assert np.ptp(history.losses) == 0.0

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_is_rejected_before_training(self, lr):
        data = np.random.default_rng(11).standard_normal((10, 6))
        with pytest.raises(ValueError, match="lr must be finite"):
            ae_fit(data, [6, 3, 6], lr=lr, epochs=5, seed=1)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((7, 5))
        model, _ = ae_fit(data, [5, 3, 5], lr=0.0, epochs=0, seed=2)
        _, grads = model_gradients(model, data[:, None, :])

        def loss_fn():
            out = ae_reconstruct(model, data)
            return float(((out - data) ** 2).sum(axis=1).mean())

        for ell, layer in enumerate(model.layers):
            gw, gb = grads[ell]
            idx = (0, 0, 1, 2)
            fd = finite_difference_gradient(loss_fn, layer.weights, [idx])[idx]
            assert abs(gw[idx] - fd) / max(abs(fd), 1e-10) < 1e-5
            fd_b = finite_difference_gradient(loss_fn, layer.biases, [(0, 0)])[(0, 0)]
            assert abs(gb[0, 0] - fd_b) / max(abs(fd_b), 1e-10) < 1e-5

    def test_training_descends_and_is_deterministic(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((30, 8))
        m1, h1 = ae_fit(data, [8, 2, 8], lr=0.02, epochs=400, seed=3)
        m2, h2 = ae_fit(data, [8, 2, 8], lr=0.02, epochs=400, seed=3)
        assert h1.losses[-1] < h1.losses[0]
        np.testing.assert_array_equal(h1.losses, h2.losses)
        np.testing.assert_array_equal(ae_reconstruct(m1, data), ae_reconstruct(m2, data))

    def test_encode_hits_bottleneck(self):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((10, 6))
        model, _ = ae_fit(data, [6, 2, 6], lr=0.01, epochs=5, seed=4)
        assert ae_encode(model, data).shape == (10, 2)

    def test_widths_mirror_bfae_config(self):
        cfg = bottleneck_config(10, 50, 4, 10, n_layers=3)
        assert ae_widths_from_config(cfg) == [500, 40, 40, 500]
