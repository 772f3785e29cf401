import base64
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import finite_difference_gradient

from bfae.grids import make_uniform_grid
from bfae.layers import layer_forward
from bfae.model import (
    BFAEConfig,
    TrainingDiverged,
    bottleneck_config,
    build,
    load_model,
    model_gradients,
    reconstruction_loss,
    save_model,
    train,
)


def quadrature_oracle_loss(x, xhat, grid):
    """Independent recomputation of the training loss, one sample at a time."""
    total = 0.0
    for i in range(x.shape[0]):
        for r in range(x.shape[1]):
            diff = x[i, r] - xhat[i, r]
            total += float(np.sum(grid.quad_weights * diff * diff))
    return total / x.shape[0]


class TestConfig:
    def test_minimal_two_layer(self):
        cfg = BFAEConfig(feature_counts=(1, 1, 1), grid_sizes=(50, 50, 50), latent_index=1)
        model = build(cfg)
        assert len(model.layers) == 2
        assert cfg.latent_shape == (1, 50)

    def test_boundary_count_must_be_layers_plus_one(self):
        with pytest.raises(ValueError):
            BFAEConfig(feature_counts=(10, 4, 10), grid_sizes=(50, 10, 10, 50))

    def test_ends_must_match_data(self):
        with pytest.raises(ValueError, match="first and last"):
            BFAEConfig(feature_counts=(10, 4, 4, 12), grid_sizes=(50, 10, 10, 50))
        with pytest.raises(ValueError, match="first and last"):
            BFAEConfig(feature_counts=(10, 4, 4, 10), grid_sizes=(50, 10, 10, 40))

    def test_three_layer_latent_shape(self):
        # R=10 -> R'=4, M=50 -> M'=10, three layers, default latent in the middle
        cfg = BFAEConfig(feature_counts=(10, 4, 4, 10), grid_sizes=(50, 10, 10, 50))
        assert cfg.latent_index == 2
        assert cfg.latent_shape == (4, 10)
        model = build(cfg)
        latent = model.encode(np.zeros((3, 10, 50)))
        assert latent.shape == (3, 4, 10)

    def test_latent_index_bounds(self):
        with pytest.raises(ValueError, match="latent_index"):
            BFAEConfig(feature_counts=(1, 1, 1), grid_sizes=(9, 9, 9), latent_index=2)

    def test_output_activation_must_be_linear(self):
        with pytest.raises(ValueError, match="linear"):
            BFAEConfig(
                feature_counts=(1, 1, 1), grid_sizes=(9, 9, 9),
                activations=("tanh", "tanh"),
            )

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_lr_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="lr must be finite"):
            bottleneck_config(1, 9, 1, 3, lr=lr)

    def test_bottleneck_helper(self):
        cfg = bottleneck_config(10, 50, 4, 10, n_layers=3)
        assert cfg.feature_counts == (10, 4, 4, 10)
        assert cfg.grid_sizes == (50, 10, 10, 50)
        assert cfg.activations == ("tanh", "tanh", "linear")


class TestForwardEncode:
    def test_zero_parameters_reconstruct_zero(self):
        cfg = bottleneck_config(2, 12, 1, 4, init_scheme="zeros")
        model = build(cfg)
        x = np.random.default_rng(0).standard_normal((5, 2, 12))
        np.testing.assert_array_equal(model.reconstruct(x), 0.0)

    def test_forward_composes_layer_forward(self):
        cfg = bottleneck_config(2, 8, 1, 5, seed=4)
        model = build(cfg)
        x = np.random.default_rng(5).standard_normal((3, 2, 8))
        h = x
        for layer in model.layers:
            h, _ = layer_forward(layer, h)
        np.testing.assert_array_equal(model.reconstruct(x), h)

    def test_encode_is_forward_intermediate(self):
        cfg = bottleneck_config(2, 8, 1, 5, n_layers=3, seed=4)
        model = build(cfg)
        x = np.random.default_rng(6).standard_normal((3, 2, 8))
        h = x
        for layer in model.layers[: model.latent_index]:
            h, _ = layer_forward(layer, h)
        np.testing.assert_array_equal(model.encode(x), h)

    def test_scalar_latent_shape(self):
        # M' = 1 latent: one scalar per latent neuron
        cfg = bottleneck_config(3, 10, 2, 1, seed=1)
        model = build(cfg)
        latent = model.encode(np.zeros((6, 3, 10)))
        assert latent.shape == (6, 2, 1)

    def test_full_size_latent_shape(self):
        cfg = bottleneck_config(3, 10, 3, 10, seed=1)
        assert build(cfg).encode(np.zeros((2, 3, 10))).shape == (2, 3, 10)

    def test_shape_validation(self):
        model = build(bottleneck_config(2, 8, 1, 4))
        with pytest.raises(ValueError, match="batch"):
            model.reconstruct(np.zeros((3, 2, 9)))

    def test_two_layer_model_matches_nested_quadrature_oracle(self):
        from test_layers import brute_force_forward

        cfg = bottleneck_config(2, 6, 1, 4, seed=9)
        model = build(cfg)
        x = np.random.default_rng(10).standard_normal((3, 2, 6))
        mid = brute_force_forward(model.layers[0], x)
        expected = brute_force_forward(model.layers[1], mid)
        np.testing.assert_allclose(model.reconstruct(x), expected, atol=1e-9)


class TestLoss:
    def test_zero_for_identical(self):
        g = make_uniform_grid(0, 1, 10)
        x = np.random.default_rng(0).standard_normal((4, 2, 10))
        assert reconstruction_loss(x, x, g) == 0.0

    def test_constant_offset_closed_form(self):
        g = make_uniform_grid(0, 1, 20)
        r, delta = 3, 0.37
        x = np.random.default_rng(1).standard_normal((5, r, 20))
        assert abs(reconstruction_loss(x, x + delta, g) - r * delta**2) < 1e-12

    def test_matches_quadrature_oracle(self):
        g = make_uniform_grid(0, 1, 13)
        rng = np.random.default_rng(2)
        x, xhat = rng.standard_normal((6, 2, 13)), rng.standard_normal((6, 2, 13))
        assert abs(reconstruction_loss(x, xhat, g) - quadrature_oracle_loss(x, xhat, g)) < 1e-12

    def test_nonnegative_and_zero_only_at_equality(self):
        g = make_uniform_grid(0, 1, 7)
        x = np.zeros((1, 1, 7))
        bump = np.zeros_like(x)
        bump[0, 0, 3] = 1e-3
        assert reconstruction_loss(x, x + bump, g) > 0


class TestGradients:
    @pytest.mark.parametrize("hidden", ["tanh", "sigmoid", "linear"])
    def test_whole_model_gradient_matches_finite_differences(self, hidden):
        cfg = bottleneck_config(2, 7, 1, 4, n_layers=3, hidden=hidden, seed=13)
        model = build(cfg)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 2, 7))
        _, grads = model_gradients(model, x)

        def loss_fn():
            return reconstruction_loss(x, model.reconstruct(x), model.data_grid)

        for ell, layer in enumerate(model.layers):
            gw, gb = grads[ell]
            w_indices = [
                tuple(rng.integers(0, dim) for dim in layer.weights.shape) for _ in range(4)
            ]
            fd = finite_difference_gradient(loss_fn, layer.weights, w_indices)
            for idx, fd_val in fd.items():
                assert abs(gw[idx] - fd_val) / max(abs(fd_val), 1e-8) < 1e-4
            b_idx = tuple(rng.integers(0, dim) for dim in layer.biases.shape)
            fd_b = finite_difference_gradient(loss_fn, layer.biases, [b_idx])[b_idx]
            assert abs(gb[b_idx] - fd_b) / max(abs(fd_b), 1e-8) < 1e-4

    @pytest.mark.parametrize("feature_counts, grid_sizes, activations, seed", [
        ((3, 2, 3), (6, 1, 6), ("sigmoid", "linear"), 31),
        ((2, 3, 2), (5, 1, 5), ("relu", "linear"), 32),
        ((2, 1, 3, 2), (7, 1, 4, 7), ("relu", "sigmoid", "linear"), 33),
        ((1, 2, 1), (8, 3, 8), ("tanh", "linear"), 34),
    ])
    def test_every_gradient_entry_matches_finite_differences(
        self, feature_counts, grid_sizes, activations, seed,
    ):
        cfg = BFAEConfig(feature_counts=feature_counts, grid_sizes=grid_sizes,
                         activations=activations, seed=seed)
        model = build(cfg)
        rng = np.random.default_rng(seed)
        for layer in model.layers:  # nonzero biases move relu units off their kink
            layer.biases[...] = rng.standard_normal(layer.biases.shape)
        x = rng.standard_normal((5, feature_counts[0], grid_sizes[0]))
        _, grads = model_gradients(model, x)

        def loss_fn():
            return reconstruction_loss(x, model.reconstruct(x), model.data_grid)

        for layer, (gw, gb) in zip(model.layers, grads):
            for param, grad in ((layer.weights, gw), (layer.biases, gb)):
                indices = list(np.ndindex(param.shape))
                fd = finite_difference_gradient(loss_fn, param, indices)
                expected = np.array([fd[idx] for idx in indices]).reshape(param.shape)
                np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-8)


class TestTrain:
    def test_zero_lr_keeps_model_and_history_constant(self):
        cfg = bottleneck_config(1, 9, 1, 3, lr=0.0, epochs=5, seed=3)
        model = build(cfg)
        w0 = model.layers[0].weights.copy()
        x = np.random.default_rng(4).standard_normal((6, 1, 9))
        history = train(model, x)
        assert np.ptp(history.losses) == 0.0
        np.testing.assert_array_equal(model.layers[0].weights, w0)

    def test_small_problem_descends(self):
        cfg = bottleneck_config(1, 9, 1, 4, hidden="linear", lr=2.0, epochs=500, seed=5)
        model = build(cfg)
        x = np.random.default_rng(6).standard_normal((8, 1, 9))
        history = train(model, x)
        assert history.losses[-1] < history.losses[0]
        assert model.trained_epochs == 500

    def test_small_lr_never_increases_loss_on_linear_model(self):
        cfg = bottleneck_config(1, 9, 1, 9, hidden="linear", lr=1e-3, epochs=200, seed=7)
        model = build(cfg)
        x = np.random.default_rng(8).standard_normal((10, 1, 9))
        history = train(model, x)
        assert np.all(np.diff(history.losses) <= 1e-6)

    def test_momentum_trains(self):
        cfg = bottleneck_config(1, 9, 1, 4, hidden="linear", lr=1.0, epochs=300,
                                momentum=0.9, seed=11)
        model = build(cfg)
        x = np.random.default_rng(12).standard_normal((8, 1, 9))
        history = train(model, x)
        assert history.losses[-1] < history.losses[0] * 0.5

    def test_minibatch_path(self):
        cfg = bottleneck_config(1, 7, 1, 3, lr=0.5, epochs=20, batch_size=3, seed=13)
        model = build(cfg)
        x = np.random.default_rng(14).standard_normal((8, 1, 7))
        history = train(model, x)
        assert history.losses.shape == (20,)
        assert history.losses[-1] < history.losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = bottleneck_config(1, 20, 1, 20, hidden="linear", lr=1e6, epochs=200, seed=15)
        model = build(cfg)
        x = np.random.default_rng(16).standard_normal((10, 1, 20))
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(model, x)

    def test_divergence_caught_early(self):
        # sim1-shaped 1x10 model at lr 1e4: the loss grows by ~1e3x per epoch
        from bfae.gp import SimConfig, sample_gp

        grid = make_uniform_grid(0, 1, 50)
        x = sample_gp(SimConfig(n_samples=80, n_features=1, grid=grid, seed=0)).values
        model = build(bottleneck_config(1, 50, 1, 10, lr=1e4, epochs=100, seed=3))
        with pytest.raises(TrainingDiverged, match=r"at epoch \d.*initial loss.*reduce lr"):
            train(model, x)
        assert model.trained_epochs <= 5

    def test_reconstruct_deterministic(self):
        cfg = bottleneck_config(1, 8, 1, 4, seed=17)
        model = build(cfg)
        x = np.random.default_rng(18).standard_normal((4, 1, 8))
        np.testing.assert_array_equal(model.reconstruct(x), model.reconstruct(x))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = bottleneck_config(2, 10, 1, 4, lr=1.5, epochs=40, seed=19)
        model = build(cfg)
        x = np.random.default_rng(20).standard_normal((6, 2, 10))
        train(model, x)
        path = save_model(model, tmp_path / "model.json")
        loaded = load_model(path)
        np.testing.assert_array_equal(model.reconstruct(x), loaded.reconstruct(x))
        assert loaded.trained_epochs == model.trained_epochs
        assert loaded.config == model.config

    def test_version_1_file_round_trips_byte_for_byte(self, tmp_path):
        # written by the 4-D parameter layout: 3 -> 2 -> 2 -> 3 features, 8 -> 4 -> 4 -> 8 points
        golden = Path(__file__).parent / "data" / "model_v1_j3x8_j2x4.json"
        model = load_model(golden)
        assert [lay.weights.shape for lay in model.layers] == [
            (2, 3, 4, 8), (2, 2, 4, 4), (3, 2, 8, 4),
        ]
        path = save_model(model, tmp_path / "again.json")
        assert path.read_bytes() == golden.read_bytes()

    def test_rejects_a_file_with_missing_layers(self, tmp_path):
        # the 2-layer model's first layer alone: shapes and payload agree
        model = build(bottleneck_config(1, 8, 1, 4, seed=3))
        path = save_model(model, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        first = model.layers[0]
        payload = np.concatenate([first.weights.ravel(), first.biases.ravel()])
        doc["layer_shapes"] = doc["layer_shapes"][:1]
        doc["payload_b64"] = base64.b64encode(payload.astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="1 layer shapes for 2 layers"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda config: config.pop("lr"),
        lambda config: config.update(dropout=0.5),
    ], ids=["missing-lr", "unknown-key"])
    def test_rejects_config_keys_that_differ_from_the_fields(self, edit, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2, lr=0.5)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        edit(doc["config"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="config keys"):
            load_model(path)

    @pytest.mark.parametrize("cut", [16, 4], ids=["whole-values", "part-value"])
    def test_rejects_a_truncated_payload(self, cut, tmp_path):
        path = save_model(build(bottleneck_config(1, 8, 1, 4, seed=3)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["payload_b64"] = doc["payload_b64"][:-cut]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="m.json: payload size does not match shapes header"):
            load_model(path)

    def test_rejects_a_payload_that_is_not_base64(self, tmp_path):
        path = save_model(build(bottleneck_config(1, 8, 1, 4, seed=3)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["payload_b64"] = doc["payload_b64"][:-3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="m.json: payload is not base64"):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        cfg = bottleneck_config(1, 5, 1, 2)
        path = save_model(build(cfg), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_model(path)
