import base64
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import finite_difference_gradient, rank_floor
from test_train_reference import (
    assert_near_primal,
    assert_same_parameters,
    reference_dual_train,
    reference_params,
    reference_train,
    two_loop_direction,
)

from bfae.baselines import ae_fit
from bfae.grids import make_uniform_grid
from bfae.layers import Activation, init_layer, layer_forward
from bfae.model import (
    LBFGS_PAIRS,
    LINE_SEARCH_TRIALS,
    BFAEConfig,
    BFAEModel,
    TrainingDiverged,
    bottleneck_config,
    build,
    load_model,
    model_gradients,
    reconstruction_loss,
    save_model,
    train,
    _LBFGSMemory,
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

    @pytest.mark.parametrize("field, value, match", [
        ("epochs", 3.9, "epochs must be a whole number, got 3.9"),
        ("epochs", True, "epochs must be a whole number, got True"),
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("lr", True, "lr must be a number, got True"),
    ])
    def test_epochs_and_lr_must_be_numbers_of_their_kind(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            bottleneck_config(1, 9, 1, 3, **{field: value})

    @pytest.mark.parametrize("field, value, match", [
        ("init_scheme", "bogus", r"unknown init scheme 'bogus'; choose from \('uniform', "),
        ("init_scheme", "glorot", "unknown init scheme 'glorot'"),
        ("activations", ("relu2", "linear"), "unknown activation 'relu2'"),
        ("activations", ("tanh", "Linear"), "unknown activation 'Linear'"),
    ])
    def test_names_are_checked(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            BFAEConfig(feature_counts=(1, 1, 1), grid_sizes=(9, 9, 9), **{field: value})

    @pytest.mark.parametrize("optimizer", ["adam", "LBFGS", "sgd"])
    def test_optimizer_name_is_checked(self, optimizer):
        with pytest.raises(ValueError, match=rf"unknown optimizer '{optimizer}'; choose from "
                                             r"\('gd', 'lbfgs'\)"):
            bottleneck_config(1, 9, 1, 3, optimizer=optimizer)

    def test_lbfgs_takes_no_momentum(self):
        with pytest.raises(ValueError, match="momentum must be 0 with optimizer 'lbfgs', got 0.5"):
            bottleneck_config(1, 9, 1, 3, momentum=0.5, optimizer="lbfgs")
        assert bottleneck_config(1, 9, 1, 3, momentum=0.5).optimizer == "gd"

    @pytest.mark.parametrize("interval", [(0.0, 1.0, 2.0), (1.0,)])
    def test_interval_must_be_a_pair(self, interval):
        with pytest.raises(ValueError, match=r"interval must be a pair \(a, b\), got"):
            BFAEConfig(feature_counts=(1, 1, 1), grid_sizes=(9, 9, 9), interval=interval)

    def test_bottleneck_helper(self):
        cfg = bottleneck_config(10, 50, 4, 10, n_layers=3)
        assert cfg.feature_counts == (10, 4, 4, 10)
        assert cfg.grid_sizes == (50, 10, 10, 50)
        assert cfg.activations == ("tanh", "tanh", "linear")


class TestModelIsItsConfig:
    @pytest.mark.parametrize("config", [
        bottleneck_config(2, 8, 1, 4, seed=3),
        bottleneck_config(1, 6, 2, 1, n_layers=4, hidden="relu", seed=11),
        bottleneck_config(2, 5, 1, 3, init_scheme="zeros"),
    ], ids=["2-layer", "4-layer", "zeros"])
    def test_build_of_the_config_redraws_the_start(self, config):
        model = build(config)
        for layer, again in zip(model.layers, build(model.config).layers, strict=True):
            np.testing.assert_array_equal(layer.params, again.params)

    def test_build_of_a_dense_ae_config_redraws_its_start(self):
        data = np.random.default_rng(3).standard_normal((7, 6))
        model, _ = ae_fit(data, [6, 4, 2, 4, 6], ["tanh", "relu", "sigmoid", "linear"],
                          epochs=0, seed=5)
        for layer, again in zip(model.layers, build(model.config).layers, strict=True):
            np.testing.assert_array_equal(layer.params, again.params)

    @pytest.mark.parametrize("latent", [1, 2, 3])
    def test_latent_index_is_the_configs_through_a_round_trip(self, latent, tmp_path):
        config = replace(bottleneck_config(1, 8, 2, 4, n_layers=4, seed=2), latent_index=latent)
        model = build(config)
        loaded = load_model(save_model(model, tmp_path / "m.json"))
        x = np.random.default_rng(latent).standard_normal((5, 1, 8))
        for each in (model, loaded):
            assert each.latent_index == each.config.latent_index == latent
            np.testing.assert_array_equal(each.encode(x), model._apply(model.layers[:latent], x))
        np.testing.assert_array_equal(loaded.reconstruct(x), model.reconstruct(x))

    def test_latent_index_is_not_stored_apart_from_the_config(self):
        model = build(bottleneck_config(1, 8, 2, 4, n_layers=4))
        with pytest.raises(TypeError, match="latent_index"):
            BFAEModel(model.layers, model.config, latent_index=1)
        with pytest.raises(AttributeError):
            model.latent_index = 1
        data = np.random.default_rng(1).standard_normal((4, 6))
        dense, _ = ae_fit(data, [6, 3, 2, 3, 6], epochs=0)
        assert dense.latent_index == dense.config.latent_index == 2


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

    def test_an_empty_batch_is_rejected_by_every_caller(self):
        model = build(bottleneck_config(2, 8, 1, 4, epochs=1))
        for call in (model.encode, lambda x: model_gradients(model, x), lambda x: train(model, x)):
            with pytest.raises(ValueError, match=r"batch \(0, 2, 8\) holds no samples"):
                call(np.zeros((0, 2, 8)))

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

    def test_hand_built_non_linear_output_is_rejected(self):
        # a full batch on the dual side: the rejected fit folds nothing in
        model = build(bottleneck_config(1, 9, 1, 4, lr=0.1, epochs=3, seed=25))
        model.layers[-1].activation = Activation("sigmoid")
        x = np.random.default_rng(26).standard_normal((6, 1, 9))
        before = [layer.params.tobytes() for layer in model.layers]
        for call in (model_gradients, train):
            with pytest.raises(ValueError, match="output layer's activation is 'sigmoid'"):
                call(model, x)
        assert model.trained_epochs == 0
        assert [layer.params.tobytes() for layer in model.layers] == before

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
        dual, primal = reference_params(model), reference_params(model)
        with pytest.raises(TrainingDiverged, match=r"at epoch \d.*initial loss.*reduce lr"):
            train(model, x)
        assert model.trained_epochs <= 5
        # 80 curves of 50 values: the first layer is dual, and its coefficients
        # are in params after the raise, which follows the diverging epoch's step
        epochs, qw = model.trained_epochs + 1, model.data_grid.quad_weights
        losses = reference_dual_train(dual, x, qw, 1e4, epochs)
        assert_same_parameters(model, dual)
        assert_near_primal(model, losses, (reference_train(primal, x, qw, 1e4, epochs), primal))

    def test_an_interrupt_folds_the_dual_layer(self, monkeypatch):
        # stopped in the 4th epoch's decoder forward: 3 whole epochs are in params
        from bfae import model as bmodel

        model = build(bottleneck_config(2, 9, 1, 4, lr=0.3, momentum=0.5, epochs=10, seed=25))
        x = np.random.default_rng(26).standard_normal((6, 2, 9))
        params = reference_params(model)
        calls, forward = [], bmodel.layer_forward

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return forward(*args, **kwargs)

        monkeypatch.setattr(bmodel, "layer_forward", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train(model, x)
        assert model.trained_epochs == 3
        reference_dual_train(params, x, model.data_grid.quad_weights, 0.3, 3, momentum=0.5)
        assert_same_parameters(model, params)

    def test_no_epochs_leave_the_parameters_alone(self):
        # a full batch on the dual side, biases with signed zeros
        model = build(bottleneck_config(2, 9, 1, 4, lr=0.1, epochs=0, seed=21))
        for layer in model.layers:
            layer.bias[::2] = -0.0
        before = [layer.params.tobytes() for layer in model.layers]
        history = train(model, np.random.default_rng(22).standard_normal((6, 2, 9)))
        assert history.losses.shape == (0,) and model.trained_epochs == 0
        assert [layer.params.tobytes() for layer in model.layers] == before

    @pytest.mark.parametrize("hidden", ["linear", "tanh", "dense"])
    def test_the_callers_curves_are_never_written(self, hidden):
        # dual side with momentum; the dense AE's weighed data is the caller's array
        x = np.random.default_rng(23).standard_normal((6, 1, 9))
        kept = x.copy()
        if hidden == "dense":
            ae_fit(x[:, 0], [9, 3, 9], lr=0.05, epochs=4, seed=24)
        else:
            cfg = bottleneck_config(1, 9, 1, 4, hidden=hidden, lr=0.1, momentum=0.5, epochs=4)
            train(build(cfg), x)
        np.testing.assert_array_equal(x, kept)

    @pytest.mark.parametrize("shape, latent, bound", [
        ((640, 1, 150), (1, 150), 5.7), ((640, 1, 150), (1, 30), 3.9), ((400, 7, 48), (4, 48), 6.2),
    ], ids=["phoneme-1x150", "phoneme-1x30", "adelaide-4x48"])
    def test_peak_memory_in_data_sized_buffers(self, shape, latent, bound):
        # the workspace holds only live values: the weighed data, one output
        # per layer (tanh writes delta over it), the decoder's weighed input
        # (its input gradient goes over it), the loss gradient and the
        # parameter gradients (the step goes over them); measured 5.57 and
        # 3.79 data sizes, parameters included.  400 curves of 336 values keep
        # the first layer in dual form: no weighed data and no first-layer
        # gradients, but the Gram G (400 x 400, 1.19 data sizes), the base P,
        # the coefficients C and the first layer's output (400 x 192 each,
        # 0.57), then the decoder's output, weighed input, gradients and the
        # loss gradient as above; measured 6.03
        x = np.random.default_rng(19).standard_normal(shape)
        model = build(bottleneck_config(shape[1], shape[2], *latent, lr=0.01, epochs=3, seed=20))
        tracemalloc.start()
        try:
            train(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / x.nbytes <= bound

    def test_reconstruct_deterministic(self):
        cfg = bottleneck_config(1, 8, 1, 4, seed=17)
        model = build(cfg)
        x = np.random.default_rng(18).standard_normal((4, 1, 8))
        np.testing.assert_array_equal(model.reconstruct(x), model.reconstruct(x))


class TestLBFGS:
    def test_compact_direction_matches_the_two_loop_recursion(self):
        # steps on a quadratic of condition 100: 33 pairs kept (the ring wraps) and
        # one skipped, whose s.y < 0; after every update the stored R^-1 inverts
        # R, the upper triangle of S'Y rebuilt from the kept pairs, oldest first
        p = 60
        rng = np.random.default_rng(30)
        curvature = np.geomspace(0.01, 1.0, p)
        memory, kept = _LBFGSMemory(p), []
        g = rng.standard_normal(p)
        for step in range(34):
            direction = memory.direction(g)
            if kept:
                expected = two_loop_direction(kept[-LBFGS_PAIRS:], g)
                assert relative(direction, expected) <= 1e-12, step
            else:
                np.testing.assert_array_equal(direction, -g)
            s = (0.7 + 0.3 * rng.random()) * direction
            y = -s if step == 10 else curvature * s
            memory.update(s, y, g + y)
            g = g + y
            if step != 10:
                kept.append((s, y))
            window = kept[-LBFGS_PAIRS:]
            k = len(window)
            r = np.triu(np.array([s for s, _ in window]) @ np.array([y for _, y in window]).T)
            np.testing.assert_allclose(memory.rinv[:k, :k] @ r, np.eye(k), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.tril(memory.rinv[:k, :k], -1), 0.0)
            np.testing.assert_allclose(memory.diag[:k], np.diag(r), rtol=1e-12)
        assert memory.count == 33 and len(kept) == 33

    def test_training_makes_no_linalg_call(self, monkeypatch):
        # the direction's triangular systems are products with the stored R^-1
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg called")

        x = np.random.default_rng(44).standard_normal((30, 2, 9))
        model = build(bottleneck_config(2, 9, 1, 4, lr=0.5, epochs=40, optimizer="lbfgs", seed=45))
        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np.linalg, "inv", refused)
        train(model, x)
        assert model.trained_epochs == 40

    @pytest.mark.parametrize("optimizer, lr", [("lbfgs", 0.5), ("lbfgs", 0.0), ("gd", 0.1)])
    def test_evaluations_count_every_loss_pass(self, optimizer, lr, monkeypatch):
        # descent makes one pass per epoch; L-BFGS one first pass and one per
        # line-search trial (a zero first step fails every trial)
        from bfae import model as bmodel

        calls, gradient_pass = [], bmodel._gradient_pass

        def counted(*args, **kwargs):
            calls.append(1)
            return gradient_pass(*args, **kwargs)

        monkeypatch.setattr(bmodel, "_gradient_pass", counted)
        x = np.random.default_rng(46).standard_normal((30, 2, 9))
        model = build(bottleneck_config(2, 9, 1, 4, lr=lr, epochs=30, optimizer=optimizer,
                                        seed=47))
        history = train(model, x)
        assert history.evaluations == len(calls)
        if optimizer == "gd":
            assert history.evaluations == 30
        elif lr == 0:
            assert history.evaluations == 1 + LINE_SEARCH_TRIALS
        else:
            assert len(history.losses) < history.evaluations

    @pytest.mark.parametrize("shape", [(1, 9, 1, 3, 12), (2, 9, 1, 4, 20), (2, 7, 2, 2, 30),
                                       (1, 25, 1, 5, 80)])
    def test_linear_two_layer_model_reaches_the_rank_floor(self, shape):
        # every minimum of a linear autoencoder is the weighted-PCA floor; the
        # fit stops early, once no trial step lowers the loss
        r, m, latent_features, latent_points, n = shape
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, r, m)) + rng.standard_normal((r, m))
        model = build(bottleneck_config(r, m, latent_features, latent_points, hidden="linear",
                                        lr=1.0, epochs=3000, optimizer="lbfgs", seed=n))
        history = train(model, x)
        floor = rank_floor(x, model.data_grid.quad_weights, latent_features * latent_points)
        loss = reconstruction_loss(x, model.reconstruct(x), model.data_grid)
        assert loss == pytest.approx(floor, rel=1e-6)
        assert len(history.losses) == model.trained_epochs + 1 < 3000

    def test_reruns_are_byte_identical(self):
        x = np.random.default_rng(31).standard_normal((30, 2, 9))
        config = bottleneck_config(2, 9, 1, 4, lr=0.5, epochs=60, optimizer="lbfgs", seed=32)
        fits = []
        for _ in range(2):
            model = build(config)
            history = train(model, x)
            fits.append((history.losses.tobytes(), [lay.params.tobytes() for lay in model.layers]))
        assert fits[0] == fits[1]
        assert model.trained_epochs == 60

    def test_an_interrupt_in_the_line_search_leaves_the_last_accepted_iterate(self, monkeypatch):
        from bfae import model as bmodel

        x = np.random.default_rng(33).standard_normal((30, 2, 9))
        config = bottleneck_config(2, 9, 1, 4, lr=0.5, epochs=60, optimizer="lbfgs", seed=34)
        model = build(config)
        calls, trial, forward = [], [], bmodel.layer_forward

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 12:  # the decoder's forward call of the 6th evaluation
                trial.extend(lay.params.copy() for lay in model.layers)
                raise KeyboardInterrupt
            return forward(*args, **kwargs)

        monkeypatch.setattr(bmodel, "layer_forward", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train(model, x)
        monkeypatch.undo()
        accepted = build(replace(config, epochs=model.trained_epochs))
        train(accepted, x)
        assert 1 <= model.trained_epochs <= 4
        assert [lay.params.tobytes() for lay in model.layers] == [
            lay.params.tobytes() for lay in accepted.layers]
        assert any(not np.array_equal(t, lay.params) for t, lay in zip(trial, model.layers))

    def test_a_non_finite_first_loss_diverges(self):
        model = build(bottleneck_config(1, 9, 1, 3, epochs=5, optimizer="lbfgs", seed=35))
        before = [lay.params.tobytes() for lay in model.layers]
        x = 1e200 * np.random.default_rng(36).standard_normal((6, 1, 9))
        with pytest.raises(TrainingDiverged, match="initial loss inf is not finite"):
            train(model, x)
        assert [lay.params.tobytes() for lay in model.layers] == before

    @pytest.mark.parametrize("lr", [0.0, 1e300])
    def test_no_trial_that_lowers_the_loss_stops_the_fit(self, lr):
        # a zero first step never lowers the loss, and every halving of 1e300 overflows
        model = build(bottleneck_config(1, 9, 1, 3, lr=lr, epochs=5, optimizer="lbfgs", seed=37))
        before = [lay.params.tobytes() for lay in model.layers]
        x = np.random.default_rng(38).standard_normal((6, 1, 9))
        history = train(model, x)
        assert history.losses.tolist() == [model_gradients(model, x)[0]]
        assert model.trained_epochs == 0
        assert [lay.params.tobytes() for lay in model.layers] == before

    def test_zero_iterations_leave_the_parameters_alone(self):
        model = build(bottleneck_config(1, 9, 1, 3, epochs=0, optimizer="lbfgs", seed=39))
        before = [lay.params.tobytes() for lay in model.layers]
        history = train(model, np.random.default_rng(40).standard_normal((6, 1, 9)))
        assert history.losses.shape == (0,) and model.trained_epochs == 0
        assert history.evaluations == 0
        assert [lay.params.tobytes() for lay in model.layers] == before


def assert_layers_are_slices(model):
    """Every layer's ``params`` is the next slice of ``model.params``, its views
    read it, and writing ``model.params`` moves every layer."""
    start = model.params.__array_interface__["data"][0]
    offset = 0
    for layer in model.layers:
        assert layer.params.base is model.params
        assert layer.params.__array_interface__["data"][0] == start + 8 * offset
        for view in (layer.matrix, layer.bias, layer.weights, layer.biases):
            assert np.shares_memory(view, model.params)
        offset += layer.params.size
    assert offset == model.params.size
    before = model.params.copy()
    moved = [(layer.weights + 1.0, layer.biases + 1.0) for layer in model.layers]
    model.params += 1.0
    for layer, (weights, biases) in zip(model.layers, moved):
        np.testing.assert_array_equal(layer.weights, weights)
        np.testing.assert_array_equal(layer.biases, biases)
    model.params[...] = before


def owns_its_vector(layer) -> bool:
    return layer.params.base is None and layer.params.flags.owndata


class TestParameterLayout:
    @pytest.mark.parametrize("optimizer", ["gd", "lbfgs"])
    def test_built_and_trained_layers_are_slices_of_the_model_vector(self, optimizer):
        # 6 curves of 18 values: descent keeps the first layer dual and folds it
        model = build(bottleneck_config(2, 9, 1, 4, n_layers=3, lr=0.1, epochs=5,
                                        optimizer=optimizer, seed=48))
        assert_layers_are_slices(model)
        train(model, np.random.default_rng(49).standard_normal((6, 2, 9)))
        assert_layers_are_slices(model)

    def test_loaded_layers_are_slices_of_the_model_vector(self, tmp_path):
        golden = Path(__file__).parent / "data" / "model_v1_j3x8_j2x4.json"
        model = load_model(golden)
        assert_layers_are_slices(model)
        assert save_model(model, tmp_path / "again.json").read_bytes() == golden.read_bytes()

    def test_dense_ae_layers_are_slices_of_the_model_vector(self):
        data = np.random.default_rng(50).standard_normal((12, 6))
        assert_layers_are_slices(ae_fit(data, [6, 3, 6], lr=0.05, epochs=3, seed=51)[0])

    def test_a_hand_built_model_takes_its_layers_values(self):
        model = build(bottleneck_config(1, 8, 1, 4, seed=52))
        layers = [init_layer(lay.in_grid, lay.out_grid, lay.j_in, lay.j_out, lay.activation,
                             seed=53 + ell) for ell, lay in enumerate(model.layers)]
        values = [lay.params.copy() for lay in layers]
        hand_built = BFAEModel(layers, model.config)
        assert_layers_are_slices(hand_built)
        np.testing.assert_array_equal(hand_built.params, np.concatenate(values))

    def test_layers_outside_a_model_own_their_vectors(self):
        from bfae.evaluate import flm_classify_fit, fof_fit

        grid = make_uniform_grid(0, 1, 8)
        rng = np.random.default_rng(54)
        curves = rng.standard_normal((20, 1, 8))
        assert owns_its_vector(init_layer(grid, grid, 1, 2, "tanh"))
        assert owns_its_vector(fof_fit(curves, rng.standard_normal((20, 2, 8)), grid, grid))
        labels = rng.integers(0, 2, 20)
        assert owns_its_vector(flm_classify_fit(curves, labels, grid).layer)


def shipped_models():
    """A model of each shipped shape: every kind, plain and reduced latent."""
    from bfae.experiments import default_config
    from bfae.standins import DAY_NAMES

    for kind, r in (("sim1", None), ("sim10", None), ("phoneme", 1), ("adelaide", len(DAY_NAMES))):
        cfg = default_config(kind)
        r = cfg["sim"]["n_features"] if r is None else r
        for points in (cfg["bfae"]["latent_points"], cfg["bfae_reduced_points"]):
            config = bottleneck_config(r, cfg["sim"]["m_points"], cfg["bfae"]["latent_features"],
                                       points, seed=points)
            model = build(config)
            rng = np.random.default_rng(points)
            for layer in model.layers:
                layer.biases[...] = rng.normal(scale=0.1, size=layer.biases.shape)
            yield f"{kind}.{points}", model


def einsum_forward(layers, x):
    """Quadrature oracle: ``act(b + sum_jt w q x)`` layer by layer, by einsum."""
    h = x
    for layer in layers:
        pre = np.einsum("rjst,t,ijt->irs", layer.weights, layer.in_grid.quad_weights, h)
        h = layer.activation.apply(pre + layer.biases)
    return h


def batch_weighed(layers, x):
    """Each layer through ``layer_forward`` without a cache, which weighs the batch."""
    for layer in layers:
        x = layer_forward(layer, x)[0]
    return x


def relative(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


class TestForwardWeighing:
    """``encode``/``reconstruct`` weigh the kernel, not the batch, for a batch
    taller than a weighing layer's kernel, and otherwise the batch."""

    @staticmethod
    def dense_ae():
        from bfae.baselines import ae_fit

        data = np.random.default_rng(2).standard_normal((4, 12))
        return ae_fit(data, [12, 3, 12], epochs=0, seed=1)[0]

    @pytest.mark.parametrize("which", ["bfae", "ae"])
    @pytest.mark.parametrize("n", [1, 4, 12, 13, 200])
    def test_never_write_or_return_the_callers_array(self, which, n):
        # kernels of 4 and 24 rows (bfae) and of 3 and 12 (dense AE)
        if which == "bfae":
            model = build(bottleneck_config(2, 12, 1, 4, seed=7))
        else:
            model = self.dense_ae()
        x = np.random.default_rng(n).standard_normal((n, model.n_features, len(model.data_grid)))
        before = x.copy()
        x.flags.writeable = False
        for out in (model.encode(x), model.reconstruct(x)):
            assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)

    def test_shipped_shapes_match_the_batch_weighed_path_and_the_oracle(self):
        x_rng = np.random.default_rng(11)
        for name, model in shipped_models():
            x = x_rng.standard_normal((1024, model.n_features, len(model.data_grid)))
            assert 1024 > max(len(layer.bias) for layer in model.layers), name
            for layers, out in ((model.layers[: model.latent_index], model.encode(x)),
                                (model.layers, model.reconstruct(x))):
                assert relative(out, batch_weighed(layers, x)) <= 1e-13, name
                assert relative(out, einsum_forward(layers, x)) <= 1e-13, name

    def test_batches_no_taller_than_the_kernel_are_bit_for_bit_batch_weighed(self):
        for name, model in shipped_models():
            rows = len(model.layers[0].bias)
            x = np.random.default_rng(rows).standard_normal(
                (rows, model.n_features, len(model.data_grid)))
            encoder = model.layers[: model.latent_index]
            for n in {1, rows}:
                np.testing.assert_array_equal(model.encode(x[:n]), batch_weighed(encoder, x[:n]))
            # one row taller: the kernel is weighed, to rounding
            x = np.concatenate((x, x[:1]))
            assert relative(model.encode(x), batch_weighed(encoder, x)) <= 1e-13, name

    def test_tall_batch_reconstruct_holds_no_batch_sized_weighing_buffer(self):
        # phoneme-shaped: 1x150 curves through a 1x150 latent.  Each layer holds
        # its input and its output, both the size of the data, plus a 150x150
        # kernel (0.15 of the data); weighing the batch would add a third
        # (measured peaks: 2.20 data sizes, 3.06 when the batch is weighed)
        x = np.random.default_rng(21).standard_normal((1024, 1, 150))
        model = build(bottleneck_config(1, 150, 1, 150, seed=22))
        tracemalloc.start()
        try:
            model.reconstruct(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / x.nbytes <= 2.5


def nan_first_value(doc):
    values = np.frombuffer(base64.b64decode(doc["payload_b64"]), dtype="<f8").copy()
    values[0] = np.nan
    doc["payload_b64"] = base64.b64encode(values.tobytes()).decode("ascii")


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

    def test_lbfgs_model_round_trips_bitwise(self, tmp_path):
        cfg = bottleneck_config(2, 10, 1, 4, lr=0.5, epochs=40, optimizer="lbfgs", seed=41)
        model = build(cfg)
        x = np.random.default_rng(42).standard_normal((6, 2, 10))
        train(model, x)
        path = save_model(model, tmp_path / "model.json")
        assert json.loads(path.read_text())["config"]["optimizer"] == "lbfgs"
        loaded = load_model(path)
        np.testing.assert_array_equal(model.reconstruct(x), loaded.reconstruct(x))
        assert loaded.config == model.config
        assert loaded.trained_epochs == model.trained_epochs
        assert save_model(loaded, tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_a_gd_model_file_has_no_optimizer_key(self, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2, seed=43)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert "optimizer" not in doc["config"]
        doc["config"]["optimizer"] = "gd"  # written out, it reads the same
        path.write_text(json.dumps(doc))
        assert load_model(path).config.optimizer == "gd"

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

    def test_rejects_layer_shapes_that_differ_from_the_config(self, tmp_path):
        # 3x4 curves through a 1x4 latent, relabelled as a 2x4 latent: the
        # relabelled layers are consistent and the payload keeps its size
        model = build(bottleneck_config(3, 4, 1, 4, seed=3))
        path = save_model(model, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["layer_shapes"] = [{"weights": [2, 2, 4, 4], "biases": [2, 4]},
                               {"weights": [2, 1, 4, 4], "biases": [2, 4]}]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"m\.json: layer 0 shapes .* do not match its "
                                             r"config's .*'weights': \[1, 3, 4, 4\]"):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda config: config.pop("lr"), "config keys"),
        (lambda config: config.update(dropout=0.5), "config keys"),
        (lambda config: config.update(optimizer="adam"), r"m\.json: config: unknown optimizer"),
        # reserved in format 1 and always null: training is full batch
        (lambda config: config.update(batch_size=4), "batch_size must be null"),
    ], ids=["missing-lr", "unknown-key", "unknown-optimizer", "batch-size-set"])
    def test_rejects_config_keys_that_differ_from_the_fields(self, edit, match, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2, lr=0.5)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        edit(doc["config"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.pop("trained_epochs"), r"missing \['trained_epochs'\], unknown \[\]"),
        (lambda doc: doc.pop("layer_shapes"), r"missing \['layer_shapes'\]"),
        (lambda doc: doc.pop("payload_b64"), r"missing \['payload_b64'\]"),
        (lambda doc: doc.pop("dtype"), r"missing \['dtype'\]"),
        (lambda doc: doc.update(notes="x"), r"missing \[\], unknown \['notes'\]"),
        (lambda doc: doc.update(dtype="float32"), "dtype must be 'float64', got 'float32'"),
        (lambda doc: doc.update(trained_epochs="abc"), "trained_epochs .* got 'abc'"),
        (lambda doc: doc.update(trained_epochs=-3), "trained_epochs .* got -3"),
        (lambda doc: doc.update(trained_epochs=2.5), "trained_epochs .* got 2.5"),
        (lambda doc: doc.update(trained_epochs=True), "trained_epochs .* got True"),
    ], ids=["no-trained-epochs", "no-layer-shapes", "no-payload", "no-dtype", "unknown-key",
            "float32", "epochs-text", "epochs-negative", "epochs-fraction", "epochs-bool"])
    def test_rejects_top_level_keys_that_differ_from_format_1(self, edit, match, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"m\.json: .*" + match):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: [doc], "a model file holds a JSON object, got list"),
        (lambda doc: {**doc, "config": 5}, "config must be a JSON object, got int"),
        (lambda doc: {**doc, "layer_shapes": 3}, "layer_shapes must be a JSON array, got int"),
        (lambda doc: {**doc, "payload_b64": 5}, "payload_b64 must be a JSON string, got int"),
    ], ids=["list", "config-int", "layer-shapes-int", "payload-int"])
    def test_rejects_top_level_values_of_the_wrong_type(self, edit, match, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2)), tmp_path / "m.json")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=r"m\.json: " + match):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["config"].update(lr="abc"), "config: must be real number, not str"),
        (lambda doc: doc["config"].update(feature_counts=5),
         "config: 'int' object is not iterable"),
        (lambda doc: doc["config"].update(interval=[0, 1, 2]), "config: interval must be a pair"),
        (nan_first_value, "layer 0: layer parameters must be finite"),
    ], ids=["lr-text", "feature-counts-int", "interval-triple", "nan-payload"])
    def test_rejects_config_and_layer_values_naming_the_file(self, edit, match, tmp_path):
        path = save_model(build(bottleneck_config(1, 5, 1, 2)), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"m\.json: " + match):
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
