import numpy as np
import pytest

from bfae.grids import Grid, inner_product, make_uniform_grid
from bfae.layers import (
    Activation,
    ContinuousLayer,
    LayerCache,
    init_layer,
    layer_backward,
    layer_forward,
    sgd_step,
)


def brute_force_forward(layer, x):
    """Independent oracle: explicit quadruple loop over (i, r, s, j, t)."""
    n = x.shape[0]
    m_out, m_in = len(layer.out_grid), len(layer.in_grid)
    qw = layer.in_grid.quad_weights
    out = np.zeros((n, layer.j_out, m_out))
    for i in range(n):
        for r in range(layer.j_out):
            for s in range(m_out):
                acc = layer.biases[r, s]
                for j in range(layer.j_in):
                    for t in range(m_in):
                        acc += qw[t] * layer.weights[r, j, s, t] * x[i, j, t]
                out[i, r, s] = acc
    return layer.activation.apply(out)


def random_layer(j_in, j_out, m_in, m_out, kind, seed):
    rng = np.random.default_rng(seed)
    return ContinuousLayer(
        in_grid=make_uniform_grid(0, 1, m_in),
        out_grid=make_uniform_grid(0, 1, m_out),
        weights=rng.standard_normal((j_out, j_in, m_out, m_in)),
        biases=rng.standard_normal((j_out, m_out)),
        activation=Activation(kind),
    )


def derivative(act, z):
    """The activation's derivative at ``z``: its backward pass of a ones upstream."""
    return act.backward(np.ones_like(z), z, act.apply(z), np.empty_like(z))


class TestActivation:
    def test_kinds(self):
        z = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(Activation("linear").apply(z), z)
        np.testing.assert_array_equal(Activation("relu").apply(z), np.maximum(z, 0))
        np.testing.assert_allclose(Activation("tanh").apply(z), np.tanh(z))
        np.testing.assert_allclose(
            Activation("sigmoid").apply(z), 1 / (1 + np.exp(-z)), atol=1e-15
        )

    def test_relu_derivative_at_zero_is_zero(self):
        d = derivative(Activation("relu"), np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(d, [0.0, 0.0, 1.0])

    def test_derivatives_match_finite_differences(self):
        z = np.linspace(-4, 4, 201)
        h = 1e-6
        for kind in ("tanh", "sigmoid", "linear"):
            act = Activation(kind)
            fd = (act.apply(z + h) - act.apply(z - h)) / (2 * h)
            np.testing.assert_allclose(derivative(act, z), fd, atol=1e-9)

    def test_sigmoid_stable_for_large_inputs(self):
        s = Activation("sigmoid").apply(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Activation("softplus")


class TestLayerForward:
    def test_zero_parameters_give_zero_output(self):
        g = make_uniform_grid(0, 1, 9)
        layer = init_layer(g, g, 2, 3, "linear", scheme="zeros")
        out, _ = layer_forward(layer, np.random.default_rng(0).standard_normal((4, 2, 9)))
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_kernel_integrates_exactly(self):
        # w = c, x = 1 on [0,1]: integral is exactly c under the trapezoid rule
        g = make_uniform_grid(0, 1, 51)
        c = 0.731
        layer = ContinuousLayer(
            in_grid=g, out_grid=g,
            weights=np.full((1, 1, 51, 51), c),
            biases=np.zeros((1, 51)),
            activation=Activation("linear"),
        )
        out, _ = layer_forward(layer, np.ones((1, 1, 51)))
        np.testing.assert_allclose(out, c, atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "tanh", "sigmoid", "relu"])
    def test_matches_brute_force_oracle(self, kind):
        layer = random_layer(2, 3, 6, 5, kind, seed=12)
        x = np.random.default_rng(34).standard_normal((3, 2, 6))
        out, cache = layer_forward(layer, x)
        np.testing.assert_allclose(out, brute_force_forward(layer, x), atol=1e-10)
        np.testing.assert_array_equal(cache.input, x)

    def test_linear_in_input_for_linear_activation(self):
        layer = random_layer(2, 2, 7, 7, "linear", seed=2)
        layer.biases[:] = 0.0
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((2, 2, 7))
        x2 = rng.standard_normal((2, 2, 7))
        lhs, _ = layer_forward(layer, 2.0 * x1 - 0.5 * x2)
        a, _ = layer_forward(layer, x1)
        b, _ = layer_forward(layer, x2)
        np.testing.assert_allclose(lhs, 2.0 * a - 0.5 * b, atol=1e-12)

    def test_neuron_permutation_permutes_output(self):
        layer = random_layer(2, 3, 5, 5, "tanh", seed=8)
        x = np.random.default_rng(9).standard_normal((2, 2, 5))
        out, _ = layer_forward(layer, x)
        perm = [2, 0, 1]
        permuted = ContinuousLayer(
            in_grid=layer.in_grid, out_grid=layer.out_grid,
            weights=layer.weights[perm], biases=layer.biases[perm],
            activation=layer.activation,
        )
        out_p, _ = layer_forward(permuted, x)
        np.testing.assert_array_equal(out_p, out[:, perm, :])

    def test_shape_and_finite_validation(self):
        layer = random_layer(1, 1, 4, 4, "linear", seed=0)
        with pytest.raises(ValueError, match="shape"):
            layer_forward(layer, np.ones((2, 1, 5)))
        bad = np.ones((2, 1, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            layer_forward(layer, bad)


class TestLayerBackward:
    def test_linear_bias_gradient_is_upstream_sum(self):
        layer = random_layer(2, 2, 5, 6, "linear", seed=5)
        x = np.random.default_rng(6).standard_normal((4, 2, 5))
        _, cache = layer_forward(layer, x)
        upstream = np.random.default_rng(7).standard_normal((4, 2, 6))
        _, gb, _ = layer_backward(layer, cache, upstream)
        np.testing.assert_array_equal(gb, upstream.sum(axis=0))

    def test_zero_upstream_gives_zero_gradients(self):
        layer = random_layer(2, 2, 5, 5, "tanh", seed=1)
        x = np.random.default_rng(2).standard_normal((3, 2, 5))
        _, cache = layer_forward(layer, x)
        gw, gb, gx = layer_backward(layer, cache, np.zeros((3, 2, 5)))
        assert not gw.any() and not gb.any() and not gx.any()

    @pytest.mark.parametrize("kind", ["linear", "tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("unit_weights", [False, True])  # True: a dense AE layer
    def test_without_input_gradient_parameter_gradients_are_identical(self, kind, unit_weights):
        layer = random_layer(3, 2, 6, 5, kind, seed=23)
        if unit_weights:
            unit = Grid(points=np.linspace(0.0, 6.0, 6), quad_weights=np.ones(6))
            layer = ContinuousLayer(unit, layer.out_grid, layer.weights, layer.biases,
                                    layer.activation)
            assert layer.quad is None
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 3, 6))
        upstream = rng.standard_normal((4, 2, 5))
        gw, gb, gx = (g.copy() for g in layer_backward(layer, layer_forward(layer, x)[1], upstream))
        cache = layer_forward(layer, x)[1]
        gw_only, gb_only, gx_only = layer_backward(layer, cache, upstream, input_grad=False)
        assert gx_only is None and cache.grad_input is None
        assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()
        # the same cache can still give the input gradient later
        np.testing.assert_array_equal(layer_backward(layer, cache, upstream)[2], gx)

    @pytest.mark.parametrize("kind", ["linear", "tanh", "sigmoid"])
    def test_gradients_match_finite_differences(self, kind):
        layer = random_layer(2, 2, 7, 7, kind, seed=21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 2, 7))
        upstream = rng.standard_normal((3, 2, 7))

        def scalar_loss():
            out, _ = layer_forward(layer, x)
            return float((out * upstream).sum())

        _, cache = layer_forward(layer, x)
        gw, gb, gx = layer_backward(layer, cache, upstream)
        eps = 1e-6

        for idx in [(0, 1, 2, 3), (1, 0, 6, 0), (0, 0, 0, 6)]:
            orig = layer.weights[idx]
            layer.weights[idx] = orig + eps
            up = scalar_loss()
            layer.weights[idx] = orig - eps
            down = scalar_loss()
            layer.weights[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(gw[idx] - fd) / max(abs(fd), 1e-10) < 1e-5

        idx = (1, 4)
        orig = layer.biases[idx]
        layer.biases[idx] = orig + eps
        up = scalar_loss()
        layer.biases[idx] = orig - eps
        down = scalar_loss()
        layer.biases[idx] = orig
        fd = (up - down) / (2 * eps)
        assert abs(gb[idx] - fd) / max(abs(fd), 1e-10) < 1e-5

        for idx in [(0, 1, 3), (2, 0, 0)]:
            orig = x[idx]
            x[idx] = orig + eps
            up = scalar_loss()
            x[idx] = orig - eps
            down = scalar_loss()
            x[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(gx[idx] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_relu_gradient_away_from_kinks(self):
        layer = random_layer(1, 1, 5, 5, "relu", seed=31)
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 1, 5))
        _, cache = layer_forward(layer, x)
        # keep pre-activations away from 0 so finite differences are valid
        assert np.abs(cache.pre_activation).min() > 1e-3
        upstream = rng.standard_normal((2, 1, 5))
        gw, _, _ = layer_backward(layer, cache, upstream)
        eps = 1e-6
        idx = (0, 0, 2, 2)

        def scalar_loss():
            out, _ = layer_forward(layer, x)
            return float((out * upstream).sum())

        orig = layer.weights[idx]
        layer.weights[idx] = orig + eps
        up = scalar_loss()
        layer.weights[idx] = orig - eps
        down = scalar_loss()
        layer.weights[idx] = orig
        fd = (up - down) / (2 * eps)
        assert abs(gw[idx] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_adjoint_consistency_linear(self):
        # <L x, y>_out == <x, L* y>_in where L* is the operator behind grad_input
        layer = random_layer(1, 1, 9, 6, "linear", seed=41)
        layer.biases[:] = 0.0
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 1, 9))
        y = rng.standard_normal((1, 1, 6))
        out, cache = layer_forward(layer, x)
        lhs = inner_product(out[0, 0], y[0, 0], layer.out_grid)
        # upstream = qw_out * y makes grad_input the adjoint applied to y
        _, _, gx = layer_backward(layer, cache, y * layer.out_grid.quad_weights)
        # grad_input already carries qw_in: <x, L*y>_in = sum(x * gx)
        rhs = float((x[0, 0] * gx[0, 0]).sum())
        assert abs(lhs - rhs) < 1e-10

    def test_stale_cache_rejected(self):
        layer = random_layer(1, 1, 5, 5, "tanh", seed=50)
        other = random_layer(1, 1, 6, 6, "tanh", seed=51)
        x = np.zeros((2, 1, 6))
        _, cache = layer_forward(other, x)
        with pytest.raises(ValueError, match="stale cache"):
            layer_backward(layer, cache, np.zeros((2, 1, 5)))
        # a workspace belongs to the layer it was made for, even at equal shapes
        twin = ContinuousLayer(other.in_grid, other.out_grid, other.weights, other.biases,
                               other.activation)
        with pytest.raises(ValueError, match="stale cache"):
            layer_forward(twin, x, cache)
        with pytest.raises(ValueError, match="stale cache"):
            layer_backward(twin, cache, np.zeros((2, 1, 6)))


class TestParameterStorage:
    def test_caller_arrays_untouched_by_updates(self):
        g = make_uniform_grid(0, 1, 4)
        w = np.ones((2, 3, 4, 4))
        b = np.zeros((2, 4))
        layer = ContinuousLayer(g, g, w, b, Activation("tanh"))
        sgd_step(layer, (np.ones_like(w), np.ones_like(b)), lr=0.5)
        assert layer.weights[0, 0, 0, 0] == 0.5 and layer.biases[0, 0] == -0.5
        np.testing.assert_array_equal(w, 1.0)
        np.testing.assert_array_equal(b, 0.0)

    def test_weights_are_views_of_the_matrix(self):
        layer = random_layer(2, 3, 5, 4, "tanh", seed=70)
        # rows over (r, s), columns over (j, t)
        assert layer.matrix.shape == (3 * 4, 2 * 5) and layer.matrix.flags.c_contiguous
        assert layer.matrix[1 * 4 + 2, 1 * 5 + 3] == layer.weights[1, 1, 2, 3]
        layer.weights[2, 0, 3, 1] = 7.0
        layer.biases[1, 2] = -3.0
        assert layer.matrix[2 * 4 + 3, 0 * 5 + 1] == 7.0
        assert layer.bias[1 * 4 + 2] == -3.0

    def test_parameters_are_views_of_one_vector(self):
        layer = random_layer(2, 3, 5, 4, "tanh", seed=72)
        for view in (layer.matrix, layer.bias, layer.weights, layer.biases):
            assert np.shares_memory(view, layer.params)
        # the matrix rows, then the bias
        np.testing.assert_array_equal(layer.params[: layer.matrix.size], layer.matrix.ravel())
        np.testing.assert_array_equal(layer.params[layer.matrix.size :], layer.bias)
        assert layer.params.size == layer.weights.size + layer.biases.size

    def test_write_through_weights_changes_the_output(self):
        layer = random_layer(2, 1, 5, 3, "linear", seed=73)
        x = np.random.default_rng(74).standard_normal((2, 2, 5))
        before = layer_forward(layer, x)[0].copy()
        layer.weights[0, 1, 2, 4] += 1.0
        delta = layer_forward(layer, x)[0] - before
        qw = layer.in_grid.quad_weights
        np.testing.assert_allclose(delta[:, 0, 2], qw[4] * x[:, 1, 4], rtol=1e-12)
        delta[:, 0, 2] = 0.0
        np.testing.assert_allclose(delta, 0.0, atol=1e-15)

    def test_constructor_copies_the_callers_arrays(self):
        g = make_uniform_grid(0, 1, 3)
        w, b = np.ones((1, 2, 3, 3)), np.zeros((1, 3))
        layer = ContinuousLayer(g, g, w, b, Activation("linear"))
        w[...] = 5.0
        b[...] = 5.0
        assert not np.shares_memory(layer.params, w) and not np.shares_memory(layer.params, b)
        np.testing.assert_array_equal(layer.weights, 1.0)
        np.testing.assert_array_equal(layer.biases, 0.0)

    def test_gradients_are_views_of_one_vector(self):
        layer = random_layer(2, 3, 5, 4, "tanh", seed=75)
        rng = np.random.default_rng(76)
        _, cache = layer_forward(layer, rng.standard_normal((3, 2, 5)))
        gw, gb, _ = layer_backward(layer, cache, rng.standard_normal((3, 3, 4)))
        assert cache.grads.shape == layer.params.shape
        for view in (gw, gb, cache.grad_matrix):
            assert np.shares_memory(view, cache.grads)
        assert gw.shape == layer.weights.shape and gb.shape == layer.biases.shape

    def test_unit_quadrature_weights_are_skipped(self):
        from bfae.grids import Grid

        unit = Grid(points=np.linspace(0.0, 3.0, 3), quad_weights=np.ones(3))
        assert ContinuousLayer(unit, unit, np.ones((1, 2, 3, 3)), np.zeros((1, 3)),
                               Activation("linear")).quad is None
        layer = random_layer(2, 1, 5, 3, "linear", seed=71)
        np.testing.assert_array_equal(layer.quad, np.tile(layer.in_grid.quad_weights, 2))


class TestInitLayer:
    def test_deterministic(self):
        g = make_uniform_grid(0, 1, 8)
        a = init_layer(g, g, 2, 2, "tanh", seed=14)
        b = init_layer(g, g, 2, 2, "tanh", seed=14)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_biases_zero(self):
        g = make_uniform_grid(0, 1, 8)
        assert not init_layer(g, g, 3, 2, "relu", seed=0).biases.any()

    def test_output_scale_on_unit_variance_input(self):
        g = make_uniform_grid(0, 1, 51)
        layer = init_layer(g, g, 1, 1, "linear", seed=3)
        x = np.random.default_rng(4).standard_normal((200, 1, 51))
        out, _ = layer_forward(layer, x)
        assert 0.1 < out.std() < 10.0

    def test_unknown_scheme(self):
        g = make_uniform_grid(0, 1, 4)
        with pytest.raises(ValueError, match="scheme"):
            init_layer(g, g, 1, 1, "linear", scheme="orthogonal")


class TestSgdStep:
    def test_zero_lr_keeps_layer(self):
        layer = random_layer(1, 2, 4, 4, "tanh", seed=61)
        w0, b0 = layer.weights.copy(), layer.biases.copy()
        sgd_step(layer, (np.ones_like(w0), np.ones_like(b0)), lr=0.0)
        np.testing.assert_array_equal(layer.weights, w0)
        np.testing.assert_array_equal(layer.biases, b0)

    def test_zero_gradient_keeps_layer(self):
        layer = random_layer(1, 2, 4, 4, "tanh", seed=62)
        w0 = layer.weights.copy()
        sgd_step(layer, (np.zeros_like(layer.weights), np.zeros_like(layer.biases)), lr=0.3)
        np.testing.assert_array_equal(layer.weights, w0)

    def test_update_magnitude(self):
        g = make_uniform_grid(0, 1, 2)
        layer = ContinuousLayer(
            in_grid=g, out_grid=g,
            weights=np.ones((1, 1, 2, 2)),
            biases=np.zeros((1, 2)),
            activation=Activation("linear"),
        )
        grad_w = np.full((1, 1, 2, 2), 3.0)
        sgd_step(layer, (grad_w, np.zeros((1, 2))), lr=0.1)
        np.testing.assert_allclose(layer.weights, 1.0 - 0.3)

    def test_grads_left_unchanged(self):
        # with momentum the grads are the velocity buffers, so they must survive
        layer = random_layer(2, 3, 4, 5, "tanh", seed=65)
        rng = np.random.default_rng(66)
        grad_w, grad_b = rng.standard_normal((3, 2, 5, 4)), rng.standard_normal((3, 5))
        kept = grad_w.copy(), grad_b.copy()
        x = rng.standard_normal((2, 2, 4))
        _, cache = layer_forward(layer, x)
        layer_backward(layer, cache, rng.standard_normal((2, 3, 5)))
        for work in (None, cache):
            sgd_step(layer, (grad_w, grad_b), lr=0.7, cache=work)
            np.testing.assert_array_equal(grad_w, kept[0])
            np.testing.assert_array_equal(grad_b, kept[1])

    def test_vector_and_pair_steps_agree_bit_for_bit(self):
        rng = np.random.default_rng(67)
        pair, vector = (random_layer(2, 3, 4, 5, "tanh", seed=68) for _ in range(2))
        x, upstream = rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 3, 5))
        _, cache = layer_forward(vector, x)
        gw, gb, _ = layer_backward(vector, cache, upstream)
        sgd_step(pair, (gw.copy(), gb.copy()), lr=0.3)
        sgd_step(vector, cache.grads, lr=0.3, cache=cache)
        assert pair.params.tobytes() == vector.params.tobytes()

    def test_shape_mismatch(self):
        layer = random_layer(1, 1, 3, 3, "linear", seed=64)
        with pytest.raises(ValueError, match="shapes"):
            sgd_step(layer, (np.zeros((1, 1, 2, 3)), np.zeros((1, 3))), lr=0.1)
        with pytest.raises(ValueError, match="shapes"):
            sgd_step(layer, np.zeros(layer.params.size - 1), lr=0.1)
