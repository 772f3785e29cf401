"""Property tests: ``train`` and ``model_gradients`` equal the per-call
reference loop of ``test_train_reference`` bit for bit at random shapes,
activations and momenta (the dual loop where ``train`` keeps the first layer
in dual form, and the primal loop within ``DUAL_RTOL`` there), and their
losses equal ``reconstruction_loss`` to rounding and each other bit for bit;
the L-BFGS loss falls at every accepted iterate;
``ae_fit`` equals the plain matrix algebra of
``test_baselines.dense_reference`` at random widths and hidden activations;
and no 2-layer model reconstructs below the weighted-PCA rank floor.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import rank_floor  # noqa: E402
from test_baselines import dense_reference  # noqa: E402
from test_train_reference import (  # noqa: E402
    assert_near,
    assert_near_primal,
    assert_same_parameters,
    on_dual_side,
    reference_fits,
    reference_params,
    reference_step,
)

from bfae.baselines import ae_fit, ae_reconstruct  # noqa: E402
from bfae.layers import ACTIVATION_KINDS  # noqa: E402
from bfae.model import (  # noqa: E402
    DIVERGENCE_FACTOR,
    TrainingDiverged,
    bottleneck_config,
    build,
    model_gradients,
    reconstruction_loss,
    train,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@st.composite
def problems(draw):
    """``(config, data)``: a bottleneck model and data it fits."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, 9))
    config = bottleneck_config(
        r, m,
        latent_features=draw(st.integers(1, 3)),
        latent_points=draw(st.integers(1, 6)),  # 1: the scalar latent
        n_layers=draw(st.integers(2, 3)),
        hidden=draw(st.sampled_from(["relu", "sigmoid", "tanh"])),
        lr=draw(st.floats(0.01, 0.5)),
        epochs=draw(st.integers(1, 6)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        seed=draw(st.integers(0, 2**16)),
    )
    data = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, r, m))
    return config, data


@PROPERTY
@given(problems())
def test_train_matches_reference_loop(problem):
    config, x = problem
    model = build(config)
    (losses, params), primal = reference_fits(model, x, config.lr, config.epochs,
                                              config.momentum)
    # train stops on divergence; the reference does not
    assume(np.all(np.isfinite(losses)) and np.all(losses <= DIVERGENCE_FACTOR * losses[0]))
    history = train(model, x)
    np.testing.assert_array_equal(history.losses, losses)
    assert_same_parameters(model, params)
    assert_near_primal(model, history.losses, primal)


@PROPERTY
@given(problems())
def test_model_gradients_match_reference_pass(problem):
    config, x = problem
    model = build(config)
    ref_loss, ref_grads = reference_step(reference_params(model), x, model.data_grid.quad_weights)
    loss, grads = model_gradients(model, x)
    assert loss == ref_loss
    for (gw, gb), (rw, rb) in zip(grads, ref_grads):
        np.testing.assert_array_equal(gw, rw)
        np.testing.assert_array_equal(gb, rb)


@PROPERTY
@given(problems(), st.integers(-6, 6))
# n = 3: a loss multiplied and divided by n would move in its last bit here
@example((bottleneck_config(2, 5, 1, 3, epochs=1, seed=5),
          np.random.default_rng(5).standard_normal((3, 2, 5))), 0)
def test_losses_equal_reconstruction_loss(problem, decade):
    # the engine takes the loss from the gradient's residual, in another order of sums
    config, x = problem
    x = x * 10.0**decade
    model = build(replace(config, epochs=1))
    expected = reconstruction_loss(x, model.reconstruct(x), model.data_grid)
    loss, _ = model_gradients(model, x)
    first = train(model, x).losses[0]
    assert loss == pytest.approx(expected, rel=1e-13, abs=0.0)
    # an epoch records its pass's loss as is
    assert first == loss


@PROPERTY
@given(problems(), st.integers(0, 40))
def test_lbfgs_loss_falls_at_every_accepted_iterate(problem, iterations):
    config, x = problem
    model = build(replace(config, momentum=0.0, optimizer="lbfgs", epochs=iterations))
    losses = train(model, x).losses
    # one loss per iteration begun; an early stop records the loss it could not lower
    stopped = len(losses) == model.trained_epochs + 1
    assert stopped or len(losses) == model.trained_epochs == iterations
    assert np.all(np.diff(losses) < 0)
    if len(losses):
        # the same pass at the point training left: the stopped iteration's start,
        # or below the last one begun
        final = model_gradients(model, x)[0]
        assert final == losses[-1] if stopped else final < losses[-1]


@st.composite
def dense_problems(draw):
    """``(data, widths, activations, lr, epochs, seed)`` for ``ae_fit``."""
    d = draw(st.integers(1, 6))
    n_layers = draw(st.integers(2, 4))
    widths = [d] + [draw(st.integers(1, 6)) for _ in range(n_layers - 1)] + [d]
    activations = [draw(st.sampled_from(ACTIVATION_KINDS)) for _ in range(n_layers - 1)]
    activations.append("linear")
    n = draw(st.integers(1, 10))
    data = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, d))
    return (data, widths, activations, draw(st.floats(0.001, 0.1)), draw(st.integers(1, 15)),
            draw(st.integers(0, 2**16)))


@PROPERTY
@given(dense_problems())
def test_ae_fit_matches_dense_reference(problem):
    data, widths, activations, lr, epochs, seed = problem
    dual = on_dual_side(*data.shape)
    params, losses, forward = dense_reference(data, widths, activations, lr, epochs, seed, dual)
    # ae_fit stops on divergence; the reference does not
    assume(np.all(np.isfinite(losses)) and np.all(losses <= DIVERGENCE_FACTOR * losses[0]))
    model, history = ae_fit(data, widths, activations, lr=lr, epochs=epochs, seed=seed)
    for layer, (w, b) in zip(model.layers, params):
        np.testing.assert_array_equal(layer.matrix, w)
        np.testing.assert_array_equal(layer.bias, b)
    np.testing.assert_array_equal(ae_reconstruct(model, data), forward(data))
    np.testing.assert_allclose(history.losses, losses, rtol=1e-12, atol=0.0)
    if dual:
        for layer, (w, b) in zip(model.layers, dense_reference(data, widths, activations, lr,
                                                               epochs, seed)[0]):
            assert_near(layer.matrix, w)
            assert_near(layer.bias, b)


@st.composite
def two_layer_problems(draw):
    """``(config, data)``: a 2-layer model at any hidden activation, and its data."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(2, 9))
    config = bottleneck_config(
        r, m,
        latent_features=draw(st.integers(1, 2)),
        latent_points=draw(st.integers(1, 4)),
        hidden=draw(st.sampled_from(ACTIVATION_KINDS)),
        lr=draw(st.floats(0.01, 1.0)),
        epochs=draw(st.integers(0, 30)),
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.standard_normal((draw(st.integers(2, 12)), r, m)) + rng.standard_normal((r, m))
    return config, data


@PROPERTY
@given(two_layer_problems())
def test_two_layer_loss_never_goes_below_the_rank_floor(problem):
    # a linear output layer puts every reconstruction in an affine space of
    # dimension J'*M', the latent's size, whatever the hidden activation
    config, x = problem
    model = build(config)
    try:
        train(model, x)
    except TrainingDiverged:
        assume(False)
    floor = rank_floor(x, model.data_grid.quad_weights, math.prod(config.latent_shape))
    loss = reconstruction_loss(x, model.reconstruct(x), model.data_grid)
    assert loss >= floor * (1 - 1e-10)
