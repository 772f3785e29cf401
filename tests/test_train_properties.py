"""Property tests: ``train`` and ``model_gradients`` equal the per-call
reference loop of ``test_train_reference`` bit for bit at random shapes,
activations, momenta and mini-batch sizes.

One case is compared to rounding instead: a one-sample batch through a layer
whose reference matrix ``_matrix(w)`` is a column-major view (one output
feature fed by a scalar latent, M'=1).  numpy multiplies a single row by
gemv, whose accumulation order follows the operand layout, so the
reference's column-major view and the engine's row-major matrix can round
differently in the last bit.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_train_reference import (  # noqa: E402
    _matrix,
    reference_params,
    reference_step,
    reference_train,
)

from bfae.model import (  # noqa: E402
    DIVERGENCE_FACTOR,
    bottleneck_config,
    build,
    model_gradients,
    train,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def assert_same(actual, expected, exact):
    if exact:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14)


def bit_for_bit(model, batch_sizes) -> bool:
    """False when a one-sample batch meets a column-major reference matrix."""
    # the reference keeps C-ordered copies of the surfaces
    column_major = any(not _matrix(lay.weights.copy()).flags.c_contiguous for lay in model.layers)
    return not (column_major and min(batch_sizes) == 1)


def batch_sizes(config, n):
    size = n if config.batch_size is None else min(config.batch_size, n)
    return [min(size, n - start) for start in range(0, n, size)]


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
        batch_size=draw(st.one_of(st.none(), st.integers(1, n + 1))),
        seed=draw(st.integers(0, 2**16)),
    )
    data = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, r, m))
    return config, data


@PROPERTY
@given(problems())
def test_train_matches_reference_loop(problem):
    config, x = problem
    model = build(config)
    params = reference_params(model)
    losses = reference_train(params, x, model.data_grid.quad_weights, config.lr, config.epochs,
                             config.momentum, config.batch_size)
    # train stops on divergence; the reference does not
    assume(np.all(np.isfinite(losses)) and np.all(losses <= DIVERGENCE_FACTOR * losses[0]))
    exact = bit_for_bit(model, batch_sizes(config, len(x)))
    history = train(model, x)
    assert_same(history.losses, losses, exact)
    for lay, (w, b, _, _) in zip(model.layers, params):
        assert_same(lay.weights, w, exact)
        assert_same(lay.biases, b, exact)


@PROPERTY
@given(problems())
def test_model_gradients_match_reference_pass(problem):
    config, x = problem
    model = build(config)
    ref_loss, ref_grads = reference_step(reference_params(model), x, model.data_grid.quad_weights)
    exact = bit_for_bit(model, [len(x)])
    loss, grads = model_gradients(model, x)
    assert_same(loss, ref_loss, exact)
    for (gw, gb), (rw, rb) in zip(grads, ref_grads):
        assert_same(gw, rw, exact)
        assert_same(gb, rb, exact)
