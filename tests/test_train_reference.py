"""``train`` and ``model_gradients`` against per-call reference math, bit for bit.

The reference keeps each layer's parameters as 4-D surfaces, multiplies by
the quadrature weights in both passes (unit weights included), rebuilds the
weight matrix on every call, allocates every intermediate and updates each
layer right after its backward pass.  The training loop stores the
parameters as matrices and writes into preallocated buffers; the floating
point operations are the same, so the results must be identical.
"""

import numpy as np
import pytest

from bfae.baselines import ae_fit
from bfae.model import bottleneck_config, build, model_gradients, train


def _matrix(w):
    # C order as in the engine: numpy's single-row products sum in an order
    # that follows the operand layout
    j_out, j_in, m_out, m_in = w.shape
    return np.ascontiguousarray(w.transpose(0, 2, 1, 3).reshape(j_out * m_out, j_in * m_in))


def reference_forward(w, b, qw, act, x):
    n = x.shape[0]
    j_out, _, m_out, _ = w.shape
    xw = (x * qw).reshape(n, -1)
    pre = (xw @ _matrix(w).T).reshape(n, j_out, m_out) + b
    return act.apply(pre), pre


def reference_derivative(act, z):
    if act.kind == "relu":
        return np.where(z > 0, 1.0, 0.0)
    if act.kind in ("tanh", "sigmoid"):
        s = act.apply(z)
        return 1.0 - s * s if act.kind == "tanh" else s * (1.0 - s)
    return np.ones_like(z)


def reference_backward(w, qw, act, x, pre, upstream):
    n = x.shape[0]
    j_out, j_in, m_out, m_in = w.shape
    delta = upstream * reference_derivative(act, pre)
    grad_b = delta.sum(axis=0)
    delta_flat = delta.reshape(n, -1)
    xw = (x * qw).reshape(n, -1)
    grad_w = (
        (delta_flat.T @ xw).reshape(j_out, m_out, j_in, m_in).transpose(0, 2, 1, 3).copy()
    )
    grad_x = (delta_flat @ _matrix(w)).reshape(n, j_in, m_in)
    grad_x *= qw
    return grad_w, grad_b, grad_x


def reference_params(model):
    return [
        [lay.weights.copy(), lay.biases.copy(), lay.in_grid.quad_weights, lay.activation]
        for lay in model.layers
    ]


def reference_step(params, x, qw, update=None):
    """One forward/backward pass; ``update(i, gw, gb)`` runs right after layer i's backward."""
    inputs, pres, h = [], [], x
    for w, b, q, act in params:
        inputs.append(h)
        h, pre = reference_forward(w, b, q, act, h)
        pres.append(pre)
    d = x - h
    loss = float(((d * d) @ qw).sum(axis=1).mean())
    upstream = (2.0 / x.shape[0]) * qw * (h - x)
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, _, q, act = params[i]
        gw, gb, upstream = reference_backward(w, q, act, inputs[i], pres[i], upstream)
        grads[i] = (gw, gb)
        if update is not None:
            update(i, gw, gb)
    return loss, grads


def reference_train(params, x, qw, lr, epochs, momentum=0.0, batch_size=None):
    n = x.shape[0]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _, _ in params]
    if batch_size is None or batch_size >= n:
        batches = [slice(0, n)]
    else:
        batches = [slice(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]

    def update(i, gw, gb):
        if momentum > 0:
            vw, vb = velocity[i]
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            gw, gb = vw, vb
        params[i][0] -= lr * gw
        params[i][1] -= lr * gb

    losses = []
    for _ in range(epochs):
        total = 0.0
        for sl in batches:
            total += reference_step(params, x[sl], qw, update)[0] * x[sl].shape[0]
        losses.append(total / n)
    return np.array(losses)


def assert_same_parameters(model, params):
    for lay, (w, b, _, _) in zip(model.layers, params):
        np.testing.assert_array_equal(lay.weights, w)
        np.testing.assert_array_equal(lay.biases, b)


CASES = {
    # (data shape (n, R, M), config keywords)
    "multi_feature": ((10, 3, 9), dict(latent_features=2, latent_points=4, n_layers=3,
                                       lr=0.3, epochs=40)),
    "scalar_latent": ((9, 2, 8), dict(latent_features=2, latent_points=1, lr=0.5, epochs=40)),
    "sigmoid_hidden": ((8, 2, 7), dict(latent_features=2, latent_points=3, hidden="sigmoid",
                                       lr=1.0, epochs=40)),
    "relu_hidden": ((8, 2, 7), dict(latent_features=3, latent_points=5, n_layers=3,
                                    hidden="relu", lr=0.3, epochs=40)),
    "momentum": ((8, 2, 9), dict(latent_features=1, latent_points=4, lr=0.2, momentum=0.9,
                                 epochs=60)),
    "ragged_minibatches": ((11, 2, 6), dict(latent_features=1, latent_points=3, lr=0.5,
                                            batch_size=4, epochs=30)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_matches_reference_loop(case):
    (n, r, m), kwargs = CASES[case]
    cfg = bottleneck_config(r, m, seed=7, **kwargs)
    model = build(cfg)
    x = np.random.default_rng(8).standard_normal((n, r, m))
    params = reference_params(model)
    losses = reference_train(params, x, model.data_grid.quad_weights, cfg.lr, cfg.epochs,
                             cfg.momentum, cfg.batch_size)
    history = train(model, x)
    np.testing.assert_array_equal(history.losses, losses)
    assert_same_parameters(model, params)


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_gradients_match_reference_pass(case):
    (n, r, m), kwargs = CASES[case]
    model = build(bottleneck_config(r, m, seed=9, **kwargs))
    x = np.random.default_rng(10).standard_normal((n, r, m))
    ref_loss, ref_grads = reference_step(reference_params(model), x, model.data_grid.quad_weights)
    loss, grads = model_gradients(model, x)
    assert loss == ref_loss
    for (gw, gb), (rw, rb) in zip(grads, ref_grads):
        np.testing.assert_array_equal(gw, rw)
        np.testing.assert_array_equal(gb, rb)


@pytest.mark.parametrize("widths", [[6, 3, 6], [8, 4, 3, 8]])
def test_unit_weight_ae_matches_reference_loop(widths):
    data = np.random.default_rng(11).standard_normal((12, widths[0]))
    start, _ = ae_fit(data, widths, lr=0.05, epochs=0, seed=12)
    params = reference_params(start)
    losses = reference_train(params, data[:, None, :], start.data_grid.quad_weights, 0.05, 50)
    model, history = ae_fit(data, widths, lr=0.05, epochs=50, seed=12)
    np.testing.assert_array_equal(history.losses, losses)
    assert_same_parameters(model, params)
