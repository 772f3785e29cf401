"""``train`` and ``model_gradients`` against per-call reference math, bit for bit.

The reference keeps each layer's parameters as 4-D surfaces, multiplies by
the quadrature weights in both passes (unit weights included), rebuilds the
weight matrix on every call, allocates every intermediate and updates each
layer right after its backward pass.  The training loop stores the
parameters as matrices and writes into preallocated buffers; the floating
point operations are the same, so the results must be identical.

A full-batch fit shorter than ``DUAL_BELOW`` times the data's row trains its
first layer in dual form; it equals the written-out dual loop
(:func:`reference_dual_train`) bit for bit, and the primal loop to
``DUAL_RTOL`` of the largest parameter of each layer.

L-BFGS keeps its pairs in compact form; it equals the written-out two-loop
recursion (:func:`reference_lbfgs`) to ``LBFGS_RTOL``.
"""

import numpy as np
import pytest

from bfae.baselines import ae_fit
from bfae.model import (
    ARMIJO_C1,
    CURVATURE_EPS,
    DUAL_BELOW,
    LBFGS_PAIRS,
    LINE_SEARCH_TRIALS,
    bottleneck_config,
    build,
    model_gradients,
    train,
)

# dual against primal parameters, relative to each array's largest value: the
# cases here and in test_train_properties differ by at most 3.2e-15 (measured)
DUAL_RTOL = 1e-12
# L-BFGS against the two-loop reference, relative to each array's largest value
LBFGS_RTOL = 1e-9


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
    residual = h - x
    upstream = (2.0 / x.shape[0]) * qw * residual
    # the engine's loss: half of <r, upstream>, i.e. sum(r * r * q) / n up to rounding
    loss = 0.5 * float(np.vdot(residual, upstream))
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, _, q, act = params[i]
        gw, gb, upstream = reference_backward(w, q, act, inputs[i], pres[i], upstream)
        grads[i] = (gw, gb)
        if update is not None:
            update(i, gw, gb)
    return loss, grads


def reference_update(params, lr, momentum):
    """``update(i, gw, gb)``: layer i's step, along its velocity with momentum."""
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _, _ in params]

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

    return update


def reference_train(params, x, qw, lr, epochs, momentum=0.0):
    update = reference_update(params, lr, momentum)
    return np.array([reference_step(params, x, qw, update)[0] for _ in range(epochs)])


def on_dual_side(n, row):
    """Whether ``train`` keeps the first layer of a fit on ``n`` curves of
    ``row`` values each in dual form."""
    return n < DUAL_BELOW * row


def reference_dual_train(params, x, qw, lr, epochs, momentum=0.0):
    """Full-batch descent with the first layer in dual form: it is
    ``W0 + C.T X``, ``b0 + C.sum(0)`` over the weighed data ``X``, so its
    pre-activation is ``(X X.T + 1) C + (X W0.T + b0)`` and its step is
    ``C -= lr * delta``; ``C`` goes into its parameters after the last epoch.
    The other layers are those of :func:`reference_train`."""
    n = x.shape[0]
    w0, b0, q0, act0 = params[0]
    xw = (x * q0).reshape(n, -1)
    gram = xw @ xw.T + 1.0
    base = xw @ _matrix(w0).T + b0.ravel()
    coef, velocity = np.zeros_like(base), np.zeros_like(base)
    update = reference_update(params, lr, momentum)
    losses = []
    for _ in range(epochs):
        pre0 = (gram @ coef + base).reshape(n, *b0.shape)
        inputs, pres, h = [], [], act0.apply(pre0)
        for w, b, q, act in params[1:]:
            inputs.append(h)
            h, pre = reference_forward(w, b, q, act, h)
            pres.append(pre)
        residual = h - x
        upstream = (2.0 / n) * qw * residual
        losses.append(0.5 * float(np.vdot(residual, upstream)))
        for i in range(len(params) - 1, 0, -1):
            w, _, q, act = params[i]
            gw, gb, upstream = reference_backward(w, q, act, inputs[i - 1], pres[i - 1], upstream)
            update(i, gw, gb)
        delta = (upstream * reference_derivative(act0, pre0)).reshape(n, -1)
        if momentum > 0:
            velocity *= momentum
            velocity += delta
            delta = velocity
        coef -= lr * delta
    if epochs:
        j_out, j_in, m_out, m_in = w0.shape
        matrix = _matrix(w0) + coef.T @ xw
        w0[...] = matrix.reshape(j_out, m_out, j_in, m_in).transpose(0, 2, 1, 3)
        b0 += coef.sum(axis=0).reshape(b0.shape)
    return np.array(losses)


def two_loop_direction(pairs, g):
    """``-H g`` by the two-loop recursion (Nocedal & Wright, Alg. 7.4) over the
    ``(s, y)`` pairs, oldest first, with ``H0 = (s.y / y.y) I`` of the newest."""
    q, coefficients = g.copy(), []
    for s, y in reversed(pairs):
        rho = 1.0 / (y @ s)
        alpha = rho * (s @ q)
        q -= alpha * y
        coefficients.append((rho, alpha))
    s, y = pairs[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), (rho, alpha) in zip(pairs, reversed(coefficients)):
        r += s * (alpha - rho * (y @ r))
    return -r


def reference_lbfgs(params, x, qw, lr, iterations):
    """L-BFGS over ``params`` by :func:`reference_step` and the two-loop
    recursion over the last ``LBFGS_PAIRS`` kept pairs: Armijo backtracking by
    halving from ``lr`` while no pair is kept and from 1 after, a pair kept
    only if ``s.y > CURVATURE_EPS * y.y``.  Returns ``(losses, kept)``, the loss
    at each iteration's start and the number of pairs kept; ``params`` ends
    at the last accepted point."""
    arrays = [a for w, b, _, _ in params for a in (w, b)]

    def evaluate(at):
        offset = 0
        for a in arrays:
            a[...] = at[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        loss, grads = reference_step(params, x, qw)
        return loss, np.concatenate([g.ravel() for pair in grads for g in pair])

    point = np.concatenate([a.ravel() for a in arrays])
    (loss, grad), pairs, losses = evaluate(point), [], []
    for _ in range(iterations):
        losses.append(loss)
        direction = two_loop_direction(pairs[-LBFGS_PAIRS:], grad) if pairs else -grad
        slope = grad @ direction
        if not slope < 0:
            break
        step = 1.0 if pairs else lr
        for _ in range(LINE_SEARCH_TRIALS):
            trial = point + step * direction
            trial_loss, trial_grad = evaluate(trial)
            if trial_loss < loss and trial_loss <= loss + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = trial - point, trial_grad - grad
        if s @ y > CURVATURE_EPS * (y @ y):
            pairs.append((s, y))
        point, loss, grad = trial, trial_loss, trial_grad
    evaluate(point)
    return np.array(losses), len(pairs)


def reference_fits(model, x, lr, epochs, momentum=0.0):
    """``((losses, params), (primal_losses, primal_params))`` from ``model``'s
    parameters: the reference loop of the side ``train`` takes, and the primal
    loop (the same loop on the primal side)."""
    qw = model.data_grid.quad_weights
    primal = reference_params(model)
    primal_fit = reference_train(primal, x, qw, lr, epochs, momentum), primal
    if not on_dual_side(x.shape[0], x[0].size):
        return primal_fit, primal_fit
    dual = reference_params(model)
    return (reference_dual_train(dual, x, qw, lr, epochs, momentum), dual), primal_fit


def assert_same_parameters(model, params):
    for lay, (w, b, _, _) in zip(model.layers, params):
        np.testing.assert_array_equal(lay.weights, w)
        np.testing.assert_array_equal(lay.biases, b)


def assert_near(got, want):
    """Within ``DUAL_RTOL`` of ``want``'s largest value."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=DUAL_RTOL * np.abs(want).max())


def assert_near_primal(model, losses, primal_fit):
    primal_losses, primal = primal_fit
    assert_near(losses, primal_losses)
    for lay, (w, b, _, _) in zip(model.layers, primal):
        assert_near(lay.weights, w)
        assert_near(lay.biases, b)


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
    "one_latent_feature": ((11, 2, 6), dict(latent_features=1, latent_points=3, lr=0.5,
                                            epochs=30)),
    # rows of 2 x 70 curve values: the quadrature multipliers are broadcast rows, not tiles
    "long_rows": ((6, 2, 70), dict(latent_features=2, latent_points=70, lr=0.02, epochs=10)),
    # full batches of at least DUAL_BELOW rows' length: the first layer stays primal
    "primal_full_batch": ((20, 2, 5), dict(latent_features=2, latent_points=3, n_layers=3,
                                           lr=0.3, epochs=40)),
    "primal_momentum": ((30, 1, 9), dict(latent_features=2, latent_points=4, hidden="relu",
                                         lr=0.2, momentum=0.9, epochs=40)),
    "primal_deep_sigmoid_momentum": ((24, 2, 6), dict(latent_features=2, latent_points=3,
                                                      n_layers=3, hidden="sigmoid", lr=0.5,
                                                      momentum=0.5, epochs=30)),
    "primal_sigmoid_long_rows": ((300, 1, 140), dict(latent_features=1, latent_points=3,
                                                     hidden="sigmoid", lr=0.02, epochs=5)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_matches_reference_loop(case):
    (n, r, m), kwargs = CASES[case]
    cfg = bottleneck_config(r, m, seed=7, **kwargs)
    model = build(cfg)
    x = np.random.default_rng(8).standard_normal((n, r, m))
    (losses, params), primal = reference_fits(model, x, cfg.lr, cfg.epochs, cfg.momentum)
    history = train(model, x)
    np.testing.assert_array_equal(history.losses, losses)
    assert_same_parameters(model, params)
    assert_near_primal(model, history.losses, primal)


def test_full_batch_cases_cover_both_sides():
    assert {on_dual_side(n, r * m) for (n, r, m), _ in CASES.values()} == {True, False}


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
    # 12 curves: the 6-wide AE is primal (12 = 2 * 6), the 8-wide one dual
    data = np.random.default_rng(11).standard_normal((12, widths[0]))
    start, _ = ae_fit(data, widths, lr=0.05, epochs=0, seed=12)
    (losses, params), primal = reference_fits(start, data[:, :, None], 0.05, 50)
    model, history = ae_fit(data, widths, lr=0.05, epochs=50, seed=12)
    np.testing.assert_array_equal(history.losses, losses)
    assert_same_parameters(model, params)
    assert_near_primal(model, history.losses, primal)


@pytest.mark.parametrize("shape", [(2, 9, 1, 4, 30), (1, 25, 2, 5, 40)])
def test_lbfgs_matches_the_two_loop_reference_loop(shape):
    # 40 iterations keep more than LBFGS_PAIRS pairs: the ring wraps
    r, m, latent_features, latent_points, n = shape
    config = bottleneck_config(r, m, latent_features, latent_points, lr=0.5, epochs=40,
                               optimizer="lbfgs", seed=n)
    model = build(config)
    x = np.random.default_rng(n).standard_normal((n, r, m))
    params = reference_params(model)
    losses, kept = reference_lbfgs(params, x, model.data_grid.quad_weights, config.lr, 40)
    history = train(model, x)
    assert len(losses) == len(history.losses) == model.trained_epochs == 40
    assert kept > LBFGS_PAIRS
    np.testing.assert_allclose(history.losses, losses, rtol=LBFGS_RTOL, atol=0.0)
    for lay, (w, b, _, _) in zip(model.layers, params):
        for got, want in ((lay.weights, w), (lay.biases, b)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=LBFGS_RTOL * np.abs(want).max())
