import numpy as np
import pytest

import oracles


def test_trapezoid_weights_uniform_grid():
    w = oracles.trapezoid_weights(np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125], rtol=0, atol=1e-17)


def test_trapezoid_weights_integrate_linear_functions_exactly():
    t = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    w = oracles.trapezoid_weights(t)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert w @ (3.0 * t - 1.0) == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_weights_reject_bad_points():
    with pytest.raises(ValueError):
        oracles.trapezoid_weights([0.0])
    with pytest.raises(ValueError):
        oracles.trapezoid_weights([0.0, 0.5, 0.5])


def test_uniform_weights_single_point_is_interval_length():
    np.testing.assert_array_equal(oracles.uniform_weights(0.0, 2.0, 1), [2.0])


def test_integral_forward_matches_explicit_loops():
    rng = np.random.default_rng(0)
    n, j_in, m_in, j_out, m_out = 3, 2, 4, 3, 5
    w = rng.normal(size=(j_out, j_in, m_out, m_in))
    b = rng.normal(size=(j_out, m_out))
    q = oracles.uniform_weights(0.0, 1.0, m_in)
    x = rng.normal(size=(n, j_in, m_in))
    expected = np.empty((n, j_out, m_out))
    for i in range(n):
        for r in range(j_out):
            for s in range(m_out):
                total = b[r, s]
                for j in range(j_in):
                    for t in range(m_in):
                        total += w[r, j, s, t] * q[t] * x[i, j, t]
                expected[i, r, s] = np.tanh(total)
    got = oracles.integral_forward(x, [(w, b, q, "tanh")])
    assert oracles.max_relative_error(got, expected) <= 1e-14


def test_functional_rmse_and_mean_curve():
    q = oracles.uniform_weights(0.0, 1.0, 3)  # 0.25, 0.5, 0.25
    truth = np.zeros((2, 1, 3))
    est = np.ones((2, 1, 3))
    assert oracles.functional_rmse(truth, est, q) == pytest.approx(1.0)
    train = np.array([[[1.0, 1.0, 1.0]], [[3.0, 3.0, 3.0]]])  # mean curve is 2
    test = np.array([[[2.0, 2.0, 2.0]], [[4.0, 4.0, 4.0]]])
    # errors 0 and 2 over a unit interval: sqrt((0 + 4) / 2)
    assert oracles.mean_curve_rmse(train, test, q) == pytest.approx(np.sqrt(2.0))


def test_max_relative_error_uses_one_scale():
    assert oracles.max_relative_error([1.0, 2.0], [1.0, 4.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        oracles.max_relative_error([1.0], [1.0, 2.0])
