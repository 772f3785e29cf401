import numpy as np
import pytest

from bfae.grids import Grid, inner_product, integrate, linear_resample, make_uniform_grid


class TestMakeUniformGrid:
    def test_three_points(self):
        g = make_uniform_grid(0, 1, 3)
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(g.quad_weights, [0.25, 0.5, 0.25])

    def test_two_points(self):
        g = make_uniform_grid(0, 1, 2)
        np.testing.assert_allclose(g.points, [0.0, 1.0])
        np.testing.assert_allclose(g.quad_weights, [0.5, 0.5])

    def test_weight_sum_is_interval_length(self):
        g = make_uniform_grid(0, 1, 50)
        assert len(g) == 50
        assert abs(g.quad_weights.sum() - 1.0) < 1e-12
        g2 = make_uniform_grid(-2.0, 3.5, 17)
        assert abs(g2.quad_weights.sum() - 5.5) < 1e-12

    def test_uniform_interior_weights(self):
        g = make_uniform_grid(0, 1, 11)
        h = 0.1
        np.testing.assert_allclose(g.quad_weights[1:-1], h)
        np.testing.assert_allclose(g.quad_weights[[0, -1]], h / 2)

    def test_invalid_interval(self):
        with pytest.raises(ValueError, match="invalid interval"):
            make_uniform_grid(1, 1, 5)
        with pytest.raises(ValueError, match="invalid interval"):
            make_uniform_grid(2, 1, 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="too few points"):
            make_uniform_grid(0, 1, 1)


class TestGridValidation:
    def test_non_increasing_points_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(points=np.array([0.0, 0.5, 0.5, 1.0]))

    def test_bad_custom_weights_rejected(self):
        pts = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="positive"):
            Grid(points=pts, quad_weights=np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError, match="sum"):
            Grid(points=pts, quad_weights=np.array([1.0, 1.0, 1.0]))

    def test_points_whose_weights_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            Grid(points=np.array([0.0, 5e-324]))

    def test_nonuniform_weights(self):
        g = Grid(points=np.array([0.0, 0.1, 0.4, 1.0]))
        np.testing.assert_allclose(g.quad_weights, [0.05, 0.2, 0.45, 0.3])
        assert abs(g.quad_weights.sum() - 1.0) < 1e-12

    def test_arrays_are_read_only(self):
        g = make_uniform_grid(0, 1, 5)
        with pytest.raises(ValueError):
            g.points[0] = 3.0

    def test_caller_arrays_stay_writeable(self):
        points, weights = np.array([0.0, 0.25, 1.0]), np.array([0.125, 0.5, 0.375])
        g = Grid(points=points, quad_weights=weights)
        assert points.flags.writeable and weights.flags.writeable
        points[0] = -1.0
        assert g.points[0] == 0.0


class TestIntegrate:
    def test_constant_one(self):
        for m in (2, 5, 33):
            g = make_uniform_grid(0, 1, m)
            assert abs(integrate(np.ones(m), g) - 1.0) < 1e-14

    def test_exact_for_linear(self):
        g = make_uniform_grid(0, 1, 51)
        assert abs(integrate(g.points, g) - 0.5) < 1e-12

    def test_exact_for_affine(self):
        g = make_uniform_grid(-1, 2, 40)
        vals = 3.0 * g.points + 2.0
        # analytic: 3/2 t^2 + 2t on [-1, 2] -> (6+4) - (3/2-2) = 10.5
        assert abs(integrate(vals, g) - 10.5) < 1e-12

    def test_quadratic_within_h2(self):
        g = make_uniform_grid(0, 1, 101)
        assert abs(integrate(g.points**2, g) - 1.0 / 3.0) < 1e-4

    def test_convergence_rate_is_second_order(self):
        errs = []
        for m in (11, 21, 41, 81):
            g = make_uniform_grid(0, 1, m)
            errs.append(abs(integrate(g.points**2, g) - 1.0 / 3.0))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for ratio in ratios:
            assert 3.5 < ratio < 4.5

    def test_linearity(self):
        rng = np.random.default_rng(0)
        g = make_uniform_grid(0, 1, 17)
        f, gvals = rng.standard_normal(17), rng.standard_normal(17)
        lhs = integrate(2.5 * f - 1.25 * gvals, g)
        rhs = 2.5 * integrate(f, g) - 1.25 * integrate(gvals, g)
        assert abs(lhs - rhs) < 1e-12

    def test_length_mismatch(self):
        g = make_uniform_grid(0, 1, 5)
        with pytest.raises(ValueError, match="mismatch"):
            integrate(np.ones(4), g)


class TestInnerProduct:
    def test_unit_functions(self):
        g = make_uniform_grid(0, 1, 21)
        assert abs(inner_product(np.ones(21), np.ones(21), g) - 1.0) < 1e-14
        assert inner_product(np.ones(21), np.zeros(21), g) == 0.0

    def test_sin_cos_orthogonal(self):
        g = make_uniform_grid(0, 1, 201)
        f = np.sin(2 * np.pi * g.points)
        h = np.cos(2 * np.pi * g.points)
        assert abs(inner_product(f, h, g)) < 1e-6

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(1)
        g = make_uniform_grid(0, 1, 31)
        f, h = rng.standard_normal(31), rng.standard_normal(31)
        assert abs(inner_product(f, h, g) - inner_product(h, f, g)) < 1e-15
        assert inner_product(f, f, g) > 0

    def test_length_mismatch(self):
        g = make_uniform_grid(0, 1, 5)
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(np.ones(5), np.ones(6), g)


class TestLinearResample:
    def test_midpoint(self):
        src = make_uniform_grid(0, 1, 2)
        tgt = Grid(points=np.array([0.25, 0.5]))
        np.testing.assert_allclose(
            linear_resample(np.array([0.0, 1.0]), src, tgt), [0.25, 0.5]
        )

    def test_identity_on_same_grid(self):
        g = make_uniform_grid(0, 1, 13)
        vals = np.sin(g.points)
        np.testing.assert_array_equal(linear_resample(vals, g, g), vals)

    def test_exact_for_affine(self):
        src = make_uniform_grid(0, 1, 7)
        tgt = make_uniform_grid(0, 1, 29)
        vals = 3.0 * src.points + 2.0
        np.testing.assert_allclose(
            linear_resample(vals, src, tgt), 3.0 * tgt.points + 2.0, atol=1e-12
        )

    def test_out_of_range_target(self):
        src = make_uniform_grid(0, 1, 5)
        tgt = make_uniform_grid(-0.5, 0.5, 5)
        with pytest.raises(ValueError, match="outside"):
            linear_resample(np.ones(5), src, tgt)
