import numpy as np
import pytest

from bfae.evaluate import fof_fit, fof_predict, functional_rmse
from bfae.standins import DAY_NAMES, make_adelaide_standin, make_phoneme_standin


class TestPhonemeStandin:
    def test_shape_and_labels(self):
        ds = make_phoneme_standin(n_samples=100, m_points=150, seed=1)
        assert ds.values.shape == (100, 1, 150)
        assert set(ds.labels.tolist()) == {"aa", "ao"}

    def test_deterministic(self):
        a = make_phoneme_standin(n_samples=40, seed=5)
        b = make_phoneme_standin(n_samples=40, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_sample_rejected(self, n):
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n}"):
            make_phoneme_standin(n_samples=n, m_points=8)

    def test_classes_differ_in_mean(self):
        ds = make_phoneme_standin(n_samples=600, seed=2)
        aa = ds.values[ds.labels == "aa", 0].mean(axis=0)
        ao = ds.values[ds.labels == "ao", 0].mean(axis=0)
        assert np.abs(aa - ao).max() > 0.3


class TestAdelaideStandin:
    def test_shapes_names_pairing(self):
        temp, demand = make_adelaide_standin(n_weeks=60, seed=3)
        assert temp.values.shape == (60, 7, 48)
        assert demand.values.shape == (60, 7, 48)
        assert temp.feature_names == DAY_NAMES
        assert demand.feature_names == DAY_NAMES

    def test_deterministic(self):
        t1, d1 = make_adelaide_standin(n_weeks=30, seed=4)
        t2, d2 = make_adelaide_standin(n_weeks=30, seed=4)
        np.testing.assert_array_equal(t1.values, t2.values)
        np.testing.assert_array_equal(d1.values, d2.values)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_week_rejected(self, n):
        with pytest.raises(ValueError, match=f"n_weeks must be >= 1, got {n}"):
            make_adelaide_standin(n_weeks=n, m_points=8)

    def test_scales_look_physical(self):
        temp, demand = make_adelaide_standin(n_weeks=80, seed=5)
        assert 0 < temp.values.mean() < 40        # Celsius-ish
        assert 1000 < demand.values.mean() < 3000  # Megawatts-ish

    def test_demand_is_predictable_from_temperature(self):
        temp, demand = make_adelaide_standin(n_weeks=120, seed=6)
        tr = slice(0, 90)
        te = slice(90, 120)
        model = fof_fit(temp.values[tr], demand.values[tr], temp.grid, demand.grid, ridge=1e-3)
        pred = fof_predict(model, temp.values[te])
        fitted = functional_rmse(demand.values[te], pred, demand.grid)
        baseline = functional_rmse(
            demand.values[te],
            np.broadcast_to(demand.values[tr].mean(axis=0), demand.values[te].shape),
            demand.grid,
        )
        assert fitted < 0.6 * baseline
