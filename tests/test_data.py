import numpy as np
import pytest

from bfae.data import (
    FunctionalDataset,
    SplitSpec,
    Standardizer,
    load_csv,
    save_csv,
    train_test_split,
)
from bfae.grids import make_uniform_grid


def tiny_dataset(n=4, r=2, m=5, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    return FunctionalDataset(
        values=rng.standard_normal((n, r, m)),
        grid=make_uniform_grid(0, 1, m),
        feature_names=tuple(f"f{j}" for j in range(r)),
        labels=labels,
    )


class TestDatasetValidation:
    def test_rejects_non_finite(self):
        vals = np.zeros((2, 1, 4))
        vals[1, 0, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FunctionalDataset(vals, make_uniform_grid(0, 1, 4), ("a",))

    def test_rejects_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid length"):
            FunctionalDataset(np.zeros((2, 1, 4)), make_uniform_grid(0, 1, 5), ("a",))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            tiny_dataset(n=4, labels=np.array(["x", "y"]))

    def test_caller_array_stays_writeable(self):
        values = np.zeros((2, 1, 4))
        ds = FunctionalDataset(values=values, grid=make_uniform_grid(0, 1, 4), feature_names=("a",))
        assert values.flags.writeable
        with pytest.raises(ValueError):
            ds.values[0, 0, 0] = 1.0


class TestCsvRoundTrip:
    def test_shapes_and_values(self, tmp_path):
        ds = tiny_dataset(n=2, r=1, m=3)
        path = save_csv(ds, tmp_path / "d.csv")
        back = load_csv(path)
        assert back.values.shape == (2, 1, 3)
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.grid.points, ds.grid.points)

    def test_bitwise_round_trip(self, tmp_path):
        # 17 significant digits round-trip float64 exactly
        ds = tiny_dataset(n=5, r=3, m=7, seed=3)
        first = save_csv(ds, tmp_path / "a.csv")
        again = save_csv(load_csv(first), tmp_path / "b.csv")
        assert first.read_bytes() == again.read_bytes()

    def test_labels_round_trip(self, tmp_path):
        labels = np.array(["aa", "ao", "aa"], dtype=object)
        ds = tiny_dataset(n=3, r=1, m=4, labels=labels)
        back = load_csv(save_csv(ds, tmp_path / "lab.csv"))
        np.testing.assert_array_equal(back.labels, labels)

    def test_real_labels_round_trip(self, tmp_path):
        labels = np.array([0.25, -1.5, 3.125])
        ds = tiny_dataset(n=3, r=1, m=4, labels=labels)
        back = load_csv(save_csv(ds, tmp_path / "reg.csv"))
        np.testing.assert_array_equal(back.labels, labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_named(self, tmp_path):
        ds = tiny_dataset(n=2, r=1, m=3)
        path = save_csv(ds, tmp_path / "bad.csv")
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = "oops"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad.csv:2: non-numeric cell in column t_2"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        ds = tiny_dataset(n=2, r=1, m=3)
        path = save_csv(ds, tmp_path / "ragged.csv")
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_header_must_match_schema(self, tmp_path):
        ds = tiny_dataset(n=2, r=1, m=3)
        path = save_csv(ds, tmp_path / "hdr.csv")
        text = path.read_text().replace("sample_id", "id")
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            load_csv(path)


class TestSplit:
    def test_paper_sizes(self):
        ds = tiny_dataset(n=100, r=1, m=3)
        train, test = train_test_split(ds, SplitSpec(train_fraction=0.8, seed=1))
        assert (train.n_samples, test.n_samples) == (80, 20)
        big = tiny_dataset(n=800, r=1, m=3)
        train, test = train_test_split(big, SplitSpec(train_fraction=0.8, seed=1))
        assert (train.n_samples, test.n_samples) == (640, 160)

    def test_deterministic(self):
        ds = tiny_dataset(n=20, r=1, m=3)
        a1, b1 = train_test_split(ds, SplitSpec(seed=7))
        a2, b2 = train_test_split(ds, SplitSpec(seed=7))
        np.testing.assert_array_equal(a1.values, a2.values)
        np.testing.assert_array_equal(b1.values, b2.values)

    def test_disjoint_and_covering(self):
        ds = tiny_dataset(n=10, r=1, m=3, seed=5)
        train, test = train_test_split(ds, SplitSpec(seed=2))
        combined = np.concatenate([train.values, test.values])
        assert combined.shape[0] == 10
        # every original row appears exactly once
        original = {ds.values[i].tobytes() for i in range(10)}
        recovered = {combined[i].tobytes() for i in range(10)}
        assert original == recovered

    def test_labels_follow_split(self):
        labels = np.arange(10).astype(float)
        ds = tiny_dataset(n=10, r=1, m=3, labels=labels)
        train, test = train_test_split(ds, SplitSpec(seed=3))
        assert sorted(np.concatenate([train.labels, test.labels]).tolist()) == list(range(10))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)


class TestStandardizer:
    def test_training_columns_centered_and_scaled(self):
        ds = tiny_dataset(n=50, r=2, m=6, seed=8)
        std = Standardizer().fit(ds)
        z = std.apply(ds).values
        assert np.abs(z.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_invert_round_trip(self):
        ds = tiny_dataset(n=30, r=1, m=5, seed=9)
        std = Standardizer().fit(ds)
        back = std.invert(std.apply(ds))
        np.testing.assert_allclose(back.values, ds.values, atol=1e-10)

    def test_constant_feature_maps_to_zero(self):
        vals = np.ones((10, 1, 4))
        ds = FunctionalDataset(vals, make_uniform_grid(0, 1, 4), ("c",))
        with pytest.warns(UserWarning, match="zero-variance"):
            std = Standardizer().fit(ds)
        np.testing.assert_array_equal(std.apply(ds).values, 0.0)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            Standardizer().apply(tiny_dataset())
