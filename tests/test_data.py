import json
import tracemalloc

import numpy as np
import pytest

from bfae import data as bdata
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


def labelled_csv(tmp_path, labels=("aa", "ao", "aa")):
    """A 3-sample, 2-feature, M=4 file: line 1 is the header, lines 2-7 hold
    sample i's features f0 and f1 on lines 2 + 2i and 3 + 2i."""
    labels = np.array(labels, dtype=object)
    return save_csv(tiny_dataset(n=3, r=2, m=4, labels=labels), tmp_path / "d.csv")


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)))
    return path


def set_cell(lineno, column, value):
    def edit(lines):
        cells = lines[lineno - 1].split(",")
        cells[column] = value
        lines[lineno - 1] = ",".join(cells)
        return lines
    return edit


def sidecar(path):
    return path.with_name(path.stem + ".grid.json")


class TestCsvContract:
    @pytest.mark.parametrize("edit, kwargs, match", [
        (lambda lines: [], {}, r"d.csv: empty file"),
        (lambda lines: lines[:1], {}, r"d.csv: no data rows"),
        (None, {"expect_m": 5}, r"d.csv: expected M=5, sidecar has M=4"),
        (set_cell(3, 4, "inf"), {}, r"d.csv:3: non-finite value in column t_2"),
        (set_cell(3, 2, "ao"), {}, r"d.csv:3: label differs across rows of sample 0"),
        (set_cell(5, 1, "f0"), {}, r"d.csv:5: duplicate feature 'f0' for sample 1"),
        (set_cell(5, 1, "g1"), {},
         r"d.csv: sample 1 has features \['f0', 'g1'\] instead of \['f0', 'f1'\]"),
    ], ids=["empty", "header-only", "expect-m", "inf",
            "label-differs", "duplicate-feature", "features-differ"])
    def test_malformed_file_is_named(self, edit, kwargs, match, tmp_path):
        path = labelled_csv(tmp_path)
        if edit is not None:
            edit_lines(path, edit)
        with pytest.raises(ValueError, match=match):
            load_csv(path, **kwargs)

    def test_missing_sidecar(self, tmp_path):
        path = labelled_csv(tmp_path)
        sidecar(path).unlink()
        with pytest.raises(FileNotFoundError, match=r"grid sidecar not found: .*d.grid.json"):
            load_csv(path)

    def test_interleaved_rows_load_like_contiguous_rows(self, tmp_path):
        path = labelled_csv(tmp_path)
        expected = load_csv(path)
        # sample 0, 1, 2 rows of f0 first, then their f1 rows
        edit_lines(path, lambda lines: [lines[i] for i in (0, 1, 3, 5, 2, 4, 6)])
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, expected.values)
        np.testing.assert_array_equal(back.labels, expected.labels)
        assert back.feature_names == expected.feature_names == ("f0", "f1")

    @pytest.mark.parametrize("interval", [[0.0, 2.0], [-0.5, 1.0], [0.0, 1.0 + 1e-11]])
    def test_sidecar_interval_must_match_points(self, interval, tmp_path):
        path = labelled_csv(tmp_path)
        meta = json.loads(sidecar(path).read_text())
        meta["interval"] = interval
        sidecar(path).write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"d.grid.json: interval .* points"):
            load_csv(path)
        meta["interval"] = [0.0, 1.0 + 1e-13]  # within Grid's 1e-12 tolerance
        sidecar(path).write_text(json.dumps(meta))
        load_csv(path)

    @pytest.mark.parametrize("labels, lineno, sid", [
        (("aa", "", "aa"), 4, 1),
        (("", "aa", ""), 4, 1),
        (("aa", "ao", ""), 6, 2),
    ])
    def test_labels_set_for_every_sample_or_none(self, labels, lineno, sid, tmp_path):
        path = labelled_csv(tmp_path, labels)
        with pytest.raises(ValueError, match=rf"d.csv:{lineno}: sample {sid} .*every sample"):
            load_csv(path)

    def test_rows_parsed_in_chunks_load_bit_for_bit(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 2, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 2, 5))
        ds = FunctionalDataset(values, make_uniform_grid(0, 1, 5), ("f0", "f1"))
        path = save_csv(ds, tmp_path / "d.csv")
        monkeypatch.setattr(bdata, "CHUNK_CELLS", 15)  # 3 rows per chunk, the last one short
        assert load_csv(path).values.tobytes() == values.tobytes()
        edit_lines(path, set_cell(14, 6, "x"))
        with pytest.raises(ValueError, match=r"d.csv:14: non-numeric cell in column t_4: 'x'"):
            load_csv(path)

    def test_peak_memory_is_a_small_multiple_of_the_values(self, tmp_path):
        # the numeric cells are held as text one chunk at a time, not all at once
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 5, 1000).astype(np.float64)
        ds = FunctionalDataset(rng.standard_normal((1000, 1, 256)), make_uniform_grid(0, 1, 256),
                               ("f0",), labels)
        path = save_csv(ds, tmp_path / "big.csv")
        tracemalloc.start()
        try:
            back = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == ds.values.tobytes()
        assert peak < 4 * ds.values.nbytes


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

    @pytest.mark.parametrize("shape", [(3, 1, 5), (3, 2, 4), (2, 5)])
    def test_invert_values_rejects_a_batch_of_another_shape(self, shape):
        # fitted on 2 features of 5 points: a (3, 1, 5) batch would broadcast to (3, 2, 5)
        std = Standardizer().fit(tiny_dataset(n=8, r=2, m=5, seed=10))
        with pytest.raises(ValueError, match=r"does not match fitted statistics \(2, 5\)"):
            std.invert_values(np.zeros(shape))

    def test_invert_values_inverts_apply(self):
        ds = tiny_dataset(n=8, r=2, m=5, seed=11)
        std = Standardizer().fit(ds)
        np.testing.assert_array_equal(std.invert_values(std.apply(ds).values),
                                      std.invert(std.apply(ds)).values)
