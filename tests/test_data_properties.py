"""Property tests of the data layer: ``save_csv`` → ``load_csv`` round trips
bit for bit, and a ``Grid`` keeps positive weights that sum to its span in
read-only copies of the caller's arrays."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bfae.data import FunctionalDataset, load_csv, save_csv  # noqa: E402
from bfae.grids import Grid  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# strictly increasing points, from nearly touching to far apart
POINTS = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=12, unique=True
).map(sorted)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def grid_or_none(points):
    """The grid on ``points``, or ``None`` when they are too close for
    positive trapezoid weights (which ``Grid`` rejects)."""
    try:
        return Grid(points=np.array(points))
    except ValueError as exc:
        assert "underflows" in str(exc)
        return None


@st.composite
def datasets(draw):
    """Datasets at random N, R and M, with values spanning every decade of
    float64 (subnormals included), with or without labels."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    grid = grid_or_none(draw(POINTS))
    assume(grid is not None)
    size, cells = n * r * len(grid), st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(cells, min_size=size, max_size=size)))
    labels = draw(st.one_of(st.none(), st.lists(st.sampled_from(["aa", "ao", "x_1"]),
                                                 min_size=n, max_size=n)))
    return FunctionalDataset(
        values=values.reshape(n, r, len(grid)), grid=grid,
        feature_names=tuple(f"f{k}" for k in range(r)),
        labels=None if labels is None else np.array(labels),
    )


@PROPERTY
@given(datasets())
def test_csv_round_trip_is_bit_for_bit(tmp_path_factory, ds):
    path = save_csv(ds, tmp_path_factory.mktemp("csv") / "data.csv")
    back = load_csv(path)
    assert same_bits(back.values, ds.values)
    assert same_bits(back.grid.points, ds.grid.points)
    assert same_bits(back.grid.quad_weights, ds.grid.quad_weights)
    assert back.feature_names == ds.feature_names
    if ds.labels is None:
        assert back.labels is None
    else:
        assert back.labels.tolist() == ds.labels.tolist()


@PROPERTY
@given(POINTS)
def test_grid_weights_are_positive_and_sum_to_the_span(points):
    grid = grid_or_none(points)
    assume(grid is not None)
    assert np.all(grid.quad_weights > 0)
    # the tolerance Grid holds explicit weights to
    assert abs(grid.quad_weights.sum() - grid.span) <= 1e-12 * max(grid.span, 1.0)


@PROPERTY
@given(POINTS)
def test_grid_keeps_read_only_copies(points):
    pts = np.array(points)
    made = grid_or_none(pts)
    assume(made is not None)
    weights = made.quad_weights.copy()
    grid = Grid(points=pts, quad_weights=weights)
    for kept, given_array in ((grid.points, pts), (grid.quad_weights, weights)):
        assert not kept.flags.writeable
        assert not np.shares_memory(kept, given_array)
        assert given_array.flags.writeable
    kept_points = grid.points.copy()
    pts += 1.0
    assert np.array_equal(grid.points, kept_points)
