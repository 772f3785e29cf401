import pytest

import workloads


def test_guard_applies_cuts_and_seed():
    cfg = workloads.guarded_config("sim1", {"bfae.epochs": 10, "replications": 2}, seed=7)
    assert cfg["bfae"]["epochs"] == 10 and cfg["replications"] == 2
    assert cfg["master_seed"] == 7
    assert cfg["sim"]["n_samples"] == 100


def test_guard_rejects_a_misspelled_key():
    # apply_overrides alone would add a stray "epoch" and keep epochs at 5000
    with pytest.raises(KeyError, match="bfae.epoch"):
        workloads.guarded_config("sim1", {"bfae.epoch": 10}, seed=0)


def test_shipped_cuts_keep_every_shape():
    for name, spec in workloads.TRAINING.items():
        assert set(spec["cuts"]) <= {"bfae.epochs", "ae.epochs", "replications"}, name
        workloads.guarded_config(spec["kind"], spec["cuts"], seed=0)


def test_split_reproduction_matches_the_program():
    from bfae.data import SplitSpec, train_test_split
    from bfae.gp import SimConfig, sample_gp
    from bfae.grids import make_uniform_grid

    ds = sample_gp(SimConfig(n_samples=10, n_features=1, grid=make_uniform_grid(0, 1, 5)))
    train, test = train_test_split(ds, SplitSpec(train_fraction=0.8, seed=3))
    tr, te = workloads.split_indices(10, 0.8, 3)
    assert (ds.values[tr] == train.values).all() and (ds.values[te] == test.values).all()
