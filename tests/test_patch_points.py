"""The names the benchmark in ``perfbench/`` wraps to time a run.

``perfbench/workloads.py`` replaces each of these module or class attributes
with a timing wrapper while a protocol runs.  A call that bypasses the
attribute (say, through a reference taken at import time) would escape the
wrapper and go untimed, so each name must exist on its owner and each
protocol run must call it through that owner.
"""

import numpy as np
import pytest

from bfae import baselines, evaluate, experiments
from bfae import data as bdata
from bfae import gp
from bfae import model as bmodel
from bfae import report as breport

# Wrapped whenever a protocol fits its methods.
FITS = [
    (evaluate, "train"),
    (baselines, "pca_fit"),
    (baselines, "fpca_fit"),
    (baselines, "ae_fit"),
    (bmodel, "layer_forward"),
    (bmodel, "layer_backward"),
    (bmodel, "sgd_step"),
    (bmodel.BFAEModel, "reconstruct"),
    (breport.Report, "write_csv"),
    (breport.Report, "write_json"),
]
# Wrapped in the real-data protocol, which fits its reducers in ``evaluate``.
REALDATA = FITS + [
    (evaluate, "fit_reducer"),
    (evaluate, "select_ridge"),
    (bdata.Standardizer, "fit"),
    (bdata.Standardizer, "apply"),
    (bdata.Standardizer, "invert_values"),
]
POINTS = {
    "sim1": FITS + [
        (experiments, "fit_reducer"),
        (experiments, "sample_gp"),
        (experiments, "train_test_split"),
    ],
    "phoneme": REALDATA + [
        (experiments, "make_phoneme_standin"),
        (experiments, "train_test_split"),
        (evaluate, "flm_classify_fit"),
    ],
    "adelaide": REALDATA + [
        (experiments, "make_adelaide_standin"),
        (evaluate, "fof_fit"),
    ],
    # reloading saved models, as the encode workload does
    "encode": [
        (bmodel, "load_model"),
        (gp, "sample_gp"),
        (bmodel, "layer_forward"),
        (bmodel.BFAEModel, "encode"),
        (bmodel.BFAEModel, "reconstruct"),
    ],
}

TINY = {
    "sim1": ["replications=1", "sim.n_samples=20", "sim.m_points=8", "bfae.epochs=3",
             "bfae_reduced_points=4", "ae.epochs=3"],
    "phoneme": ["sim.n_samples=40", "sim.m_points=12", "bfae.latent_points=12",
                "bfae.epochs=3", "bfae.lr=1.0", "bfae_reduced_points=4", "ae.epochs=3"],
    "adelaide": ["sim.n_samples=30", "sim.m_points=8", "bfae.latent_points=8",
                 "bfae.epochs=3", "bfae.lr=1.0", "bfae_reduced_points=4", "ae.epochs=3"],
}


def wrap_points(monkeypatch, points) -> dict:
    """Wrap each point as the benchmark does; returns the call counts."""
    calls = {}
    for owner, attr in points:
        key = f"{owner.__name__}.{attr}"
        # the benchmark reads the original from the owner's own namespace
        original = vars(owner)[attr]
        calls[key] = 0

        def wrapper(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    return calls


@pytest.mark.parametrize("kind", ["sim1", "phoneme", "adelaide"])
def test_protocol_runs_call_every_wrapped_name(kind, monkeypatch, tmp_path):
    cfg = experiments.apply_overrides(experiments.default_config(kind), TINY[kind])
    calls = wrap_points(monkeypatch, POINTS[kind])
    if kind == "sim1":
        _, ok = experiments.run_benchmark(cfg, tmp_path, jobs=1)
    else:
        _, ok = experiments.run_realdata(cfg, tmp_path)
    assert ok
    assert [key for key, count in calls.items() if count == 0] == []


def test_reloaded_model_calls_every_wrapped_name(monkeypatch, tmp_path):
    config = bmodel.bottleneck_config(2, 8, 1, 4, seed=5)
    path = bmodel.save_model(bmodel.build(config), tmp_path / "m.json")
    calls = wrap_points(monkeypatch, POINTS["encode"])
    model = bmodel.load_model(path)
    curves = gp.sample_gp(gp.SimConfig(n_samples=3, n_features=2, grid=model.data_grid)).values
    assert model.encode(curves).shape == (3, 1, 4)
    assert np.all(np.isfinite(model.reconstruct(curves)))
    assert [key for key, count in calls.items() if count == 0] == []
