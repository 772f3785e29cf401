"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
``pytest -m "not slow"`` runs everything but this suite.
The desk-scale method-comparison criteria run the same configs as the CLI
defaults; their replication counts and runtimes are far below the stated
budgets.
"""

import time

import numpy as np
import pytest

from bfae.baselines import fpca_encode, fpca_fit, fpca_reconstruct
from bfae.data import SplitSpec, train_test_split
from bfae.evaluate import (
    PipelineConfig,
    PipelineData,
    evaluate_pipeline,
    functional_rmse,
)
from bfae.experiments import (
    apply_overrides,
    default_config,
    run_benchmark,
    run_realdata,
    run_simulate,
    run_train,
)
from bfae.gp import MaternParams, SimConfig, cov_matrix, sample_gp
from bfae.grids import make_uniform_grid, integrate
from bfae.model import (
    BFAEConfig,
    bottleneck_config,
    build,
    model_gradients,
    reconstruction_loss,
    train,
)
from bfae.standins import make_phoneme_standin

pytestmark = pytest.mark.slow


def announce(number: int, title: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({title}): {detail}")


def test_criterion_1_gradient_keystone():
    """Analytic whole-network gradients vs central finite differences."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    arch_specs = [
        # (feature_counts, grid_sizes, activations)
        ((1, 1, 1), (5, 3, 5), ("tanh", "linear")),
        ((2, 1, 2), (7, 4, 7), ("sigmoid", "linear")),
        ((3, 2, 3), (9, 5, 9), ("linear", "linear")),
        ((2, 3, 2), (6, 9, 6), ("tanh", "linear")),
        ((2, 2, 1, 2), (8, 5, 4, 8), ("tanh", "sigmoid", "linear")),
        ((3, 1, 3, 3), (9, 3, 6, 9), ("sigmoid", "tanh", "linear")),
    ]
    eps = 1e-6
    for spec_no, (feats, grids, acts) in enumerate(arch_specs):
        cfg = BFAEConfig(
            feature_counts=feats, grid_sizes=grids, activations=acts, seed=spec_no
        )
        model = build(cfg)
        for layer in model.layers:  # move off the small random init
            layer.weights += 0.3 * rng.standard_normal(layer.weights.shape)
            layer.biases += 0.3 * rng.standard_normal(layer.biases.shape)
        x = rng.standard_normal((4, feats[0], grids[0]))
        _, grads = model_gradients(model, x)

        def loss_fn():
            return reconstruction_loss(x, model.reconstruct(x), model.data_grid)

        for ell, layer in enumerate(model.layers):
            gw, gb = grads[ell]
            for _ in range(6):
                idx = tuple(rng.integers(0, d) for d in layer.weights.shape)
                orig = layer.weights[idx]
                layer.weights[idx] = orig + eps
                up = loss_fn()
                layer.weights[idx] = orig - eps
                down = loss_fn()
                layer.weights[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(gw[idx] - fd) / max(abs(fd), 1e-10)
                worst = max(worst, rel)
                checked += 1
            idx = tuple(rng.integers(0, d) for d in layer.biases.shape)
            orig = layer.biases[idx]
            layer.biases[idx] = orig + eps
            up = loss_fn()
            layer.biases[idx] = orig - eps
            down = loss_fn()
            layer.biases[idx] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(gb[idx] - fd) / max(abs(fd), 1e-10)
            worst = max(worst, rel)
            checked += 1
    # top up to >= 200 checks on the largest architecture
    cfg = BFAEConfig(
        feature_counts=(3, 3, 3, 3), grid_sizes=(9, 9, 9, 9),
        activations=("tanh", "sigmoid", "linear"), seed=99,
    )
    model = build(cfg)
    x = rng.standard_normal((3, 3, 9))
    _, grads = model_gradients(model, x)

    def loss_fn():
        return reconstruction_loss(x, model.reconstruct(x), model.data_grid)

    while checked < 200:
        ell = int(rng.integers(0, len(model.layers)))
        layer = model.layers[ell]
        idx = tuple(rng.integers(0, d) for d in layer.weights.shape)
        orig = layer.weights[idx]
        layer.weights[idx] = orig + eps
        up = loss_fn()
        layer.weights[idx] = orig - eps
        down = loss_fn()
        layer.weights[idx] = orig
        fd = (up - down) / (2 * eps)
        rel = abs(grads[ell][0][idx] - fd) / max(abs(fd), 1e-10)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and checked >= 200 and elapsed < 60
    announce(1, "gradient keystone", ok,
             f"{checked} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert checked >= 200
    assert elapsed < 60


def test_criterion_2_quadrature_and_metric_oracles():
    g = make_uniform_grid(0, 1, 37)
    affine = 3.0 * g.points + 2.0
    quad_err = abs(integrate(affine, g) - 3.5)

    rng = np.random.default_rng(7)
    r, delta = 6, 0.71
    x = rng.standard_normal((9, r, 37))
    rmse_err = abs(functional_rmse(x, x + delta, g) - delta * np.sqrt(r))

    xhat = rng.standard_normal((9, r, 37))
    oracle = 0.0
    for i in range(9):
        for feat in range(r):
            diff = x[i, feat] - xhat[i, feat]
            oracle += float(np.sum(g.quad_weights * diff * diff))
    oracle /= 9
    loss_err = abs(reconstruction_loss(x, xhat, g) - oracle)

    ok = quad_err <= 1e-12 and rmse_err <= 1e-12 and loss_err <= 1e-12
    announce(2, "quadrature and metric oracles", ok,
             f"affine {quad_err:.1e}, offset rmse {rmse_err:.1e}, loss {loss_err:.1e}")
    assert quad_err <= 1e-12
    assert rmse_err <= 1e-12
    assert loss_err <= 1e-12


def test_criterion_3_matern_simulator():
    t0 = time.time()
    g = make_uniform_grid(0, 1, 50)
    params = MaternParams(sigma2=1.0, rho=0.5, nu=2.5)
    gram = cov_matrix(g, params)
    sym_err = float(np.abs(gram - gram.T).max())
    min_eig = float(np.linalg.eigvalsh(gram).min())

    cfg = SimConfig(n_samples=2000, n_features=1, grid=g, matern=params,
                    noise_sd=0.0, seed=123)
    values = sample_gp(cfg).values[:, 0, :]
    var_dev = float(np.abs(values.var(axis=0) - 1.0).max())
    elapsed = time.time() - t0

    ok = sym_err == 0.0 and min_eig >= -1e-8 and var_dev < 0.1 and elapsed < 60
    announce(3, "Matern simulator", ok,
             f"sym {sym_err:.1e}, min eig {min_eig:.2e}, max var dev {var_dev:.3f}, "
             f"{elapsed:.1f}s")
    assert sym_err == 0.0
    assert min_eig >= -1e-8
    assert var_dev < 0.1
    assert elapsed < 60


def test_criterion_4_special_case_reductions():
    # (a) M' = 1: scalar-per-neuron latent
    model = build(bottleneck_config(3, 20, 2, 1, seed=0))
    latent = model.encode(np.zeros((5, 3, 20)))
    shape_ok = latent.shape == (5, 2, 1)

    # (b) linear bottleneck at FPCA's K approaches FPCA test error
    g = make_uniform_grid(0, 1, 25)
    ds = sample_gp(SimConfig(n_samples=100, n_features=1, grid=g, noise_sd=0.1, seed=4))
    tr, te = train_test_split(ds, SplitSpec(seed=4))
    fp = fpca_fit(tr.values, g)
    k = fp.total_retained
    fpca_rmse = functional_rmse(
        te.values, fpca_reconstruct(fp, fpca_encode(fp, te.values)), g
    )
    cfg = bottleneck_config(
        1, 25, 1, k, hidden="linear", lr=5.0, epochs=10000, momentum=0.9, seed=11
    )
    bf = build(cfg)
    train(bf, tr.values)
    bfae_rmse = functional_rmse(te.values, bf.reconstruct(te.values), g)
    rel_gap = abs(bfae_rmse - fpca_rmse) / fpca_rmse
    ok = shape_ok and rel_gap < 0.15
    announce(4, "special-case reductions", ok,
             f"latent shape {latent.shape}, FPCA K={k} rmse {fpca_rmse:.4f}, "
             f"linear model rmse {bfae_rmse:.4f}, rel gap {rel_gap:.2%}")
    assert shape_ok
    assert rel_gap < 0.15


@pytest.fixture(scope="module")
def sim1_means(tmp_path_factory):
    cfg = default_config("sim1")
    assert cfg["sim"] == {
        "n_samples": 100, "n_features": 1, "m_points": 50,
        "interval": [0.0, 1.0],
        "matern": {"sigma2": 1.0, "rho": 0.5, "nu": 2.5},
        "noise_sd": 0.1,
    }
    assert cfg["replications"] == 10
    t0 = time.time()
    out = tmp_path_factory.mktemp("sim1")
    _, ok = run_benchmark(cfg, out)
    assert ok
    import csv

    rows = list(csv.DictReader(open(out / "report.csv")))
    means = {
        r["method"]: float(r["value"])
        for r in rows
        if r["replication"] == "mean" and r["split"] == "test"
    }
    means["elapsed"] = time.time() - t0
    return means


def test_criterion_5_single_series_benchmark(sim1_means):
    m = sim1_means
    ordering = m["bfae"] < m["fpca"] < min(m["pca"], m["ae"])
    bfae_band = 0.15 <= m["bfae"] <= 0.45
    fpca_band = abs(m["fpca"] - 0.390) <= 0.15
    reduced_gap = abs(m["bfae_reduced"] - m["bfae"]) <= 0.1
    runtime_ok = m["elapsed"] < 15 * 60
    ok = ordering and bfae_band and fpca_band and reduced_gap and runtime_ok
    announce(
        5, "single-series benchmark", ok,
        f"bfae {m['bfae']:.3f}, fpca {m['fpca']:.3f}, pca {m['pca']:.3f}, "
        f"ae {m['ae']:.3f}, bfae(M') {m['bfae_reduced']:.3f}, {m['elapsed']:.0f}s | "
        f"ordering={ordering} bfae_band={bfae_band} fpca_band={fpca_band} "
        f"reduced_gap={reduced_gap}",
    )
    assert runtime_ok
    assert bfae_band, f"BFAE mean {m['bfae']:.3f} outside [0.15, 0.45]"
    assert reduced_gap, (
        f"BFAE(M') {m['bfae_reduced']:.3f} vs BFAE {m['bfae']:.3f} gap > 0.1"
    )
    assert fpca_band, f"FPCA mean {m['fpca']:.3f} not within 0.15 of 0.390"
    assert ordering, (
        f"ordering violated: bfae {m['bfae']:.3f} < fpca {m['fpca']:.3f} "
        f"< min(pca {m['pca']:.3f}, ae {m['ae']:.3f})"
    )


def test_criterion_6_multi_series_benchmark(tmp_path):
    cfg = default_config("sim10")
    assert cfg["sim"]["n_features"] == 10
    assert cfg["bfae"]["latent_features"] == 4
    assert cfg["replications"] == 5
    t0 = time.time()
    _, ok = run_benchmark(cfg, tmp_path)
    assert ok
    import csv

    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    means = {
        r["method"]: float(r["value"])
        for r in rows
        if r["replication"] == "mean" and r["split"] == "test"
    }
    elapsed = time.time() - t0
    ratio = means["pca"] / means["fpca"]
    ratio_ok = ratio > 3.0
    bfae_ok = means["bfae"] < means["fpca"]
    runtime_ok = elapsed < 30 * 60
    ok = ratio_ok and bfae_ok and runtime_ok
    announce(
        6, "multi-series benchmark", ok,
        f"pca {means['pca']:.3f}, fpca {means['fpca']:.3f} (ratio {ratio:.2f}), "
        f"bfae {means['bfae']:.3f}, {elapsed:.0f}s | pca>3*fpca={ratio_ok} "
        f"bfae<fpca={bfae_ok}",
    )
    assert runtime_ok
    assert ratio_ok, f"PCA/FPCA ratio {ratio:.2f} not > 3"
    assert bfae_ok, f"BFAE {means['bfae']:.3f} not below FPCA {means['fpca']:.3f}"


def test_criterion_7_real_data_pipeline_standin():
    ds = make_phoneme_standin(n_samples=800, m_points=150, seed=0)
    tr, te = train_test_split(ds, SplitSpec(train_fraction=0.8, seed=1))
    assert (tr.n_samples, te.n_samples) == (640, 160)
    data = PipelineData(train_inputs=tr, test_inputs=te)

    base_rows = evaluate_pipeline(
        "none", "classify", data, PipelineConfig(standardize=True, seed=3)
    )
    base = {(r["split"], r["metric"]): r["value"] for r in base_rows}
    bfae_cfg = bottleneck_config(1, 150, 1, 150, lr=100.0, epochs=3000, seed=7)
    bfae_rows = evaluate_pipeline(
        "bfae", "classify", data, PipelineConfig(bfae=bfae_cfg, standardize=True, seed=3)
    )
    red = {(r["split"], r["metric"]): r["value"] for r in bfae_rows}

    err_orig = base[("test", "classification_error")]
    err_bfae = red[("test", "classification_error")]
    gap = abs(err_bfae - err_orig)
    informative = err_orig < 0.4  # the task is actually learnable
    ok = gap <= 0.05 and informative
    announce(7, "real-data pipeline (stand-in)", ok,
             f"classifier error original {err_orig:.3f}, on BFAE reconstruction "
             f"{err_bfae:.3f}, gap {gap:.3f}")
    assert informative
    assert gap <= 0.05


def test_criterion_8_byte_identical_reruns(tmp_path):
    fast = [
        "replications=2", "sim.n_samples=20", "sim.m_points=10",
        "bfae.epochs=30", "bfae.lr=2.0", "bfae.latent_points=10",
        "bfae_reduced_points=4", "ae.epochs=30",
    ]
    sim_cfg = apply_overrides(default_config("sim1"), fast)
    bench_cfg = sim_cfg
    real_cfg = apply_overrides(
        default_config("phoneme"),
        ["sim.n_samples=40", "sim.m_points=20", "bfae.latent_points=20",
         "bfae.epochs=30", "bfae.lr=5.0", "bfae_reduced_points=5",
         "ae.epochs=30", "ae.lr=0.01", "downstream.ridge=0.001"],
    )
    identical = []
    for name, runner, cfg in [
        ("simulate", run_simulate, sim_cfg),
        ("train", run_train, sim_cfg),
        ("benchmark", lambda c, o: run_benchmark(c, o)[0], bench_cfg),
        ("realdata", lambda c, o: run_realdata(c, o)[0], real_cfg),
    ]:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        paths_a = runner(cfg, out_a)
        paths_b = runner(cfg, out_b)
        same = all(
            pa.read_bytes() == pb.read_bytes() for pa, pb in zip(paths_a, paths_b)
        )
        identical.append((name, same))
    ok = all(same for _, same in identical)
    announce(8, "byte-identical reruns", ok,
             ", ".join(f"{name}={'ok' if same else 'DIFFERS'}" for name, same in identical))
    assert ok
