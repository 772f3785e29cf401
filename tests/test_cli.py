import csv
import json

import numpy as np
import pytest

from bfae.cli import main
from bfae.data import FunctionalDataset, load_csv, save_csv
from bfae.experiments import (
    KINDS,
    _methods,
    _sim_config,
    apply_overrides,
    config_hash,
    default_config,
    load_config,
    run_train,
)
from bfae.gp import SimConfig, sample_gp
from bfae.grids import Grid, make_uniform_grid
from bfae.model import load_model
from bfae.standins import make_adelaide_standin

FAST_BENCH = [
    "--set", "replications=2",
    "--set", "sim.n_samples=24",
    "--set", "sim.m_points=12",
    "--set", "bfae.epochs=40",
    "--set", "bfae.lr=2.0",
    "--set", "bfae_reduced_points=4",
    "--set", "ae.epochs=40",
]

FAST_REALDATA = [
    "--set", "sim.n_samples=60",
    "--set", "sim.m_points=24",
    "--set", "bfae.latent_points=24",
    "--set", "bfae.epochs=60",
    "--set", "bfae.lr=10.0",
    "--set", "bfae_reduced_points=6",
    "--set", "ae.epochs=60",
    "--set", "ae.lr=0.01",
    "--set", "downstream.ridge=0.001",
]


class TestConfigHandling:
    def test_defaults_exist_for_all_kinds(self):
        for kind in ("sim1", "sim10", "phoneme", "adelaide", "custom"):
            cfg = default_config(kind)
            assert cfg["schema_version"] == 1
            assert cfg["kind"] == kind

    def test_overrides_parse_json_values(self):
        cfg = default_config("sim1")
        out = apply_overrides(cfg, ["bfae.lr=0.25", "baselines.pca=false", "kind=sim1"])
        assert out["bfae"]["lr"] == 0.25
        assert out["baselines"]["pca"] is False
        assert cfg["bfae"]["lr"] != 0.25  # original untouched

    def test_config_file_round_trip(self, tmp_path):
        cfg = default_config("sim1")
        cfg["bfae"]["epochs"] = 77
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(path)
        assert loaded["bfae"]["epochs"] == 77
        assert loaded["sim"]["n_samples"] == 100  # defaults merged in

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 9, "kind": "sim1"}))
        with pytest.raises(ValueError, match="schema_version"):
            load_config(path)

    def test_misspelled_override_names_the_nearest_key(self):
        cfg = default_config("sim1")
        with pytest.raises(ValueError, match=r"'bfae\.epochs'"):
            apply_overrides(cfg, ["bfae.epoch=10"])
        assert cfg["bfae"]["epochs"] == 5000

    def test_misspelled_config_file_key_names_the_nearest_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "sim1", "bfae": {"epoch": 10}}))
        with pytest.raises(ValueError, match=r"'bfae\.epochs'"):
            main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("assignment, wanted", [
        ("bfae=3", "takes a section"),
        ('bfae.lr={"a": 1}', "takes a value"),
    ])
    def test_section_value_mismatch_rejected(self, assignment, wanted):
        with pytest.raises(ValueError, match=wanted):
            apply_overrides(default_config("sim1"), [assignment])

    def test_kind_override_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            apply_overrides(default_config("sim1"), ["kind=phoneme"])

    def test_section_override_merges_key_by_key(self):
        cfg = apply_overrides(default_config("sim1"), ['sim.matern={"rho": 0.3}'])
        assert cfg["sim"]["matern"] == {"sigma2": 1.0, "rho": 0.3, "nu": 2.5}

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_carries_the_keys_its_builders_read(self, kind):
        cfg = default_config(kind)
        sim = _sim_config(cfg, 0)
        methods = _methods(cfg, sim.grid, sim.n_features, bfae_seed=0, with_none=True)
        assert [name for name, _, _ in methods] == [
            "none", "pca", "ae", "fpca", "bfae", "bfae_reduced"
        ]
        assert methods[-1][2].latent_shape == (
            cfg["bfae"]["latent_features"], cfg["bfae_reduced_points"]
        )

    def test_config_hash_stable(self):
        a = default_config("sim1")
        b = default_config("sim1")
        assert config_hash(a) == config_hash(b)
        b["master_seed"] = 1
        assert config_hash(a) != config_hash(b)


class TestSimulateCommand:
    def test_writes_dataset_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--kind", "sim1", "--out", str(out),
                     "--set", "sim.n_samples=6", "--set", "sim.m_points=8"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "N=6" in printed and "M=8" in printed
        assert (out / "sim1_dataset.csv").exists()
        assert (out / "sim1_dataset.grid.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--kind", "sim1", "--seed", "3",
                "--set", "sim.n_samples=5", "--set", "sim.m_points=7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        first = (tmp_path / "a" / "sim1_dataset.csv").read_bytes()
        second = (tmp_path / "b" / "sim1_dataset.csv").read_bytes()
        assert first == second


class TestTrainCommand:
    def test_model_and_history_written(self, tmp_path):
        out = tmp_path / "train"
        code = main(["train", "--kind", "sim1", "--out", str(out),
                     "--set", "sim.n_samples=10", "--set", "sim.m_points=9",
                     "--set", "bfae.epochs=25", "--set", "bfae.lr=2.0",
                     "--set", "bfae.latent_points=9",
                     "--set", "bfae_reduced_points=3"])
        assert code == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 1 + 25
        losses = [float(line.split(",")[1]) for line in history[1:]]
        assert losses[-1] < losses[0]
        model = load_model(out / "model.json")
        assert model.trained_epochs == 25

    def test_trains_from_named_dataset(self, tmp_path):
        sim_out = tmp_path / "data"
        main(["simulate", "--kind", "sim1", "--out", str(sim_out),
              "--set", "sim.n_samples=8", "--set", "sim.m_points=6"])
        out = tmp_path / "train"
        code = main(["train", "--kind", "sim1", "--out", str(out),
                     "--set", f"paths.dataset={sim_out / 'sim1_dataset.csv'}",
                     "--set", "bfae.epochs=10", "--set", "bfae.lr=1.0",
                     "--set", "bfae.latent_points=6"])
        assert code == 0
        assert (out / "model.json").exists()

    @pytest.mark.parametrize("kind", ["phoneme", "adelaide"])
    def test_real_data_kind_without_dataset_is_an_error(self, kind, tmp_path):
        out = tmp_path / "train"
        with pytest.raises(ValueError, match=f"paths.dataset.*bfae realdata --kind {kind}"):
            main(["train", "--kind", kind, "--out", str(out), "--set", "bfae.epochs=1"])
        assert not out.exists()

    def test_standardize_is_an_error(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["simulate", "--kind", "phoneme", "--out", str(data_dir),
              "--set", "sim.n_samples=10", "--set", "sim.m_points=8"])
        args = ["train", "--kind", "phoneme",
                "--set", f"paths.dataset={json.dumps(str(data_dir / 'phoneme_standin.csv'))}",
                "--set", "sim.m_points=8", "--set", "bfae.latent_points=8",
                "--set", "bfae.epochs=2", "--set", "bfae.lr=1.0"]
        # phoneme's default standardizes, which train cannot do
        with pytest.raises(ValueError, match="standardize=false.*bfae realdata"):
            main(args + ["--out", str(tmp_path / "a")])
        assert not (tmp_path / "a").exists()
        assert main(args + ["--out", str(tmp_path / "b"), "--set", "standardize=false"]) == 0
        with pytest.raises(ValueError, match="standardize=false"):
            main(["train", "--kind", "sim1", "--out", str(tmp_path / "c"),
                  "--set", "standardize=true"])

    def test_model_grid_follows_the_dataset(self, tmp_path):
        grid = make_uniform_grid(0.0, 2.0, 6)
        ds = sample_gp(SimConfig(n_samples=8, n_features=1, grid=grid, seed=1))
        data_path = save_csv(ds, tmp_path / "data.csv")
        cfg = apply_overrides(default_config("sim1"), [
            f"paths.dataset={json.dumps(str(data_path))}",
            "bfae.epochs=3", "bfae.lr=1.0", "bfae.latent_points=6",
        ])
        model_path, _ = run_train(cfg, tmp_path / "train")
        model = load_model(model_path)
        assert model.config.interval == (0.0, 2.0)
        assert model.data_grid == load_csv(data_path).grid

    @pytest.mark.parametrize("command", ["train", "realdata"])
    def test_non_uniform_data_grid_is_an_error(self, command, tmp_path):
        rng = np.random.default_rng(3)
        grid = Grid(points=np.sort(rng.uniform(0.0, 1.0, 20)))
        ds = FunctionalDataset(rng.standard_normal((12, 1, 20)), grid, ("signal",),
                               labels=np.array(["aa", "ao"] * 6))
        data_path = json.dumps(str(save_csv(ds, tmp_path / "data.csv")))
        key = "dataset" if command == "train" else "phoneme"
        with pytest.raises(ValueError, match="20 points .* are not evenly spaced"):
            main([command, "--kind", "phoneme", "--out", str(tmp_path / "out"),
                  "--set", f"paths.{key}={data_path}", "--set", "standardize=false",
                  "--set", "sim.m_points=20", "--set", "bfae.epochs=2"])


@pytest.mark.parametrize("command, kind, fast", [
    ("benchmark", "sim1", FAST_BENCH), ("realdata", "phoneme", FAST_REALDATA),
], ids=["benchmark", "realdata"])
@pytest.mark.parametrize("setting, match", [
    ("ae.lr=NaN", "lr must be finite"), ("ae.epochs=-3", "ae.epochs must be >= 0"),
], ids=["lr", "epochs"])
def test_invalid_ae_section_is_an_error_before_any_fit(command, kind, fast, setting, match,
                                                       tmp_path):
    # an error raised while fitting would mark a failure cell, not propagate
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--kind", kind, "--out", str(out)] + fast + ["--set", setting])
    assert not (out / "report.csv").exists()
    if command == "realdata":  # checked before its output directory is made
        assert not out.exists()


@pytest.mark.parametrize("command, kind, fast", [
    ("simulate", "sim1", FAST_BENCH), ("train", "sim1", FAST_BENCH),
    ("realdata", "phoneme", FAST_REALDATA),
], ids=["simulate", "train", "realdata"])
@pytest.mark.parametrize("flags, match", [
    (["--jobs", "-5"], "got --jobs -5"), (["--jobs", "0"], "got --jobs 0"),
    (["--jobs", "2"], "got --jobs 2"), (["--paper-scale"], "got --paper-scale"),
], ids=["-5", "0", "2", "paper-scale"])
def test_jobs_outside_benchmark_is_an_error(command, kind, fast, flags, match, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"--jobs and --paper-scale apply to bfae benchmark "
                                         f"only.*{match}"):
        main([command, "--kind", kind, "--out", str(out)] + flags + fast)
    assert not out.exists()


def test_jobs_one_is_accepted_outside_benchmark(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--kind", "sim1", "--out", str(out), "--jobs", "1",
                 "--set", "sim.n_samples=4", "--set", "sim.m_points=5"]) == 0
    assert (out / "sim1_dataset.csv").exists()


class TestBenchmarkCommand:
    def test_report_rows_and_summaries(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH)
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["method", "n", "m", "r", "m_latent", "r_latent",
                          "replication", "split", "metric", "value"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        for method in ("pca", "ae", "fpca", "bfae", "bfae_reduced"):
            test_rows = [r for r in rows if r["method"] == method and r["split"] == "test"]
            reps = [r for r in test_rows if r["replication"] != "mean"]
            means = [r for r in test_rows if r["replication"] == "mean"]
            assert len(reps) == 2 and len(means) == 1
            expected = np.mean([float(r["value"]) for r in reps])
            assert abs(float(means[0]["value"]) - expected) < 1e-12

    def test_figure_csv_has_truth_and_method_columns(self, tmp_path):
        out = tmp_path / "bench"
        main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH)
        lines = (out / "figure_reconstruction.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "truth", "pca", "ae", "fpca", "bfae", "bfae_reduced"]
        assert len(lines) == 1 + 12  # M rows

    def test_rerun_byte_identical_and_jobs_invariant(self, tmp_path):
        args = ["benchmark", "--kind", "sim1", "--seed", "9"] + FAST_BENCH
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        main(args + ["--out", str(tmp_path / "c"), "--jobs", "2"])
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        c = (tmp_path / "c" / "report.csv").read_bytes()
        assert a == b == c

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "bench"
        main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH)
        rows = json.loads((out / "report.json").read_text())
        assert rows and {"method", "value", "metric"} <= set(rows[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cell_marks_row_and_exit_code(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH
                    + ["--set", "bfae.lr=1e9", "--set", "bfae.hidden_activation=linear"])
        assert code == 1
        lines = (out / "report.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        failures = [r for r in rows if r["metric"] == "failure"]
        assert failures and all(r["split"] == "error" for r in failures)
        # untouched methods still report normally
        assert any(r["method"] == "fpca" and r["metric"] == "functional_rmse" for r in rows)

    @pytest.mark.parametrize("key", ["bfae.lr", "ae.lr"])
    def test_non_finite_lr_is_an_error(self, key, tmp_path):
        argv = ["benchmark", "--kind", "sim1", "--out", str(tmp_path / "bench")]
        with pytest.raises(ValueError, match="lr must be finite"):
            main(argv + FAST_BENCH + ["--set", f"{key}=NaN"])

    @pytest.mark.parametrize("kind", ["phoneme", "adelaide"])
    def test_real_data_kind_is_an_error(self, kind, tmp_path):
        out = tmp_path / "bench"
        with pytest.raises(ValueError, match=f"bfae realdata --kind {kind}"):
            main(["benchmark", "--kind", kind, "--out", str(out)] + FAST_BENCH)
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--set", "standardize=true"], "standardize=false"),
        (["--jobs", "-3"], "jobs must be >= 1"),
    ])
    def test_unsupported_settings_are_errors(self, extra, message, tmp_path):
        out = tmp_path / "bench"
        with pytest.raises(ValueError, match=message):
            main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH + extra)
        assert not out.exists()


class TestRealdataCommand:
    def test_phoneme_standin_end_to_end(self, tmp_path):
        out = tmp_path / "ph"
        code = main(["realdata", "--kind", "phoneme", "--out", str(out)] + FAST_REALDATA)
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["method", "dataset", "split", "metric", "value", "seed", "config_hash"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        methods = {r["method"] for r in rows}
        assert {"none", "pca", "ae", "fpca", "bfae", "bfae_reduced"} <= methods
        err_rows = [r for r in rows if r["metric"] == "classification_error"]
        assert err_rows and all(0.0 <= float(r["value"]) <= 1.0 for r in err_rows)
        assert (out / "sample_curves.csv").exists()

    def test_adelaide_standin_end_to_end(self, tmp_path):
        out = tmp_path / "ad"
        code = main(["realdata", "--kind", "adelaide", "--out", str(out),
                     "--set", "sim.n_samples=50", "--set", "sim.m_points=16",
                     "--set", "bfae.latent_points=16", "--set", "bfae.epochs=40",
                     "--set", "bfae.lr=5.0", "--set", "bfae_reduced_points=4",
                     "--set", "ae.epochs=40", "--set", "ae.lr=0.005",
                     "--set", "downstream.ridge=0.001"])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        metrics = {r[3] for r in rows}
        assert "regression_rmse" in metrics and "reconstruction_rmse" in metrics

    def test_adelaide_unshuffled_split_keeps_week_order(self, tmp_path):
        temp, demand = make_adelaide_standin(n_weeks=20, m_points=8, seed=3)
        paths = [save_csv(temp, tmp_path / "temp.csv"), save_csv(demand, tmp_path / "demand.csv")]
        out = tmp_path / "ad"
        main(["realdata", "--kind", "adelaide", "--out", str(out),
              "--set", f"paths.adelaide_temperature={json.dumps(str(paths[0]))}",
              "--set", f"paths.adelaide_demand={json.dumps(str(paths[1]))}",
              "--set", "sim.n_samples=20", "--set", "sim.m_points=8",
              "--set", "split.shuffle=false", "--set", "split.train_fraction=0.75",
              "--set", "bfae.latent_points=8", "--set", "bfae.epochs=2",
              "--set", "bfae_reduced_points=4", "--set", "ae.epochs=2",
              "--set", "downstream.ridge=0.001"])
        with open(out / "sample_curves.csv", newline="") as f:
            curves = list(csv.DictReader(f))
        # without shuffling the last quarter of the weeks tests, in order
        for i, week in enumerate((15, 16, 17)):
            for r, name in enumerate(temp.feature_names):
                got = [float(row[f"sample{i}_{name}"]) for row in curves]
                np.testing.assert_array_equal(got, temp.values[week, r])
                got = [float(row[f"sample{i}_{demand.feature_names[r]}_output"]) for row in curves]
                np.testing.assert_array_equal(got, demand.values[week, r])

    @pytest.mark.parametrize("kind", ["phoneme", "adelaide"])
    def test_replications_other_than_one_are_an_error(self, kind, tmp_path):
        out = tmp_path / "real"
        with pytest.raises(ValueError, match="realdata runs one split"):
            main(["realdata", "--kind", kind, "--out", str(out)] + FAST_REALDATA
                 + ["--set", "replications=2"])
        assert not out.exists()

    @pytest.mark.parametrize("given, unset", [
        ("adelaide_demand", "adelaide_temperature"), ("adelaide_temperature", "adelaide_demand"),
    ])
    def test_half_configured_adelaide_paths_are_an_error(self, given, unset, tmp_path):
        missing = json.dumps(str(tmp_path / "missing.csv"))
        out = tmp_path / "ad"
        with pytest.raises(ValueError, match=f"paths.{unset} is not set"):
            main(["realdata", "--kind", "adelaide", "--out", str(out),
                  "--set", f"paths.{given}={missing}"] + FAST_REALDATA)
        assert not out.exists()

    def test_missing_files_error_mentions_converter(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="CSV schema"):
            main(["realdata", "--kind", "phoneme", "--out", str(tmp_path),
                  "--set", "standin=false"])

    def test_realdata_rerun_byte_identical(self, tmp_path):
        args = ["realdata", "--kind", "phoneme", "--seed", "4"] + FAST_REALDATA
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
