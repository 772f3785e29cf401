import argparse
import csv
import json
import os
import re
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

import bfae
from bfae.cli import _parser, main
from bfae.data import FunctionalDataset, load_csv, save_csv
from bfae.experiments import (
    KINDS,
    REALDATA_PATHS,
    _methods,
    _sim_config,
    _standin,
    apply_overrides,
    config_hash,
    default_config,
    load_config,
    run_benchmark,
    run_realdata,
    run_simulate,
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

# the keys only the other family of kinds reads: a kind's config does not carry them
SIM_ONLY = ("sim.n_features", "sim.interval", "sim.matern.sigma2", "sim.matern.rho",
            "sim.matern.nu", "sim.noise_sd")
REALDATA_ONLY = ("downstream.ridge", "standin", "paths.phoneme",
                 "paths.adelaide_temperature", "paths.adelaide_demand")
NOT_IN_SCHEMA = (
    [(kind, key) for kind in ("sim1", "sim10") for key in REALDATA_ONLY]
    + [("phoneme", key)
       for key in SIM_ONLY + ("paths.adelaide_temperature", "paths.adelaide_demand")]
    + [("adelaide", key) for key in SIM_ONLY + ("paths.phoneme",)]
)


def leaves(cfg: dict, prefix: str = ""):
    """The dotted path of every value in ``cfg``."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


class ReadLog(dict):
    """A config whose sections add the dotted path of every key read to ``reads``.

    ``keys`` and ``__iter__`` are overridden so that ``**section`` takes its values
    through ``__getitem__``, and is logged too."""

    def __init__(self, cfg: dict, reads: set, prefix: str = ""):
        super().__init__((key, ReadLog(value, reads, f"{prefix}{key}.")
                          if isinstance(value, dict) else value) for key, value in cfg.items())
        self.reads, self.prefix = reads, prefix

    def __getitem__(self, key):
        self.reads.add(self.prefix + key)
        return super().__getitem__(key)

    def keys(self):
        return list(super().keys())

    def __iter__(self):
        return iter(self.keys())


class TestConfigHandling:
    def test_defaults_exist_for_all_kinds(self):
        assert KINDS == ("sim1", "sim10", "phoneme", "adelaide")
        for kind in KINDS:
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

    @pytest.mark.parametrize("command", ["simulate", "train", "benchmark", "realdata"])
    def test_config_file_without_kind_is_an_error(self, command, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "replications": 2}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"cfg\.json: a config file must name its kind, "
                                             r"one of \('sim1', 'sim10', 'phoneme', 'adelaide'\)"):
            main([command, "--config", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "benchmark", "realdata"])
    def test_unknown_kind_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--kind", "custom", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "argument --kind: invalid choice: 'custom'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 9, "kind": "sim1"}))
        with pytest.raises(ValueError, match="schema_version"):
            load_config(path)

    @pytest.mark.parametrize("text, match", [
        ("[1]", "a config file holds a JSON object, got list"),
        ('"x"', "a config file holds a JSON object, got str"),
        ('{"schema_version": 1, "kind": ', "not a JSON file"),
        ('{"schema_version": 9, "kind": "sim1"}', "unsupported config schema_version: 9"),
        ('{"schema_version": 1, "kind": "custom"}', "unknown experiment kind 'custom'"),
        ('{"schema_version": 1, "kind": "sim1", "bfae": {"epoch": 10}}',
         "unknown config key 'bfae.epoch'"),
    ], ids=["list", "string", "invalid-json", "schema-version", "unknown-kind", "unknown-key"])
    def test_every_config_file_error_names_the_file(self, text, match, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"named\.json: " + re.escape(match)):
            load_config(path)

    def test_misspelled_override_names_the_nearest_key(self):
        cfg = default_config("sim1")
        with pytest.raises(ValueError, match=r"'bfae\.epochs'"):
            apply_overrides(cfg, ["bfae.epoch=10"])
        assert cfg["bfae"]["epochs"] == 500

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

    @pytest.mark.parametrize("kind, assignment, wanted", [
        ("sim1", "replications=2.7", "'replications' takes an integer, got 2.7"),
        ("sim1", "sim.n_samples=30.5", "'sim.n_samples' takes an integer, got 30.5"),
        ("sim1", "bfae.epochs=3.9", "'bfae.epochs' takes an integer, got 3.9"),
        ("sim1", "bfae.epochs=true", "'bfae.epochs' takes an integer, got True"),
        ("sim1", "bfae.lr=true", "'bfae.lr' takes a number, got True"),
        ("sim1", "bfae.lr=fast", "'bfae.lr' takes a number, got 'fast'"),
        ("sim1", "split.shuffle=1", "'split.shuffle' takes true or false, got 1"),
        ("sim1", "bfae.hidden_activation=3", "'bfae.hidden_activation' takes a str, got 3"),
        ("sim1", "sim.interval=1", "'sim.interval' takes a list, got 1"),
        ("phoneme", "standardize=0", "'standardize' takes true or false, got 0"),
    ])
    def test_value_of_another_type_than_the_default_rejected(self, kind, assignment, wanted):
        with pytest.raises(ValueError, match=re.escape(f"config key {wanted}")):
            apply_overrides(default_config(kind), [assignment])

    def test_values_of_the_defaults_types_accepted(self, tmp_path):
        # a float default takes an int, a None default anything; a file's
        # values and later overrides are checked against the defaults too
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "phoneme",
                                    "bfae": {"lr": 3}, "downstream": {"ridge": 0.5}}))
        cfg = apply_overrides(load_config(path), [
            "bfae.lr=0.25", "downstream.ridge=null", "paths.dataset=data.csv",
            "split.train_fraction=1", "replications=1",
        ])
        assert cfg["bfae"]["lr"] == 0.25 and cfg["downstream"]["ridge"] is None
        assert cfg["paths"]["dataset"] == "data.csv" and cfg["split"]["train_fraction"] == 1

    def test_kind_override_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            apply_overrides(default_config("sim1"), ["kind=phoneme"])

    def test_section_override_merges_key_by_key(self):
        cfg = apply_overrides(default_config("sim1"), ['sim.matern={"rho": 0.3}'])
        assert cfg["sim"]["matern"] == {"sigma2": 1.0, "rho": 0.3, "nu": 2.5}

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_carries_the_keys_its_builders_read(self, kind):
        cfg = default_config(kind)
        # the data each protocol fits: a real-data kind's first stand-in dataset
        data = _standin(cfg)[0] if kind in REALDATA_PATHS else _sim_config(cfg, 0)
        methods = _methods(cfg, data.grid, data.n_features, bfae_seed=0, with_none=True)
        assert [name for name, _, _ in methods] == [
            "none", "pca", "ae", "fpca", "bfae", "bfae_reduced"
        ]
        assert methods[-1][2].latent_shape == (
            cfg["bfae"]["latent_features"], cfg["bfae_reduced_points"]
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_leaf_is_read_by_a_command_of_its_kind(self, kind, tmp_path):
        reads = {"schema_version"}  # read by load_config
        cfg = apply_overrides(default_config(kind), [
            "replications=1", "sim.n_samples=60", "sim.m_points=12", "bfae.latent_points=12",
            "bfae.epochs=3", "bfae.lr=2.0", "bfae_reduced_points=4", "ae.epochs=3",
        ])
        written = run_simulate(ReadLog(cfg, reads), tmp_path / "simulate")
        on_file = apply_overrides(cfg, [f"paths.dataset={json.dumps(str(written[0]))}",
                                        "standardize=false"])
        run_train(ReadLog(on_file, reads), tmp_path / "train")
        run = run_realdata if kind in REALDATA_PATHS else run_benchmark
        _, ok = run(ReadLog(cfg, reads), tmp_path / "run")
        assert ok
        unread = sorted(set(leaves(default_config(kind))) - reads)
        assert not unread, f"no {kind} command reads {unread}"

    @pytest.mark.parametrize("how", ["set", "config"])
    @pytest.mark.parametrize("kind, key", NOT_IN_SCHEMA,
                             ids=[f"{kind}-{key}" for kind, key in NOT_IN_SCHEMA])
    def test_key_the_kind_does_not_read_is_an_error(self, kind, key, how, tmp_path):
        if how == "set":
            args = ["--kind", kind, "--set", f"{key}=1"]
        else:
            section = 1
            for part in reversed(key.split(".")):
                section = {part: section}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"schema_version": 1, "kind": kind, **section}))
            args = ["--config", str(path)]
        with pytest.raises(ValueError, match="unknown config key"):
            main(["simulate", "--out", str(tmp_path / "out")] + args)
        assert not (tmp_path / "out").exists()

    def test_config_hash_stable(self):
        a = default_config("sim1")
        b = default_config("sim1")
        assert config_hash(a) == config_hash(b)
        b["master_seed"] = 1
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_config_hash_leaves_out_only_the_descent_optimizer(self, kind):
        # a descent run keeps the hash it had before bfae.optimizer existed
        cfg = default_config(kind)
        before = deepcopy(cfg)
        del before["bfae"]["optimizer"]
        other = apply_overrides(cfg, [f"bfae.optimizer={'lbfgs' if kind != 'sim1' else 'gd'}"])
        if cfg["bfae"]["optimizer"] == "gd":
            assert config_hash(cfg) == config_hash(before)
            assert config_hash(other) != config_hash(before)
        else:
            assert config_hash(cfg) != config_hash(before) == config_hash(other)


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
        args = ["simulate", "--kind", "sim1", "--set", "master_seed=3",
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

    def test_zero_epochs_write_the_untrained_model(self, tmp_path, capsys):
        out = tmp_path / "train"
        code = main(["train", "--kind", "sim1", "--out", str(out),
                     "--set", "sim.n_samples=10", "--set", "sim.m_points=9",
                     "--set", "bfae.epochs=0", "--set", "bfae.latent_points=9"])
        assert code == 0
        assert "0 epochs" in capsys.readouterr().out
        assert (out / "history.csv").read_text().splitlines() == ["epoch,loss"]
        assert load_model(out / "model.json").trained_epochs == 0

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
    ("ae.lr=NaN", "ae.lr must be finite"), ("ae.epochs=-3", "ae.epochs must be >= 0"),
], ids=["lr", "epochs"])
def test_invalid_ae_section_is_an_error_before_any_fit(command, kind, fast, setting, match,
                                                       tmp_path):
    # an error raised while fitting would mark a failure cell, not propagate
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--kind", kind, "--out", str(out)] + fast + ["--set", setting])
    assert not out.exists()


@pytest.mark.parametrize("command, kind, fast", [
    ("benchmark", "sim1", FAST_BENCH), ("realdata", "phoneme", FAST_REALDATA),
    ("train", "sim1", FAST_BENCH),
], ids=["benchmark", "realdata", "train"])
@pytest.mark.parametrize("setting, match", [
    ("bfae.init_scheme=glorot", r"unknown init scheme 'glorot'; choose from \('uniform'"),
    ("bfae.hidden_activation=relu2", r"unknown activation 'relu2'; choose from \('relu'"),
], ids=["init_scheme", "hidden_activation"])
def test_unknown_bfae_name_is_an_error_before_any_fit(command, kind, fast, setting, match,
                                                      tmp_path):
    # the BFAE config checks its names: no method is fitted, no failure cell written
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--kind", kind, "--out", str(out)] + fast + ["--set", setting])
    assert not out.exists()


@pytest.mark.parametrize("command, kind, fast", [
    ("benchmark", "sim1", FAST_BENCH), ("realdata", "phoneme", FAST_REALDATA),
    ("realdata", "adelaide", FAST_REALDATA),
], ids=["benchmark", "phoneme", "adelaide"])
@pytest.mark.parametrize("target", ["5", "0", "-1", "NaN"])
def test_variance_target_outside_unit_interval_is_an_error_before_any_fit(command, kind, fast,
                                                                          target, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"variance_target must be in \(0, 1\]"):
        main([command, "--kind", kind, "--out", str(out)] + fast
             + ["--set", f"variance_target={target}"])
    assert not out.exists()


@pytest.mark.parametrize("kind", ["phoneme", "adelaide"])
@pytest.mark.parametrize("ridge", ["-1", "0", "NaN", "Infinity", "true", '"1"'])
def test_downstream_ridge_not_positive_is_an_error_before_any_fit(kind, ridge, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"downstream.ridge must be null \(grid search\) or "
                                         r"finite and > 0"):
        main(["realdata", "--kind", kind, "--out", str(out)] + FAST_REALDATA
             + ["--set", f"downstream.ridge={ridge}"])
    assert not out.exists()


@pytest.mark.parametrize("command, kind, fast", [
    ("simulate", "sim1", FAST_BENCH), ("train", "sim1", FAST_BENCH),
    ("realdata", "phoneme", FAST_REALDATA),
], ids=["simulate", "train", "realdata"])
@pytest.mark.parametrize("jobs", ["-5", "0", "1", "2"])
def test_jobs_outside_benchmark_is_an_error(command, kind, fast, jobs, tmp_path, capsys):
    # these commands run once in one process: argparse does not know --jobs there
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--kind", kind, "--out", str(out), "--jobs", jobs] + fast)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train", "benchmark", "realdata"])
@pytest.mark.parametrize("flags", [["--seed", "5"], ["--paper-scale"]], ids=["seed", "paper-scale"])
def test_removed_flags_are_usage_errors(command, flags, tmp_path, capsys):
    # --set master_seed=N and --set replications=100 are the one way to set these
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--out", str(out)] + flags)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_each_command_defines_exactly_its_flags():
    commands = next(action.choices for action in _parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    common = {"--config", "--kind", "--out", "--set"}
    wanted = {"simulate": common, "train": common, "realdata": common,
              "benchmark": common | {"--jobs"}}
    flags = {name: {flag for action in parser._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, parser in commands.items()}
    assert flags == wanted


@pytest.mark.parametrize("command, kind", [("simulate", "sim10"), ("simulate", "sim1"),
                                           ("benchmark", "sim1"), ("realdata", "phoneme")])
def test_kind_with_config_is_an_error(command, kind, tmp_path):
    # the file names its own kind; --kind picks the built-in defaults only without one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "sim1"}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"names its own kind; leave out --kind {kind}"):
        main([command, "--config", str(path), "--kind", kind, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, kind, setting, match", [
    ("benchmark", "sim1", "split.train_fraction=1.5", r"train_fraction must be in \(0, 1\)"),
    ("benchmark", "sim1", "split.train_fraction=0", r"train_fraction must be in \(0, 1\)"),
    ("benchmark", "sim1", "sim.n_samples=1", "need at least 2 samples to split"),
    ("simulate", "sim1", "sim.noise_sd=-1", "noise_sd must be >= 0"),
    ("simulate", "sim1", "sim.interval=[0,1,2]", r"sim.interval must be a pair of numbers "
                                                 r"\[a, b\], got \[0, 1, 2\]"),
    ("train", "sim1", 'sim.interval=[0,"b"]', "sim.interval must be a pair of numbers"),
    ("simulate", "phoneme", "sim.n_samples=0", "n_samples must be >= 1, got 0"),
    ("simulate", "adelaide", "sim.n_samples=0", "n_weeks must be >= 1, got 0"),
    ("realdata", "phoneme", "sim.n_samples=0", "n_samples must be >= 1, got 0"),
] + [(command, kind, "master_seed=-1", "master_seed must be >= 0, got -1")
     for command, kind in (("simulate", "sim1"), ("simulate", "adelaide"), ("train", "sim1"),
                           ("benchmark", "sim1"), ("realdata", "phoneme"))],
    ids=["fraction-above-one", "fraction-zero", "one-sample", "noise-negative",
         "interval-triple", "interval-text", "phoneme-empty", "adelaide-empty",
         "realdata-empty", "seed-simulate", "seed-simulate-standin", "seed-train",
         "seed-benchmark", "seed-realdata"])
def test_bad_config_is_an_error_before_any_output(command, kind, setting, match, tmp_path):
    out = tmp_path / "out"
    fast = FAST_REALDATA if kind in REALDATA_PATHS else FAST_BENCH
    with pytest.raises(ValueError, match=match):
        main([command, "--kind", kind, "--out", str(out)] + fast + ["--set", setting])
    assert not out.exists()


@pytest.mark.parametrize("jobs, replications, workers", [(5, 2, 2), (2, 3, 2)])
def test_jobs_fork_no_more_workers_than_replications(jobs, replications, workers, tmp_path,
                                                     monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Stands in for the process pool: records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = apply_overrides(default_config("sim1"),
                          FAST_BENCH[1::2] + [f"replications={replications}"])
    _, ok = run_benchmark(cfg, tmp_path / "out", jobs=jobs)
    assert ok and sizes == [workers]


def test_importing_experiments_leaves_the_process_pool_out():
    # the pool and its multiprocessing import are paid only by --jobs > 1
    code = ("import sys, bfae.experiments; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(bfae.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


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
        args = ["benchmark", "--kind", "sim1", "--set", "master_seed=9"] + FAST_BENCH
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
                    + ["--set", "bfae.lr=1e9", "--set", "bfae.hidden_activation=linear",
                       "--set", "bfae.optimizer=gd"])
        assert code == 1
        lines = (out / "report.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        failures = [r for r in rows if r["metric"] == "failure"]
        assert failures and all(r["split"] == "error" for r in failures)
        # untouched methods still report normally
        assert any(r["method"] == "fpca" and r["metric"] == "functional_rmse" for r in rows)

    @pytest.mark.parametrize("key", ["bfae.lr", "ae.lr"])
    def test_non_finite_lr_is_an_error(self, key, tmp_path):
        out = tmp_path / "bench"
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            main(["benchmark", "--kind", "sim1", "--out", str(out)] + FAST_BENCH
                 + ["--set", f"{key}=NaN"])
        assert not out.exists()

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
        args = ["realdata", "--kind", "phoneme", "--set", "master_seed=4"] + FAST_REALDATA
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
