"""Config-driven experiment runners behind the CLI.

Configs are plain JSON dicts with a ``schema_version`` field.  Every run is
reproducible from (config, master seed): per-replication seeds derive from
``SeedSequence([master_seed, replication])``, floats are written with 17
significant digits, and row order is fixed, so rerunning a command produces
byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from pathlib import Path

import numpy as np

from .data import SplitSpec, load_csv, save_csv, split_indices, train_test_split
from .evaluate import (
    PipelineConfig,
    PipelineData,
    evaluate_pipeline,
    fit_reducer,
    functional_rmse,
)
from .gp import MaternParams, SimConfig, sample_gp
from .grids import make_uniform_grid
from .model import bottleneck_config, build, check_lr, save_model, train
from .report import BENCHMARK_COLUMNS, PIPELINE_COLUMNS, Report, summarize_benchmark
from .standins import make_adelaide_standin, make_phoneme_standin

__all__ = [
    "default_config",
    "load_config",
    "apply_overrides",
    "apply_paper_scale",
    "config_hash",
    "run_simulate",
    "run_train",
    "run_benchmark",
    "run_realdata",
]

SCHEMA_VERSION = 1
KINDS = ("sim1", "sim10", "phoneme", "adelaide", "custom")
# the ``paths`` keys each real-data kind reads, one CSV per dataset
REALDATA_PATHS = {"phoneme": ("phoneme",), "adelaide": ("adelaide_temperature", "adelaide_demand")}


def default_config(kind: str) -> dict:
    """Desk-scale defaults for each experiment kind.

    This is the only place a default lives, and the schema that
    :func:`load_config` and :func:`apply_overrides` check every key against:
    each kind carries every key any command reads.

    Learning rates and epoch counts are calibration choices for these grid
    sizes (the discrete-exact gradients scale with the squared grid spacing,
    so usable learning rates grow roughly like M^2).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "master_seed": 0,
        "replications": 10,
        "sim": {
            "n_samples": 100,
            "n_features": 1,
            "m_points": 50,
            "interval": [0.0, 1.0],
            "matern": {"sigma2": 1.0, "rho": 0.5, "nu": 2.5},
            "noise_sd": 0.1,
        },
        "split": {"train_fraction": 0.8, "shuffle": True},
        "bfae": {
            "latent_features": 1,
            "latent_points": 50,
            "n_layers": 2,
            "hidden_activation": "tanh",
            "lr": 30.0,
            "epochs": 5000,
            "init_scheme": "uniform",
            "momentum": 0.0,
        },
        "bfae_reduced_points": 10,
        "ae": {"lr": 0.005, "epochs": 3000},
        "baselines": {"pca": True, "ae": True, "fpca": True},
        "variance_target": 0.99,
        "standardize": False,
        "downstream": {"ridge": None},
        "standin": True,
        "paths": {
            "dataset": None,
            "phoneme": None,
            "adelaide_temperature": None,
            "adelaide_demand": None,
        },
    }
    if kind == "sim10":
        cfg["replications"] = 5
        cfg["sim"]["n_features"] = 10
        cfg["bfae"].update(latent_features=4, lr=20.0, epochs=6000)
        cfg["ae"].update(lr=0.003, epochs=3000)
    elif kind == "phoneme":
        cfg["replications"] = 1
        cfg["sim"].update(n_samples=800, m_points=150)
        cfg["bfae"].update(latent_points=150, lr=100.0, epochs=3000)
        cfg["bfae_reduced_points"] = 30
        cfg["standardize"] = True
        cfg["standin_class_sep"] = 5.0
    elif kind == "adelaide":
        cfg["replications"] = 1
        cfg["sim"].update(n_samples=508, m_points=48)
        cfg["split"]["train_fraction"] = 400.0 / 508.0
        cfg["bfae"].update(latent_features=4, latent_points=48, epochs=6000)
        cfg["bfae_reduced_points"] = 12
        cfg["standardize"] = True
    return cfg


def load_config(path) -> dict:
    """Read a JSON config and merge it over ``default_config`` of its kind."""
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version: {version}")
    return _merge(default_config(cfg.get("kind", "custom")), cfg)


def _merge(cfg: dict, override: dict, prefix: str = "") -> dict:
    """Merge ``override`` into ``cfg`` in place, section by section.

    ``cfg`` is the schema: an unknown key, or a section given where a value
    belongs (or the reverse), raises ``ValueError`` naming the dotted path.
    """
    for key, value in override.items():
        path = prefix + key
        if key not in cfg:
            import difflib  # error path only; keeps the package import lean

            near = difflib.get_close_matches(key, list(cfg), n=1)
            hint = f"did you mean {prefix + near[0]!r}?" if near else f"valid keys: {list(cfg)}"
            raise ValueError(f"unknown config key {path!r}; {hint}")
        if isinstance(cfg[key], dict) != isinstance(value, dict):
            wanted = "a section" if isinstance(cfg[key], dict) else "a value"
            raise ValueError(f"config key {path!r} takes {wanted}, got {value!r}")
        if isinstance(value, dict):
            _merge(cfg[key], value, path + ".")
        else:
            cfg[key] = deepcopy(value)
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``dot.path=value`` overrides; values parse as JSON when possible.

    Each override merges like a config file does, so a JSON object given for
    a section updates only the keys it names.  ``kind`` picks the defaults
    and the schema, so it cannot change here.
    """
    kind, cfg = cfg["kind"], deepcopy(cfg)
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"override must look like key.path=value, got {assignment!r}")
        dotted, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for key in reversed(dotted.split(".")):
            value = {key: value}
        _merge(cfg, value)
    if cfg["kind"] != kind:
        raise ValueError(f"kind is {kind!r}; start from default_config(kind) to change it")
    return cfg


def apply_paper_scale(cfg: dict) -> dict:
    """Full replication count (100); desk runs default to far fewer."""
    cfg = deepcopy(cfg)
    cfg["replications"] = 100
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _derived_seeds(master_seed: int, replication: int, n: int = 4):
    return [int(s) for s in np.random.SeedSequence([master_seed, replication]).generate_state(n)]


def _sim_config(cfg: dict, seed: int) -> SimConfig:
    sim = cfg["sim"]
    return SimConfig(
        n_samples=sim["n_samples"],
        n_features=sim["n_features"],
        grid=make_uniform_grid(*sim["interval"], sim["m_points"]),
        matern=MaternParams(**sim["matern"]),
        noise_sd=sim["noise_sd"],
        seed=seed,
    )


def _bfae_config(cfg: dict, grid, n_features: int, latent_points: int, seed: int):
    """The configured BFAE for ``n_features`` curves on the data's ``grid``, which
    must be uniform: the model lays out a uniform grid over its interval."""
    uniform = make_uniform_grid(grid.a, grid.b, len(grid)).points
    if np.max(np.abs(grid.points - uniform)) > 1e-12 * max(grid.span, 1.0):  # Grid's tolerance
        raise ValueError(f"the data's {len(grid)} points on [{grid.a!r}, {grid.b!r}] are not "
                         f"evenly spaced; the model needs a uniform data grid")
    b = cfg["bfae"]
    return bottleneck_config(
        n_features=n_features,
        n_points=len(grid),
        latent_features=b["latent_features"],
        latent_points=latent_points,
        n_layers=b["n_layers"],
        hidden=b["hidden_activation"],
        interval=(grid.a, grid.b),
        lr=b["lr"],
        epochs=b["epochs"],
        init_scheme=b["init_scheme"],
        momentum=b["momentum"],
        seed=seed,
    )


def _methods(cfg: dict, grid, n_features: int, bfae_seed: int, with_none: bool):
    """``(method, reducer, bfae_config)`` for every method a run fits, in report order.

    Baselines that mirror an architecture (the dense AE) mirror the plain BFAE.
    The ``ae`` section is checked here, before any method is fitted.
    """
    check_lr(cfg["ae"]["lr"])
    if not cfg["ae"]["epochs"] >= 0:
        raise ValueError(f"ae.epochs must be >= 0, got {cfg['ae']['epochs']!r}")
    plain = _bfae_config(cfg, grid, n_features, cfg["bfae"]["latent_points"], bfae_seed)
    reduced = _bfae_config(cfg, grid, n_features, cfg["bfae_reduced_points"], bfae_seed)
    names = (["none"] if with_none else []) + [
        name for name in ("pca", "ae", "fpca") if cfg["baselines"][name]
    ]
    return [(name, name, plain) for name in names] + [
        ("bfae", "bfae", plain),
        ("bfae_reduced", "bfae", reduced),
    ]


def _split(cfg: dict, seed: int) -> SplitSpec:
    return SplitSpec(seed=seed, **cfg["split"])


def _write_report(report: Report, out_dir: Path) -> list:
    return [report.write_csv(out_dir / "report.csv"), report.write_json(out_dir / "report.json")]


def _standin(cfg: dict) -> tuple:
    """The kind's stand-in from the first replication's data seed, one dataset per
    ``REALDATA_PATHS`` key: ``(phoneme,)`` or Adelaide's ``(temperature, demand)``."""
    sim, seed = cfg["sim"], _derived_seeds(cfg["master_seed"], 0)[0]
    if cfg["kind"] == "phoneme":
        return (make_phoneme_standin(
            n_samples=sim["n_samples"], m_points=sim["m_points"],
            class_sep=cfg["standin_class_sep"], seed=seed,
        ),)
    return make_adelaide_standin(n_weeks=sim["n_samples"], m_points=sim["m_points"], seed=seed)


# --- simulate ---------------------------------------------------------------------


def run_simulate(cfg: dict, out_dir) -> list:
    """Write the configured synthetic dataset; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    kind = cfg["kind"]
    if kind in REALDATA_PATHS:
        for key, ds in zip(REALDATA_PATHS[kind], _standin(cfg)):
            written.append(save_csv(ds, out_dir / f"{key}_standin.csv"))
    else:
        sim_cfg = _sim_config(cfg, _derived_seeds(cfg["master_seed"], 0)[0])
        ds = sample_gp(sim_cfg)
        written.append(save_csv(ds, out_dir / f"{kind}_dataset.csv"))
        print(
            f"simulated N={ds.n_samples} R={ds.n_features} M={ds.n_points} "
            f"seed={sim_cfg.seed}"
        )
    return written


# --- train ------------------------------------------------------------------------


def run_train(cfg: dict, out_dir) -> list:
    """Train the configured model on the dataset (file, or fresh simulation for sim kinds)."""
    dataset_path = cfg["paths"]["dataset"]
    if not dataset_path and cfg["kind"] in REALDATA_PATHS:
        raise ValueError(f"train --kind {cfg['kind']} needs paths.dataset; to fit the "
                         f"{cfg['kind']} data or stand-in, run bfae realdata --kind {cfg['kind']}")
    if cfg["standardize"]:
        raise ValueError("train fits raw curves; set standardize=false (--set standardize=false), "
                         "or run bfae realdata to fit standardized curves")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim_seed, _, bfae_seed, _ = _derived_seeds(cfg["master_seed"], 0)
    if dataset_path:
        ds = load_csv(dataset_path)
    else:
        ds = sample_gp(_sim_config(cfg, sim_seed))
    model_cfg = _bfae_config(cfg, ds.grid, ds.n_features, cfg["bfae"]["latent_points"], bfae_seed)
    model = build(model_cfg)
    history = train(model, ds.values)
    model_path = save_model(model, out_dir / "model.json")
    history_path = out_dir / "history.csv"
    Report(("epoch", "loss"), list(enumerate(history.losses))).write_csv(history_path)
    print(f"final loss {history.losses[-1]:.6g} (initial {history.losses[0]:.6g})")
    return [model_path, history_path]


# --- benchmark ---------------------------------------------------------------------


def _benchmark_replication(args):
    cfg, rep = args
    sim_seed, split_seed, bfae_seed, ae_seed = _derived_seeds(cfg["master_seed"], rep)
    sim_cfg = _sim_config(cfg, sim_seed)
    ds = sample_gp(sim_cfg)
    train_ds, test_ds = train_test_split(ds, _split(cfg, split_seed))
    n, r, m = ds.values.shape

    rows = []
    figure = None
    for method, reducer, model_cfg in _methods(cfg, ds.grid, r, bfae_seed, with_none=False):
        m_latent = model_cfg.latent_shape[1] if reducer == "bfae" else None
        r_latent = model_cfg.latent_shape[0] if reducer == "bfae" else None
        base = {
            "method": method, "n": n, "m": m, "r": r,
            "m_latent": m_latent, "r_latent": r_latent, "replication": rep,
        }
        try:
            reconstruct = fit_reducer(
                reducer, train_ds.values, ds.grid,
                bfae_config=model_cfg,
                variance_target=cfg["variance_target"],
                ae_lr=cfg["ae"]["lr"], ae_epochs=cfg["ae"]["epochs"],
                seed=ae_seed,
            )
            for split_name, part in (("train", train_ds), ("test", test_ds)):
                rows.append({
                    **base, "split": split_name, "metric": "functional_rmse",
                    "value": functional_rmse(part.values, reconstruct(part.values), ds.grid),
                })
            if rep == 0:
                if figure is None:
                    figure = {"t": ds.grid.points, "truth": test_ds.values[0, 0]}
                figure[method] = reconstruct(test_ds.values[:1])[0, 0]
        except Exception as exc:  # cell failure: flush a marker row, keep going
            rows.append({
                **base, "split": "error", "metric": "failure", "value": float("nan"),
            })
            print(f"replication {rep} method {method} failed: {exc}")
    return rows, figure


def run_benchmark(cfg: dict, out_dir, jobs: int = 1):
    """Replicated simulation benchmark; returns ``(paths, all_cells_ok)``."""
    kind, reps = cfg["kind"], int(cfg["replications"])
    if kind in REALDATA_PATHS:
        raise ValueError(f"benchmark fits simulated curves only; to fit the {kind} "
                         f"data or stand-in, run bfae realdata --kind {kind}")
    if cfg["standardize"]:
        raise ValueError("benchmark fits raw simulated curves; set standardize=false")
    if reps < 1 or jobs < 1:
        raise ValueError(f"replications and jobs must be >= 1, got {reps} and {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, rep) for rep in range(reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_benchmark_replication, tasks))
    else:
        results = [_benchmark_replication(task) for task in tasks]

    report = Report(columns=BENCHMARK_COLUMNS)
    for rows, _ in results:
        report.extend(rows)
    summarize_benchmark(report)

    paths = _write_report(report, out_dir)
    figure = results[0][1]  # replication 0 reconstructs the figure's curve
    if figure is not None:
        # columns: t, truth, then each method that reconstructed
        fig = Report(tuple(figure), list(zip(*figure.values())))
        paths.append(fig.write_csv(out_dir / "figure_reconstruction.csv"))
    return paths, all(row["metric"] != "failure" for rows, _ in results for row in rows)


# --- real data ----------------------------------------------------------------------


def _realdata(cfg: dict) -> tuple:
    """One dataset per ``REALDATA_PATHS`` key of the kind: its CSVs when all its
    ``paths`` keys are set, its stand-in when none are."""
    keys = REALDATA_PATHS[cfg["kind"]]
    unset = [f"paths.{key}" for key in keys if not cfg["paths"][key]]
    named = " and ".join(f"paths.{key}" for key in keys)
    if not unset:
        data = tuple(load_csv(cfg["paths"][key], expect_m=cfg["sim"]["m_points"]) for key in keys)
        if len({ds.n_samples for ds in data}) > 1:
            raise ValueError("temperature and demand files must pair sample for sample")
        return data
    if len(unset) < len(keys):
        raise ValueError(f"{' and '.join(unset)} is not set; the {cfg['kind']} data "
                         f"needs {named}, or none of them for the stand-in")
    if not cfg["standin"]:
        raise FileNotFoundError(f"no {cfg['kind']} CSV configured and stand-in mode is off; "
                                f"convert the source data to the documented CSV schema and "
                                f"set {named}, or set standin=true")
    return _standin(cfg)


def run_realdata(cfg: dict, out_dir):
    """Real-data (or stand-in) protocol; returns ``(paths, all_cells_ok)``."""
    kind = cfg["kind"]
    if kind not in REALDATA_PATHS:
        raise ValueError("realdata runs need kind 'phoneme' or 'adelaide'")
    if cfg["replications"] != 1:
        raise ValueError(f"realdata runs one split; set replications=1, not {cfg['replications']}")
    _, split_seed, bfae_seed, _ = _derived_seeds(cfg["master_seed"], 0)
    split = _split(cfg, split_seed)
    if kind == "phoneme":
        (ds,) = _realdata(cfg)
        train_in, test_in = train_test_split(ds, split)
        data = PipelineData(train_inputs=train_in, test_inputs=test_in)
        task = "classify"
    else:
        temp, demand = _realdata(cfg)
        tr_idx, te_idx = split_indices(temp.n_samples, split)
        data = PipelineData(
            train_inputs=temp.subset(tr_idx),
            test_inputs=temp.subset(te_idx),
            train_outputs=demand.subset(tr_idx),
            test_outputs=demand.subset(te_idx),
        )
        task = "regress"
    inputs = data.train_inputs
    methods = _methods(cfg, inputs.grid, inputs.n_features, bfae_seed, with_none=True)
    chash = config_hash(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = Report(columns=PIPELINE_COLUMNS)
    ok = True
    for method, reducer, model_cfg in methods:
        pipe_cfg = PipelineConfig(
            bfae=model_cfg,
            ridge=cfg["downstream"]["ridge"],
            standardize=cfg["standardize"],
            variance_target=cfg["variance_target"],
            ae_lr=cfg["ae"]["lr"],
            ae_epochs=cfg["ae"]["epochs"],
            seed=cfg["master_seed"],
        )
        try:
            for row in evaluate_pipeline(reducer, task, data, pipe_cfg):
                report.add(method=method, dataset=kind, seed=cfg["master_seed"],
                           config_hash=chash, **row)
        except Exception as exc:
            ok = False
            report.add(method=method, dataset=kind, split="error", metric="failure",
                       value=float("nan"), seed=cfg["master_seed"], config_hash=chash)
            print(f"method {method} failed: {exc}")

    paths = _write_report(report, out_dir)
    paths.append(_write_curves_csv(out_dir / "sample_curves.csv", data))
    return paths, ok


def _write_curves_csv(path: Path, data: PipelineData) -> Path:
    """Plot-ready curves for a handful of test samples (figure data)."""
    ds, outputs = data.test_inputs, data.test_outputs
    k = min(3, ds.n_samples)
    curves = [("t", ds.grid.points)]  # (column, values) pairs
    for i in range(k):
        tag = f"sample{i}" if ds.labels is None else f"sample{i}_{ds.labels[i]}"
        curves += [(f"{tag}_{name}", ds.values[i, r]) for r, name in enumerate(ds.feature_names)]
    if outputs is not None:
        for i in range(k):
            curves += [(f"sample{i}_{name}_output", outputs.values[i, r])
                       for r, name in enumerate(outputs.feature_names)]
    columns, series = zip(*curves)
    return Report(columns, list(zip(*series))).write_csv(path)
