"""The benchmark's four workloads.

Three run the CLI's protocols in-process (``experiments.run_benchmark`` for
``sim1``, ``experiments.run_realdata`` for ``adelaide`` and ``phoneme``) at
the shipped data shapes, with only epoch budgets and replication counts cut.
The fourth, ``encode``, only reads trained parameters: it reloads saved
models and pushes fresh curves through ``encode`` and ``reconstruct``.

A workload is driven by ``run.py``: ``prepare()`` several times (set-up),
then ``run_round()`` until the run's seconds are spent, then
``end_to_end()`` or ``per_layer()``.  Each returns the metrics every workload
reports (``END_TO_END`` or ``PER_LAYER``, the names in ``BENCHMARK.json``)
plus details that only apply to that workload (``DETAILS``, printed as
``info`` lines).  Every round is checked; a failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from bfae import baselines, evaluate, experiments, gp, standins
from bfae import data as bdata
from bfae import model as bmodel
from bfae import report as breport
from bfae.grids import make_uniform_grid

import oracles
from speed import SpeedProbe
from tracing import Tracer, patched, perf, point


# Metrics every workload reports; ``run.py`` adds ``setup_s`` and
# ``peak_rss_mb`` to the end-to-end ones.
END_TO_END = ("run_s", "bfae_s")
PER_LAYER = ("layers.forward_s", "layers.self_s", "layers.calls", "layers.gflops",
             "model.self_s", "inputs.make_s", "trace.run_s")

# Figures that apply to some workloads only: printed, never gated.
DETAILS = {
    "fit_s.bfae": "s", "fit_s.bfae_reduced": "s", "fit_s.ae": "s", "head_s": "s",
    "test_rmse.bfae": "data_units", "test_rmse.bfae_reduced": "data_units",
    "encode_b1_us": "us", "reconstruct_curves_per_s": "1/s",
    "layers.backward_s": "s", "layers.sgd_step_s": "s",
    "model.train_self_s": "s", "model.epoch_us": "us",
    "model.load_model_s": "s", "model.encode_s": "s",
    "baselines.ae_epoch_us": "us", "baselines.pca_fit_s": "s", "baselines.fpca_fit_s": "s",
    "evaluate.flm_fit_s": "s", "evaluate.flm_iterations": "count",
    "evaluate.select_ridge_s": "s", "evaluate.fof_fit_s": "s",
    "gp.sample_gp_s": "s", "standins.make_s": "s", "data.standardize_s": "s",
    "data.split_s": "s", "report.write_s": "s",
    "encode_b1_us.p99": "us", "encode_b1_us.samples": "count",
}


class CheckFailed(Exception):
    """The program's output failed one of the benchmark's checks."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- config cuts --------------------------------------------------------------

# Shapes stay at the shipped defaults; only these keys are cut, so that each
# protocol round fits in a run (the full defaults take 34 s for sim1, 57 s
# for phoneme and 124 s for adelaide).  Phoneme keeps more than half its bfae
# budget because its training loss jumps: on some seeds the test RMSE is no
# better than the training-mean curve's at epochs 300-1000 and at 1400, while
# at 1700 it is at most 0.81 of it on the eight seeds tried.
TRAINING = {
    "sim1": {"kind": "sim1", "cuts": {"replications": 1}},
    "adelaide": {"kind": "adelaide", "cuts": {"bfae.epochs": 600, "ae.epochs": 300}},
    "phoneme": {"kind": "phoneme", "cuts": {"bfae.epochs": 1700, "ae.epochs": 300}},
}


def lookup(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"config key {dotted!r} is not in the defaults (no {part!r})")
        node = node[part]
    return node


def leaves(cfg: dict, prefix: str = ""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def guarded_config(kind: str, cuts: dict, seed: int) -> dict:
    """``default_config(kind)`` with ``cuts`` and the master seed applied.

    ``experiments.apply_overrides`` accepts unknown keys silently, so every
    key is looked up in the defaults first, and afterwards the effective
    values must equal the requested ones and no other leaf may have moved.
    """
    base = experiments.default_config(kind)
    overrides = dict(cuts, master_seed=seed)
    for key in overrides:
        lookup(base, key)
    cfg = experiments.apply_overrides(
        base, [f"{key}={json.dumps(value)}" for key, value in overrides.items()]
    )
    before, after = dict(leaves(base)), dict(leaves(cfg))
    if set(before) != set(after):
        raise ValueError(f"overrides changed the key set: {sorted(set(before) ^ set(after))}")
    moved = {key for key in after if after[key] != before[key]}
    if not moved <= set(overrides):
        raise ValueError(f"overrides moved other keys: {sorted(moved - set(overrides))}")
    for key, value in overrides.items():
        if lookup(cfg, key) != value:
            raise ValueError(f"effective {key} is {lookup(cfg, key)!r}, wanted {value!r}")
    return cfg


# --- independent reproductions of the protocols' inputs -------------------------


def derived_seeds(master: int, replication: int) -> list:
    """The protocols' per-replication seeds: (data, split, bfae, ae)."""
    state = np.random.SeedSequence([master, replication]).generate_state(4)
    return [int(s) for s in state]


def split_indices(n: int, fraction: float, seed: int):
    n_train = min(max(int(round(fraction * n)), 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    return order[:n_train], order[n_train:]


def checked_weights(grid, a: float, b: float) -> np.ndarray:
    """Oracle trapezoid weights for a protocol grid, checked against it."""
    points = np.linspace(a, b, len(grid))
    weights = oracles.trapezoid_weights(points)
    check(np.array_equal(grid.points, points), "grid points differ from linspace")
    check(
        oracles.max_relative_error(grid.quad_weights, weights) <= 1e-15,
        "grid quadrature weights differ from the trapezoid formula",
    )
    return weights


class Case:
    """One protocol replication's raw train/test inputs and oracle figures."""

    def __init__(self, train, test, weights, standardize: bool):
        self.train = np.array(train, dtype=np.float64)
        self.test = np.array(test, dtype=np.float64)
        self.weights = weights
        if standardize:
            self.mean = self.train.mean(axis=0)
            self.sd = np.maximum(self.train.std(axis=0, ddof=0), 1e-12)
        else:
            self.mean = self.sd = None
        self.mean_rmse = oracles.mean_curve_rmse(self.train, self.test, weights)

    def raw(self, values):
        """Undo the training-split standardization the protocol applied."""
        return values if self.mean is None else values * self.sd + self.mean


def _reports(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: Path(p).name):
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _median(values):
    return statistics.median(values)


# --- training workloads ---------------------------------------------------------


def _flops(layer) -> float:
    j_out, j_in, m_out, m_in = layer.weights.shape
    return 2.0 * (j_in * m_in) * (j_out * m_out)


def _count_forward(args, kwargs, result, stats):
    stats.counts["flops"] += _flops(args[0]) * args[1].shape[0]
    return result


def _count_backward(args, kwargs, result, stats):
    stats.counts["flops"] += 2.0 * _flops(args[0]) * args[1].input.shape[0]
    return result


def _count_train_epochs(args, kwargs, result, stats):
    stats.counts["epochs"] += result.losses.size
    return result


def _count_ae_epochs(args, kwargs, result, stats):
    stats.counts["epochs"] += result[1].losses.size
    return result


def _count_iterations(args, kwargs, result, stats):
    stats.counts["iterations"] += result.objective_path.size - 1
    return result


# Per-layer details that report a span's total time, per training workload.
_COMMON_TOTALS = {
    "baselines.pca_fit_s": "baselines.pca_fit",
    "baselines.fpca_fit_s": "baselines.fpca_fit",
    "report.write_s": "report.write",
}
_REALDATA_TOTALS = {
    "evaluate.select_ridge_s": "evaluate.select_ridge",
    "standins.make_s": "standins.make",
    "data.standardize_s": "data.standardize",
}
SPAN_TOTALS = {
    "sim1": {**_COMMON_TOTALS, "gp.sample_gp_s": "gp.sample_gp", "data.split_s": "data.split"},
    "adelaide": {**_COMMON_TOTALS, **_REALDATA_TOTALS, "evaluate.fof_fit_s": "evaluate.fof_fit"},
    "phoneme": {**_COMMON_TOTALS, **_REALDATA_TOTALS, "evaluate.flm_fit_s": "evaluate.flm_fit",
                "data.split_s": "data.split"},
}


LAYER_SPANS = ("layers.forward", "layers.backward", "layers.sgd_step")
MODEL_SPANS = ("model.train", "model.load_model", "model.encode", "model.reconstruct")


def layer_points():
    return [
        point(bmodel, "layer_forward", "layers.forward", after=_count_forward),
        point(bmodel, "layer_backward", "layers.backward", after=_count_backward),
        point(bmodel, "sgd_step", "layers.sgd_step"),
        point(bmodel.BFAEModel, "encode", "model.encode"),
        point(bmodel.BFAEModel, "reconstruct", "model.reconstruct"),
    ]


def layer_metrics(tracer: Tracer, backward: bool) -> dict:
    """The layer and model metrics; ``backward`` says whether the workload
    trains, so that backward and update spans must have recorded calls."""
    tracer.require(["layers.forward"] + (["layers.backward", "layers.sgd_step"] if backward else []))
    stats = {name: tracer.stats[name] for name in LAYER_SPANS}
    busy = stats["layers.forward"].self_time + stats["layers.backward"].self_time
    flops = sum(s.counts["flops"] for s in stats.values())
    out = {
        "layers.forward_s": stats["layers.forward"].self_time,
        "layers.self_s": sum(s.self_time for s in stats.values()),
        "layers.calls": sum(s.calls for s in stats.values()),
        "layers.gflops": flops / busy / 1e9,
        "model.self_s": sum(tracer.stats[name].self_time for name in MODEL_SPANS),
    }
    if backward:
        out["layers.backward_s"] = stats["layers.backward"].self_time
        out["layers.sgd_step_s"] = stats["layers.sgd_step"].self_time
    return out


def inputs_made(tracer: Tracer) -> float:
    """Time in the outermost calls that make or prepare inputs."""
    if not tracer.intervals["inputs"]:
        raise RuntimeError("span group inputs recorded no call")
    return tracer.groups["inputs"]


def fit_method(args, kwargs, cfg) -> str:
    """The report's method name for a ``fit_reducer(name, ...)`` call."""
    if args[0] != "bfae":
        return args[0]
    points = kwargs["bfae_config"].latent_shape[1]
    return "bfae" if points == cfg["bfae"]["latent_points"] else "bfae_reduced"


def timer_points(owner, cfg, record=None):
    """The spans the end-to-end metrics need: fits by method and head fits."""
    return [
        point(owner, "fit_reducer", lambda a, k: "fit." + fit_method(a, k, cfg), after=record),
        point(evaluate, "select_ridge", "evaluate.select_ridge", group="head"),
        point(evaluate, "flm_classify_fit", "evaluate.flm_fit", group="head",
              after=_count_iterations),
        point(evaluate, "fof_fit", "evaluate.fof_fit", group="head"),
    ]


class TrainingWorkload:
    """One CLI protocol run per round, with ``jobs=1``."""

    def __init__(self, name: str, seed: int, trace: bool, run_dir: Path):
        spec = TRAINING[name]
        self.name, self.kind, self.cuts = name, spec["kind"], spec["cuts"]
        self.seed, self.trace, self.run_dir = seed, trace, run_dir
        self.realdata = self.kind in ("phoneme", "adelaide")
        self.probe = SpeedProbe()
        self.rounds: list = []
        self.digest = None
        self.margin = 0.0  # worst test RMSE over the training-mean curve's

    # set-up -----------------------------------------------------------------

    def prepare(self):
        cfg = guarded_config(self.kind, self.cuts, self.seed)
        sim = cfg["sim"]
        a, b = sim.get("interval", [0.0, 1.0])
        frac = cfg["split"]["train_fraction"]
        check(cfg["split"]["shuffle"], "the split oracle assumes a shuffled split")
        cases = []
        for rep in range(cfg["replications"] if not self.realdata else 1):
            data_seed, split_seed, _, _ = derived_seeds(self.seed, rep)
            if self.kind == "phoneme":
                ds = standins.make_phoneme_standin(
                    n_samples=sim["n_samples"], m_points=sim["m_points"],
                    class_sep=cfg["standin_class_sep"], seed=data_seed,
                )
            elif self.kind == "adelaide":
                ds, _ = standins.make_adelaide_standin(
                    n_weeks=sim["n_samples"], m_points=sim["m_points"], seed=data_seed,
                )
            else:
                grid = make_uniform_grid(a, b, sim["m_points"])
                ds = gp.sample_gp(gp.SimConfig(
                    n_samples=sim["n_samples"], n_features=sim["n_features"], grid=grid,
                    matern=gp.MaternParams(**sim["matern"]), noise_sd=sim["noise_sd"],
                    seed=data_seed,
                ))
            tr, te = split_indices(ds.n_samples, frac, split_seed)
            weights = checked_weights(ds.grid, a, b)
            cases.append(Case(ds.values[tr], ds.values[te], weights, cfg["standardize"]))
        self.cfg, self.cases = cfg, cases
        self.methods = (["none"] if self.realdata else []) + [
            m for m in ("pca", "ae", "fpca") if cfg["baselines"][m]
        ] + ["bfae", "bfae_reduced"]

    def describe(self) -> str:
        c = self.cfg
        return (
            f"{self.name}: replications={c['replications']} bfae.epochs={c['bfae']['epochs']} "
            f"ae.epochs={c['ae']['epochs']} n={c['sim']['n_samples']} m={c['sim']['m_points']}"
        )

    # timed part ---------------------------------------------------------------

    def _record(self, args, kwargs, result, stats):
        method = fit_method(args, kwargs, self.cfg)
        rep = sum(1 for m, _ in self.fits if m == method)
        self.fits.append((method, rep))

        def reconstruct(values):
            out = result(values)
            self.outputs.append((method, rep, np.asarray(values).shape[0], out))
            return out

        return reconstruct

    def points(self):
        owner = evaluate if self.realdata else experiments
        pts = timer_points(owner, self.cfg, record=self._record)
        if self.trace:
            pts += layer_points() + [
                point(evaluate, "train", "model.train", after=_count_train_epochs),
                point(baselines, "pca_fit", "baselines.pca_fit"),
                point(baselines, "fpca_fit", "baselines.fpca_fit"),
                point(baselines, "ae_fit", "baselines.ae_fit", after=_count_ae_epochs),
                point(experiments, "sample_gp", "gp.sample_gp", group="inputs"),
                point(experiments, "make_phoneme_standin", "standins.make", group="inputs"),
                point(experiments, "make_adelaide_standin", "standins.make", group="inputs"),
                point(experiments, "train_test_split", "data.split", group="inputs"),
                point(bdata.Standardizer, "fit", "data.standardize", group="inputs"),
                point(bdata.Standardizer, "apply", "data.standardize", group="inputs"),
                point(bdata.Standardizer, "invert_values", "data.standardize", group="inputs"),
                point(breport.Report, "write_csv", "report.write"),
                point(breport.Report, "write_json", "report.write"),
            ]
        return pts

    def run_round(self) -> tuple:
        out_dir = self.run_dir / f"round{len(self.rounds)}"
        tracer = Tracer(probe=self.probe, keep=("fit.",))
        self.fits, self.outputs = [], []
        with self.probe.ticking(), patched(tracer, self.points()):
            with tracer.span("round"):
                if self.realdata:
                    paths, ok = experiments.run_realdata(self.cfg, out_dir)
                else:
                    paths, ok = experiments.run_benchmark(self.cfg, out_dir, jobs=1)
        check(ok, "the protocol reported a failed cell")
        rows = self._check_round(paths)
        shutil.rmtree(out_dir)
        self.rounds.append((tracer, rows))
        return len(self.fits), 0

    # checks -------------------------------------------------------------------

    def _check_round(self, paths) -> dict:
        digest = _reports(paths)
        if self.digest is None:
            self.digest = digest
        check(digest == self.digest, "report files differ between rounds of one seed")

        with open(paths[0], newline="", encoding="utf-8") as f:
            table = list(csv.DictReader(f))
        rows = {}
        for row in table:
            check(row["metric"] != "failure", f"failure row for {row['method']}")
            value = float(row["value"])
            check(math.isfinite(value), f"non-finite report value in {row}")
            key = (row["method"], row.get("replication", "0"), row["split"], row["metric"])
            check(key not in rows, f"duplicate report row {key}")
            rows[key] = value
        check(rows.keys() == self._expected_rows(), "report rows differ from the expected set")
        check(sorted(self.fits) == sorted(
            (m, rep) for m in self.methods for rep in range(len(self.cases))
        ), "fit_reducer calls differ from one per method and replication")

        rmse = "reconstruction_rmse" if self.realdata else "functional_rmse"
        recomputed = 0
        for method, rep, n, out in self.outputs:
            case = self.cases[rep]
            for split, truth in (("train", case.train), ("test", case.test)):
                if n != truth.shape[0]:
                    continue
                reported = rows[(method, "0" if self.realdata else str(rep), split, rmse)]
                oracle = oracles.functional_rmse(truth, case.raw(out), case.weights)
                check(
                    abs(reported - oracle) <= 1e-10 * max(oracle, 1e-300) + 1e-15,
                    f"{method} {split} RMSE {reported!r} differs from oracle {oracle!r}",
                )
                recomputed += 1
        check(recomputed == 2 * len(self.fits), "not every reported RMSE was recomputed")

        for method in self.methods:
            for rep, case in enumerate(self.cases):
                rep_key = "0" if self.realdata else str(rep)
                test = rows[(method, rep_key, "test", rmse)]
                if method == "none":
                    check(test <= 1e-12 and rows[(method, rep_key, "train", rmse)] <= 1e-12,
                          "method none does not reconstruct its input")
                else:
                    self.margin = max(self.margin, test / case.mean_rmse)
                    check(test < case.mean_rmse,
                          f"{method} test RMSE {test:.4g} does not beat the "
                          f"training-mean curve ({case.mean_rmse:.4g})")
            if self.kind == "phoneme":
                for split in ("train", "test"):
                    err = rows[(method, "0", split, "classification_error")]
                    check(0.0 <= err < 0.5, f"{method} {split} classification error {err}")
        return rows

    def _expected_rows(self) -> set:
        if self.realdata:
            task = "classification_error" if self.kind == "phoneme" else "regression_rmse"
            return {
                (m, "0", split, metric)
                for m in self.methods for split in ("train", "test")
                for metric in ("reconstruction_rmse", task)
            }
        reps = [str(r) for r in range(len(self.cases))] + ["mean"]
        return {
            (m, rep, split, "functional_rmse")
            for m in self.methods for rep in reps for split in ("train", "test")
        }

    # metrics ------------------------------------------------------------------

    def end_to_end(self) -> dict:
        per_round = []
        for tracer, rows in self.rounds:
            values = {
                "run_s": tracer.normalized("round"),
                "fit_s.bfae": tracer.normalized("fit.bfae"),
                "fit_s.bfae_reduced": tracer.normalized("fit.bfae_reduced"),
                "fit_s.ae": tracer.normalized("fit.ae"),
            }
            values["bfae_s"] = values["fit_s.bfae"] + values["fit_s.bfae_reduced"]
            if self.realdata:
                values["head_s"] = tracer.normalized("head")
            rep, rmse = ("0", "reconstruction_rmse") if self.realdata else ("mean", "functional_rmse")
            for method in ("bfae", "bfae_reduced"):
                values[f"test_rmse.{method}"] = rows[(method, rep, "test", rmse)]
            per_round.append(values)
        return {name: _median([v[name] for v in per_round]) for name in per_round[0]}

    def per_layer(self) -> dict:
        totals = SPAN_TOTALS[self.name]
        per_round = []
        for tracer, _ in self.rounds:
            tracer.require(["model.train", "model.reconstruct", "baselines.ae_fit",
                            *totals.values()])
            train, ae = tracer.stats["model.train"], tracer.stats["baselines.ae_fit"]
            values = layer_metrics(tracer, backward=True)
            values.update({
                "inputs.make_s": inputs_made(tracer),
                "model.train_self_s": train.self_time,
                "model.epoch_us": 1e6 * train.total / train.counts["epochs"],
                "baselines.ae_epoch_us": 1e6 * ae.total / ae.counts["epochs"],
                "trace.run_s": tracer.normalized("round"),
            })
            values.update({metric: tracer.stats[span].total for metric, span in totals.items()})
            if self.kind == "phoneme":
                values["evaluate.flm_iterations"] = (
                    tracer.stats["evaluate.flm_fit"].counts["iterations"]
                )
            per_round.append(values)
        return {name: _median([v[name] for v in per_round]) for name in per_round[0]}

    def tracers(self) -> list:
        return [tracer for tracer, _ in self.rounds]


# --- encode workload ------------------------------------------------------------

B1_CALLS = 128       # one-curve encode calls per model per round
BATCH = 1024         # curves per reconstruct call
BATCH_CALLS = 4      # reconstruct calls per model per round
PROBE = 8            # curves in the bit-for-bit reload probe


def shipped_shapes() -> list:
    """``(name, R, M, R', M')`` for every shipped kind and both latent variants."""
    n_features = {"sim1": None, "sim10": None, "phoneme": 1,
                  "adelaide": len(standins.DAY_NAMES)}
    shapes = []
    for kind, r in n_features.items():
        cfg = experiments.default_config(kind)
        r = cfg["sim"]["n_features"] if r is None else r
        m, latent = cfg["sim"]["m_points"], cfg["bfae"]["latent_features"]
        for variant, points in (("plain", cfg["bfae"]["latent_points"]),
                                ("reduced", cfg["bfae_reduced_points"])):
            shapes.append((f"{kind}.{variant}", r, m, latent, points))
    return shapes


class EncodeWorkload:
    """Reload saved models and run encode/reconstruct on fresh curves."""

    def __init__(self, name: str, seed: int, trace: bool, run_dir: Path):
        self.name, self.seed, self.trace, self.run_dir = name, seed, trace, run_dir
        self.probe = SpeedProbe()
        self.rounds: list = []
        self.latencies: dict = {}

    def prepare(self):
        model_dir = self.run_dir / "models"
        model_dir.mkdir(parents=True, exist_ok=True)
        self.models = []
        for index, (name, r, m, latent, points) in enumerate(shipped_shapes()):
            config = bmodel.bottleneck_config(
                n_features=r, n_points=m, latent_features=latent, latent_points=points,
                seed=derived_seeds(self.seed, index)[2],
            )
            model = bmodel.build(config)
            rng = np.random.default_rng(derived_seeds(self.seed, index)[3])
            for layer in model.layers:
                layer.biases[...] = rng.normal(scale=0.1, size=layer.biases.shape)
            path = bmodel.save_model(model, model_dir / f"{name}.json")
            probe = rng.standard_normal((PROBE, r, m))
            layers = [
                (lay.weights.copy(), lay.biases.copy(),
                 oracles.uniform_weights(*config.interval, len(lay.in_grid)),
                 lay.activation.kind)
                for lay in model.layers
            ]
            self.models.append({
                "name": name, "path": path, "shape": (r, m), "index": index,
                "probe": probe, "probe_out": model.reconstruct(probe),
                "encoder": layers[: model.latent_index], "layers": layers,
            })
            self.latencies.setdefault(name, [])

    def describe(self) -> str:
        return (f"encode: {len(self.models)} models, {B1_CALLS} one-curve encodes and "
                f"{BATCH_CALLS}x{BATCH} reconstructs per model per round")

    def points(self):
        pts = [
            point(bmodel, "load_model", "model.load_model"),
            point(gp, "sample_gp", "gp.sample_gp", group="inputs"),
        ]
        if self.trace:
            pts += layer_points()
        return pts

    def run_round(self) -> tuple:
        # The probe samples only between the timed loops, never inside a call.
        probe = self.probe
        tracer = Tracer(probe=probe, keep=("model.load_model",))
        k = len(self.rounds)
        b1_us, batch_s, loops_s, kept = 0.0, 0.0, 0.0, []
        with patched(tracer, self.points()):
            with tracer.span("round"):
                for spec in self.models:
                    model = bmodel.load_model(spec["path"])
                    r, m = spec["shape"]
                    seed = int(np.random.SeedSequence(
                        [self.seed, k, spec["index"]]
                    ).generate_state(1)[0])
                    curves = gp.sample_gp(gp.SimConfig(
                        n_samples=BATCH, n_features=r, grid=model.data_grid, seed=seed,
                    )).values
                    probe.sample()
                    times = []
                    loops_start = perf()
                    for i in range(B1_CALLS):
                        start = perf()
                        model.encode(curves[i : i + 1])
                        times.append(perf() - start)
                    start = perf()
                    for _ in range(BATCH_CALLS):
                        out = model.reconstruct(curves)
                    end = perf()
                    probe.sample()
                    factor = probe.factor(loops_start, end)
                    b1_us += 1e6 * _median(times) / factor
                    batch_s += (end - start) / factor
                    loops_s += (end - loops_start) / factor
                    self.latencies[spec["name"]].extend(times)
                    kept.append((spec, model, curves, out))
        for spec, model, curves, out in kept:
            self._check(spec, model, curves, out)
        self.rounds.append({
            "tracer": tracer,
            "run_s": probe.normalized(*tracer.intervals["round"][0]),
            "bfae_s": tracer.normalized("model.load_model") + loops_s,
            "encode_b1_us": b1_us,
            "reconstruct_curves_per_s": len(self.models) * BATCH_CALLS * BATCH / batch_s,
        })
        return len(self.models) * (1 + B1_CALLS + BATCH_CALLS), 0

    def _check(self, spec, model, curves, out):
        name = spec["name"]
        latent = model.encode(curves)
        err = oracles.max_relative_error(latent, oracles.integral_forward(curves, spec["encoder"]))
        check(err <= 1e-12, f"{name}: encode differs from the einsum oracle by {err:.3g}")
        err = oracles.max_relative_error(out, oracles.integral_forward(curves, spec["layers"]))
        check(err <= 1e-12, f"{name}: reconstruct differs from the einsum oracle by {err:.3g}")
        check(np.array_equal(model.reconstruct(spec["probe"]), spec["probe_out"]),
              f"{name}: the reloaded model does not reconstruct bit for bit")

    def end_to_end(self) -> dict:
        names = ("run_s", "bfae_s", "encode_b1_us", "reconstruct_curves_per_s")
        return {name: _median([r[name] for r in self.rounds]) for name in names}

    def per_layer(self) -> dict:
        per_round = []
        for r in self.rounds:
            tracer = r["tracer"]
            tracer.require(["model.load_model", "model.encode", "model.reconstruct",
                            "gp.sample_gp"])
            values = layer_metrics(tracer, backward=False)
            values.update({
                "inputs.make_s": inputs_made(tracer),
                "model.load_model_s": tracer.stats["model.load_model"].total,
                "model.encode_s": tracer.stats["model.encode"].total,
                "gp.sample_gp_s": tracer.stats["gp.sample_gp"].total,
                "trace.run_s": r["run_s"],
            })
            per_round.append(values)
        out = {name: _median([v[name] for v in per_round]) for name in per_round[0]}
        samples = min(len(t) for t in self.latencies.values())
        out["encode_b1_us.samples"] = samples
        if samples >= 1000:  # at least ten samples beyond the 99th percentile
            out["encode_b1_us.p99"] = sum(
                1e6 * float(np.percentile(t, 99)) for t in self.latencies.values()
            )
        return out

    def tracers(self) -> list:
        return [r["tracer"] for r in self.rounds]


def wall_s(tracers) -> float:
    """Median raw wall time of a round, before speed normalization."""
    return _median([tracer.stats["round"].total for tracer in tracers])


def coverage(tracers) -> float:
    """Share of the rounds' wall time covered by their direct child spans."""
    roots = [root for tracer in tracers for root in tracer.roots]
    check(all(name == "round" for name, _, _ in roots), "a span ran outside a round")
    return sum(c for _, _, c in roots) / sum(d for _, d, _ in roots)


def make(name: str, seed: int, trace: bool, run_dir: Path):
    if name == "encode":
        return EncodeWorkload(name, seed, trace, run_dir)
    if name in TRAINING:
        return TrainingWorkload(name, seed, trace, run_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(TRAINING) + ['encode']}")
