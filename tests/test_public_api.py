"""Every name a module exports in ``__all__`` resolves, and the public callables
take exactly the parameters listed here: adding or removing an option means
editing this table on purpose."""

import importlib
import inspect
import pkgutil

import pytest

import bfae

MODULES = ["bfae"] + [f"bfae.{info.name}" for info in pkgutil.iter_modules(bfae.__path__)]

# for each callable in ``bfae.__all__``, the names of its parameters in order
SIGNATURES = {
    "Grid": ("points", "quad_weights"),
    "make_uniform_grid": ("a", "b", "m"),
    "integrate": ("values", "grid"),
    "inner_product": ("f", "g", "grid"),
    "linear_resample": ("values", "from_grid", "to_grid"),
    "FunctionalDataset": ("values", "grid", "feature_names", "labels"),
    "SplitSpec": ("train_fraction", "seed", "shuffle"),
    "Standardizer": (),
    "load_csv": ("path", "expect_m"),
    "save_csv": ("dataset", "path"),
    "train_test_split": ("dataset", "spec"),
    "MaternParams": ("sigma2", "rho", "nu"),
    "SimConfig": ("n_samples", "n_features", "grid", "matern", "noise_sd", "seed"),
    "matern52_cov": ("t", "s", "p"),
    "cov_matrix": ("grid", "p"),
    "sample_gp": ("cfg",),
    "Activation": ("kind",),
    "ContinuousLayer": ("in_grid", "out_grid", "weights", "biases", "activation"),
    "init_layer": ("in_grid", "out_grid", "j_in", "j_out", "activation", "scheme", "seed"),
    "layer_forward": ("layer", "x", "cache", "weighted"),
    "layer_backward": ("layer", "cache", "upstream", "input_grad"),
    "sgd_step": ("layer", "grads", "lr", "cache"),
    "BFAEConfig": ("feature_counts", "grid_sizes", "latent_index", "activations", "interval",
                   "lr", "epochs", "init_scheme", "seed", "optimizer"),
    "BFAEModel": ("layers", "config", "trained_epochs"),
    "TrainHistory": ("losses", "evaluations"),
    "TrainingDiverged": ("*args",),
    "bottleneck_config": ("n_features", "n_points", "latent_features", "latent_points",
                          "n_layers", "hidden", "kwargs"),
    "build": ("config",),
    "train": ("model", "train_values"),
    "reconstruction_loss": ("x", "xhat", "grid"),
    "model_gradients": ("model", "x"),
    "save_model": ("model", "path"),
    "load_model": ("path",),
    "functional_rmse": ("truth", "estimate", "grid"),
    "flm_classify_fit": ("curves", "labels", "grid", "ridge"),
    "flm_classify_predict": ("model", "curves"),
    "fof_fit": ("inputs", "outputs", "in_grid", "out_grid", "ridge"),
    "fof_predict": ("model", "inputs"),
    "evaluate_pipeline": ("reducer", "task", "data", "config"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def parameter_names(obj) -> tuple:
    """The names ``obj`` takes; an exception that keeps its base's ``__init__``
    takes ``*args``."""
    if isinstance(obj, type) and issubclass(obj, BaseException) and "__init__" not in vars(obj):
        return ("*args",)
    return tuple(inspect.signature(obj).parameters)


def test_every_public_callable_takes_exactly_its_listed_parameters():
    found = {name: parameter_names(getattr(bfae, name))
             for name in bfae.__all__ if callable(getattr(bfae, name))}
    assert found == SIGNATURES
