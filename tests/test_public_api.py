"""The public API: what each module exports resolves, and the package's names are pinned.

Adding or removing a name from ``dptrain`` means editing ``PACKAGE_NAMES``
here, and adding or removing a module means editing ``MODULES``, so the
change shows up for review.
"""

import importlib
import pkgutil
import types

import pytest

import dptrain

MODULES = (
    "accountant",
    "cli",
    "config",
    "data",
    "mechanisms",
    "model",
    "optim",
    "train",
)

PACKAGE_NAMES = {
    # accountant
    "CalibrationError",
    "MechanismSpec",
    "PrivacyLedger",
    "PrivacySpent",
    "accountant_query",
    "calibrate_sigma",
    "classic_gaussian_sigma",
    "kl_divergence",
    "rdp_gaussian",
    "renyi_divergence",
    # config
    "ConfigError",
    "RunConfig",
    "SweepGrid",
    "parse_config_file",
    # data
    "Dataset",
    "load_csv_dataset",
    "save_csv_dataset",
    "synthetic_dataset",
    # mechanisms
    "ClipSpec",
    "gaussian_noise",
    # model
    "Model",
    "ModelValidationError",
    "ValidationReport",
    "accuracy",
    "batch_gradient",
    "build_mlp",
    "load_checkpoint",
    "save_checkpoint",
    "validate_model",
    # optim
    "DpAdamState",
    "StepOutcome",
    "adam_step",
    "dp_adam_step",
    "poisson_subsample",
    # train
    "TrainReport",
    "sweep",
    "train",
}


def test_package_modules_are_pinned():
    # Only what trains ships: the autodiff oracle lives with the tests.
    found = {info.name for info in pkgutil.iter_modules(dptrain.__path__)}
    assert found == set(MODULES), (
        f"added: {sorted(found - set(MODULES))}, removed: {sorted(set(MODULES) - found)}"
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dptrain.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"dptrain.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"dptrain.{name}.__all__ names what it does not define: {missing}"


def test_package_names_are_pinned():
    public = {
        name
        for name, value in vars(dptrain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES, (
        f"added: {sorted(public - PACKAGE_NAMES)}, removed: {sorted(PACKAGE_NAMES - public)}"
    )


def test_package_names_come_from_the_modules():
    # Every package name is one a module exports, the very same object.
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"dptrain.{name}")
        for exported in module.__all__:
            owners.setdefault(exported, getattr(module, exported))
    for name in PACKAGE_NAMES:
        assert name in owners, f"dptrain.{name} is in no module's __all__"
        assert getattr(dptrain, name) is owners[name], name
