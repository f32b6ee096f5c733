"""The public API: what each module exports resolves, and the package's names are pinned.

Adding or removing a name from ``dptrain`` means editing ``PACKAGE_NAMES``
here, adding or removing a module means editing ``MODULES``, importing a
private name from a sibling module means editing ``SHARED_PRIVATE_NAMES``,
and a new import between sibling modules means editing ``MODULE_IMPORTS``,
so the change shows up for review.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import dptrain

SOURCE = Path(dptrain.__file__).parent

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
    "accuracy",
    "batch_gradient",
    "build_mlp",
    "load_checkpoint",
    "save_checkpoint",
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

# Private helpers one module imports from another: each rule has one
# implementation, in the module that uses the value, and its callers share it.
SHARED_PRIVATE_NAMES = {
    "accountant._check_delta",
    "config._SEED_FIELDS",
    "data._check_synthetic",
    "data._split_sizes",
    "mechanisms._check_placement",
    "mechanisms._span_norms",
    "model._binary_labels",
    "model._check_freeze_prefix",
    "model._input_rows",
    "model._norm_groups",
    "train._fmt",
}


# The sibling modules each module imports from. The graph has no cycle: each
# module imports only modules listed before it in this dict.
MODULE_IMPORTS = {
    "accountant": set(),
    "data": set(),
    "mechanisms": set(),
    "model": {"mechanisms"},
    "config": {"accountant", "data", "mechanisms", "model"},
    "optim": {"accountant", "mechanisms", "model"},
    "train": {"accountant", "config", "data", "mechanisms", "model", "optim"},
    "cli": {"accountant", "config", "data", "train"},
}


def sibling_imports(name: str) -> set[str]:
    """Modules of the package that ``dptrain.<name>`` imports, ``from . import x`` included."""
    found = set()
    for node in ast.walk(ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


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


def test_private_imports_between_modules_are_pinned():
    imported = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update(
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert imported == SHARED_PRIVATE_NAMES, (
        f"added: {sorted(imported - SHARED_PRIVATE_NAMES)}, "
        f"removed: {sorted(SHARED_PRIVATE_NAMES - imported)}"
    )


def test_module_import_graph_is_pinned():
    assert set(MODULE_IMPORTS) == set(MODULES)
    order = list(MODULE_IMPORTS)
    for name, expected in MODULE_IMPORTS.items():
        assert sibling_imports(name) == expected, name
        assert all(order.index(dep) < order.index(name) for dep in expected), name
