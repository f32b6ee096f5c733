import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np
import pytest

from dptrain.accountant import MechanismSpec, PrivacyLedger
from dptrain.config import (
    ConfigError,
    RunConfig,
    SweepGrid,
    _field_parsers,
    parse_config_file,
    run_config_from_mapping,
    sweep_grid_from_mapping,
)
from dptrain.mechanisms import ClipSpec
from dptrain.model import build_mlp
from dptrain.optim import DpAdamState, dp_adam_step


def write(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfigFile:
    def test_basic_pairs_and_comments(self, tmp_path):
        path = write(
            tmp_path,
            "# experiment\nlr = 0.08   # learning rate\n\nepochs = 30\nwidths = 16,16,1\n",
        )
        mapping = parse_config_file(path)
        assert mapping == {"lr": "0.08", "epochs": "30", "widths": "16,16,1"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.conf")

    def test_bad_line(self, tmp_path):
        path = write(tmp_path, "lr 0.08\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(path)

    def test_line_without_a_key(self, tmp_path):
        path = write(tmp_path, "lr = 0.08\n= 3\n")
        with pytest.raises(ConfigError, match=":2: missing key"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "lr = 1\nlr = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.privacy == "target-epsilon"
        assert config.delta == 1e-5

    def test_mapping_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "dataset = synthetic\nn = 500\ndim = 8\nwidths = 8,1\n"
            "privacy = fixed-sigma\nsigma = 1.5\nbudget_eps = 2.0\n"
            "noise_placement = on-sum\n",
        )
        config = run_config_from_mapping(parse_config_file(path))
        assert config.n == 500
        assert config.widths == (8, 1)
        assert config.sigma == 1.5
        assert config.noise_placement == "on-sum"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: leraning_rate"):
            run_config_from_mapping({"leraning_rate": "0.1"})

    def test_sweep_keys_rejected_unless_allowed(self):
        mapping = {"sweep_target_eps": "1,10"}
        with pytest.raises(ConfigError):
            run_config_from_mapping(mapping)
        config = run_config_from_mapping(mapping, allow_sweep_keys=True)
        assert config.privacy == "target-epsilon"

    def test_mode_requirements(self):
        with pytest.raises(ConfigError, match="target_eps"):
            RunConfig(privacy="target-epsilon", target_eps=None)
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig(privacy="fixed-sigma", sigma=None)
        with pytest.raises(ConfigError, match="privacy"):
            RunConfig(privacy="offish")

    def test_csv_requires_path(self):
        with pytest.raises(ConfigError, match="csv_path"):
            RunConfig(dataset="csv")

    @pytest.mark.parametrize("key", ["csv_path", "test_csv_path"])
    def test_synthetic_refuses_csv_paths(self, key):
        # A run on the blobs must not be reported as if it came from the file.
        with pytest.raises(ConfigError, match=rf"^{key} is set"):
            RunConfig(dataset="synthetic", **{key: "/nonexistent/data.csv"})

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(delta=0.0)
        with pytest.raises(ConfigError):
            RunConfig(clip_norm=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(widths=(16, 2))
        with pytest.raises(ConfigError):
            RunConfig(noise_placement="everywhere")
        with pytest.raises(ConfigError):
            RunConfig(train_fraction=1.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n=2000, test_fraction=0.0), "0 test rows, 1600 of 2000 to train"),
            (dict(n=9, test_fraction=0.1), "0 test rows, 7 of 9 to train"),
            (dict(n=2, test_fraction=0.5), "1 test rows, 0 of 1 to train"),
        ],
        ids=["no-test", "test-rounds-to-zero", "no-train"],
    )
    def test_synthetic_split_leaving_a_part_empty_is_refused(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^split leaves no data: {message}$"):
            RunConfig(**overrides)
        # A CSV's row count is unknown until a run reads the file.
        RunConfig(**overrides, dataset="csv", csv_path="data.csv")

    def test_bad_typed_values(self):
        with pytest.raises(ConfigError, match="epochs"):
            run_config_from_mapping({"epochs": "thirty"})
        with pytest.raises(ConfigError, match="sigma"):
            run_config_from_mapping({"sigma": "lots"})
        with pytest.raises(ConfigError, match="widths"):
            run_config_from_mapping({"widths": "a,b"})

    @pytest.mark.parametrize("value", ["16,,1", ",16,1", "16,1,", "16, ,1", ",", ""])
    def test_list_with_an_empty_element_is_refused(self, value):
        message = f"^widths: expected comma-separated integers, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            run_config_from_mapping({"widths": value})


def _ledger(delta):
    PrivacyLedger(MechanismSpec(1.0, 0.5), delta)


def _step(placement):
    model = build_mlp([2, 1], seed=0)
    xs, ys = np.zeros((4, 2)), np.zeros(4)
    ledger = PrivacyLedger(MechanismSpec(1.0, 0.5))
    rng = np.random.default_rng(0)
    dp_adam_step(model, xs, ys, DpAdamState.for_model(model, lr=0.1), ClipSpec(1.0), ledger,
                 rng, rng, noise_placement=placement)


@pytest.mark.parametrize(
    "key, value, consumer",
    [
        ("delta", 0.0, _ledger),
        ("delta", 1.0, _ledger),
        ("delta", -1e-5, _ledger),
        ("delta", 1.5, _ledger),
        ("clip_norm", 0.0, ClipSpec),
        ("clip_norm", -1.0, ClipSpec),
        ("noise_placement", "everywhere", _step),
        ("noise_placement", "", _step),
    ],
)
def test_config_refusal_is_the_consumers(key, value, consumer):
    """RunConfig refuses what the code reading the value refuses, in that code's words."""
    with pytest.raises(ValueError) as consumed:
        consumer(value)
    with pytest.raises(ConfigError) as refused:
        RunConfig(**{key: value})
    assert str(refused.value) == str(consumed.value)
    assert str(refused.value).startswith(key)


class TestSweepGrid:
    def test_defaults_follow_headline_grid(self):
        grid = SweepGrid()
        assert grid.target_eps == (1.0, 2.0, 10.0, 100.0, 1000.0)
        assert grid.clip_norms == (1.0, 0.8, 0.6, 0.4)
        assert len(list(grid.cells())) == 20

    def test_from_mapping_with_inf(self):
        grid = sweep_grid_from_mapping(
            {"sweep_target_eps": "1,10,inf", "sweep_clip_norm": "1.0",
             "sweep_freeze_prefix": "0,1", "seeds_per_cell": "3"}
        )
        assert math.isinf(grid.target_eps[-1])
        assert grid.freeze_prefixes == (0, 1)
        assert len(list(grid.cells())) == 6

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("sweep_target_eps", "1,,10", "comma-separated numbers"),
            ("sweep_clip_norm", "1.0,", "comma-separated numbers"),
            ("sweep_freeze_prefix", ",0", "comma-separated integers"),
        ],
    )
    def test_axis_with_an_empty_element_is_refused(self, key, value, expected):
        with pytest.raises(ConfigError, match=f"^{key}: expected {expected}, got '{value}'$"):
            sweep_grid_from_mapping({key: value})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(target_eps=())
        with pytest.raises(ConfigError):
            SweepGrid(seeds_per_cell=0)

    @pytest.mark.parametrize(
        "axes",
        [
            dict(target_eps=(-math.inf,)),
            dict(target_eps=(10.0, math.nan)),
            dict(target_eps=(0.0,)),
            dict(target_eps=(-1.0, math.inf)),
            dict(clip_norms=(math.nan,)),
            dict(clip_norms=(1.0, math.inf)),
            dict(clip_norms=(0.0,)),
            dict(clip_norms=(-0.5,)),
            dict(freeze_prefixes=(0, -1)),
        ],
        ids=["eps-minus-inf", "eps-nan", "eps-zero", "eps-negative", "clip-nan", "clip-inf",
             "clip-zero", "clip-negative", "freeze-negative"],
    )
    def test_bad_axis_value_rejected(self, axes):
        with pytest.raises(ConfigError, match="sweep"):
            SweepGrid(**axes)


README = Path(__file__).resolve().parent.parent / "README.md"
SWEEP_KEYS = {
    "sweep_target_eps": "target_eps",
    "sweep_clip_norm": "clip_norms",
    "sweep_freeze_prefix": "freeze_prefixes",
    "seeds_per_cell": "seeds_per_cell",
}
# A valid, non-default value for every field.
RUN_VALUES = dict(
    dataset="csv", csv_path="train.csv", test_csv_path="test.csv", n=500, dim=8,
    separation=2.5, label_noise=0.1, test_fraction=0.2, train_fraction=0.7,
    widths=(8, 4, 1), norm="group:2", freeze_prefix=1, lr=0.01, epochs=3,
    batch_size=16, privacy="fixed-sigma",
    target_eps=5.0, sigma=1.5, delta=1e-6, clip_norm=0.5, budget_eps=2.0,
    noise_placement="on-sum", seed_model=11, seed_data=12, seed_poisson=13, seed_noise=14,
)
GRID_VALUES = dict(
    target_eps=(1.0, math.inf), clip_norms=(0.5,), freeze_prefixes=(0, 2), seeds_per_cell=2
)


# The numeric fields, read from the annotations as RunConfig reads them.
INTEGER_FIELDS = [
    name for name, hint in get_type_hints(RunConfig).items() if hint in (int, tuple[int, ...])
]
FLOAT_FIELDS = [
    name for name, hint in get_type_hints(RunConfig).items() if hint in (float, float | None)
]


def with_value(name, value):
    """``RUN_VALUES`` with ``value`` in field ``name`` (a tuple field's first entry)."""
    old = RUN_VALUES[name]
    return {**RUN_VALUES, name: (value, *old[1:]) if isinstance(old, tuple) else value}


def render(key, value):
    if isinstance(value, tuple):
        value = ",".join(str(v) for v in value)
    return f"{key} = {value}\n"


def readme_ini_blocks():
    return re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def block_keys(block):
    """Every key a block names, counting commented-out ``# key = value`` lines."""
    return re.findall(r"^#?\s*(\w+)\s*=", block, re.M)


class TestSchema:
    def test_every_run_field_round_trips(self, tmp_path):
        assert set(RUN_VALUES) == {f.name for f in fields(RunConfig)}
        assert all(getattr(RunConfig(), k) != v for k, v in RUN_VALUES.items())
        text = "".join(render(k, v) for k, v in RUN_VALUES.items())
        config = run_config_from_mapping(parse_config_file(write(tmp_path, text)))
        assert config == RunConfig(**RUN_VALUES)

    def test_every_sweep_field_round_trips(self, tmp_path):
        assert set(SWEEP_KEYS.values()) == {f.name for f in fields(SweepGrid)}
        assert all(getattr(SweepGrid(), k) != v for k, v in GRID_VALUES.items())
        text = "".join(render(key, GRID_VALUES[name]) for key, name in SWEEP_KEYS.items())
        mapping = parse_config_file(write(tmp_path, text))
        assert sweep_grid_from_mapping(mapping) == SweepGrid(**GRID_VALUES)
        assert run_config_from_mapping(mapping, allow_sweep_keys=True) == RunConfig()

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(RunConfig) if get_type_hints(RunConfig)[f.name] in
                 (float, float | None)]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{**RUN_VALUES, name: value})

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, np.float64(3.0), "3"],
                             ids=["True", "False", "2.5", "2.0", "np.float64", "str"])
    def test_integer_fields_refuse_bools_and_non_integers(self, name, value):
        # Checked before any range check, so a string is a ConfigError, not a TypeError.
        with pytest.raises(ConfigError, match=rf"^{name} must be (an integer|a tuple of integers), got "):
            RunConfig(**with_value(name, value))

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [True, False, "0.5"], ids=["True", "False", "str"])
    def test_float_fields_refuse_bools_and_non_numbers(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be a number, got "):
            RunConfig(**with_value(name, value))

    def test_numpy_scalars_pass(self):
        values = {name: np.int64(RUN_VALUES[name]) for name in INTEGER_FIELDS if name != "widths"}
        values.update({name: np.float64(RUN_VALUES[name]) for name in FLOAT_FIELDS})
        values["widths"] = tuple(np.int64(w) for w in RUN_VALUES["widths"])
        assert RunConfig(**{**RUN_VALUES, **values}) == RunConfig(**RUN_VALUES)

    @pytest.mark.parametrize(
        "name, value",
        [("seeds_per_cell", True), ("seeds_per_cell", 2.0), ("freeze_prefixes", (0, 1.0)),
         ("freeze_prefixes", (False,)), ("target_eps", (True,)), ("clip_norms", ("0.5",))],
    )
    def test_sweep_grid_refuses_bools_and_values_of_the_wrong_kind(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be "):
            SweepGrid(**{**GRID_VALUES, name: value})

    @pytest.mark.parametrize("cls, values, name", [
        pytest.param(cls, values, name, id=name)
        for cls, values in ((RunConfig, RUN_VALUES), (SweepGrid, GRID_VALUES))
        for name, hint in get_type_hints(cls).items() if get_origin(hint) is tuple
    ])
    @pytest.mark.parametrize("as_list", [False, True], ids=["scalar", "list"])
    def test_tuple_fields_refuse_scalars_and_lists(self, cls, values, name, as_list):
        # A config file always parses a tuple; a scalar is not iterated, and a
        # list would leave a mutable value in a frozen config.
        value = list(values[name]) if as_list else values[name][0]
        with pytest.raises(ConfigError, match=rf"^{name} must be a tuple of (integers|numbers), got "):
            cls(**{**values, name: value})

    def test_field_without_a_parser_is_refused(self):
        @dataclass(frozen=True)
        class Flags:
            verbose: bool = False

        with pytest.raises(TypeError, match="verbose"):
            _field_parsers(Flags)

    def test_readme_run_block_names_every_field(self):
        keys = block_keys(readme_ini_blocks()[0])
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(RunConfig)}

    def test_readme_sweep_block_names_every_sweep_key(self):
        keys = block_keys(readme_ini_blocks()[1])
        assert len(keys) == len(set(keys))
        assert set(keys) == set(SWEEP_KEYS)

    def test_readme_blocks_parse(self, tmp_path):
        run_block, sweep_block = readme_ini_blocks()[:2]
        assert run_config_from_mapping(parse_config_file(write(tmp_path, run_block)))
        mapping = parse_config_file(write(tmp_path, run_block + sweep_block))
        assert run_config_from_mapping(mapping, allow_sweep_keys=True)
        assert sweep_grid_from_mapping(mapping)
