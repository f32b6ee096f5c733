"""Experiment configuration: flat key=value files mapped onto RunConfig/SweepGrid.

Config files are UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment. The dataclass fields are the schema: each ``RunConfig`` field is a
file key, parsed by its annotation, and a sweep file's four extra keys set the
``SweepGrid`` fields. A new key is one annotated field. Unknown keys are errors
so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from pathlib import Path
from typing import get_type_hints

from .accountant import DEFAULT_DELTA, _check_delta
from .data import _check_synthetic, _split_sizes
from .mechanisms import ClipSpec, _check_placement
from .model import _check_freeze_prefix, _norm_groups

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepGrid",
    "parse_config_file",
    "run_config_from_mapping",
    "sweep_grid_from_mapping",
    "PRIVACY_MODES",
]

PRIVACY_MODES = ("off", "target-epsilon", "fixed-sigma")


class ConfigError(ValueError):
    """A configuration file or value is invalid."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs, seeds included.

    ``widths`` are the hidden and output layer widths; the input width is
    taken from the data. ``batch_size`` is the expected batch size B: the
    Poisson rate is p = B / n_train and an epoch is ceil(n_train / B) steps.
    Four independent seed streams (model init, data order, Poisson draws,
    noise) let ablations vary one randomness source at a time.
    """

    # dataset
    dataset: str = "synthetic"  # "synthetic" | "csv"
    csv_path: str | None = None
    test_csv_path: str | None = None
    n: int = 2000
    dim: int = 20
    separation: float = 3.0
    label_noise: float = 0.0
    test_fraction: float = 0.1
    train_fraction: float = 0.8
    # model
    widths: tuple[int, ...] = (16, 16, 1)
    norm: str = "none"
    freeze_prefix: int = 0
    # optimization
    lr: float = 0.08
    epochs: int = 30
    batch_size: int = 32
    # privacy
    privacy: str = "target-epsilon"
    target_eps: float | None = 10.0
    sigma: float | None = None
    delta: float = DEFAULT_DELTA
    clip_norm: float = 1.0
    budget_eps: float | None = None
    noise_placement: str = "after-mean"
    # seeds
    seed_model: int = 1
    seed_data: int = 2
    seed_poisson: int = 3
    seed_noise: int = 4

    def __post_init__(self):
        _check_numbers(self, _RUN_NUMBERS)
        if self.dataset not in ("synthetic", "csv"):
            raise ConfigError(f"dataset must be 'synthetic' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("csv dataset requires csv_path")
        for name in ("csv_path", "test_csv_path"):
            if self.dataset != "csv" and getattr(self, name):
                raise ConfigError(f"{name} is set, but dataset is {self.dataset!r}, not 'csv'")
        if not self.widths or self.widths[-1] != 1:
            raise ConfigError(f"widths must end in 1, got {self.widths}")
        if min(self.widths) < 1:
            raise ConfigError(f"widths must all be >= 1, got {self.widths}")
        if self.privacy not in PRIVACY_MODES:
            raise ConfigError(f"privacy must be one of {PRIVACY_MODES}, got {self.privacy!r}")
        if self.privacy == "target-epsilon":
            if self.target_eps is None or self.target_eps <= 0:
                raise ConfigError("target-epsilon mode requires a positive target_eps")
        if self.privacy == "fixed-sigma":
            if self.sigma is None or self.sigma <= 0:
                raise ConfigError("fixed-sigma mode requires a positive sigma")
        if self.budget_eps is not None and self.budget_eps <= 0:
            raise ConfigError("budget_eps must be positive when set")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not 0 <= self.test_fraction < 1:
            raise ConfigError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in _SEED_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        # The checks of the code that reads each value, so a run fails here, not mid-way.
        try:
            if self.dataset == "synthetic":
                _check_synthetic(self.n, self.dim, self.separation, self.label_noise)
                _split_sizes(self.n, self.test_fraction, self.train_fraction)
            _check_delta(self.delta)
            ClipSpec(self.clip_norm)
            _check_placement(self.noise_placement)
            _norm_groups(self.norm, self.widths[:-1])
            _check_freeze_prefix(self.freeze_prefix, len(self.widths))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of sweep cells: target epsilons (inf means no privacy)
    x clip norms x freeze prefixes, each run with ``seeds_per_cell`` seeds."""

    target_eps: tuple[float, ...] = (1.0, 2.0, 10.0, 100.0, 1000.0)
    clip_norms: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4)
    freeze_prefixes: tuple[int, ...] = (0,)
    seeds_per_cell: int = 5

    def __post_init__(self):
        _check_numbers(self, _GRID_NUMBERS)
        if not self.target_eps or not self.clip_norms or not self.freeze_prefixes:
            raise ConfigError("sweep grid axes must be non-empty")
        if self.seeds_per_cell < 1:
            raise ConfigError("seeds_per_cell must be >= 1")
        # Checked here, not per cell, so a bad value stops the sweep before any cell runs.
        if not all(eps > 0 for eps in self.target_eps):
            raise ConfigError(
                f"sweep target epsilons must be > 0 (inf: no privacy), got {self.target_eps}"
            )
        if not all(0 < clip < math.inf for clip in self.clip_norms):
            raise ConfigError(
                f"sweep clip norms must be finite and positive, got {self.clip_norms}"
            )
        if min(self.freeze_prefixes) < 0:
            raise ConfigError(f"sweep freeze prefixes must be >= 0, got {self.freeze_prefixes}")

    def cells(self):
        for eps in self.target_eps:
            for clip in self.clip_norms:
                for freeze in self.freeze_prefixes:
                    yield eps, clip, freeze


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value config document into a string mapping."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: missing key")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _converter(convert, expected: str):
    """A ``(key, value)`` parser applying ``convert``; a ValueError names the key."""

    def parse(key: str, value: str):
        try:
            return convert(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None

    return parse


def _comma_list(kind):
    """Parse every comma-separated element with ``kind``; an empty element raises ValueError."""
    return lambda value: tuple(kind(v) for v in value.split(","))


_PARSERS = {
    str: lambda key, value: value,
    str | None: lambda key, value: value,
    int: _converter(int, "an integer"),
    float: _converter(float, "a number"),
    float | None: _converter(float, "a number"),
    tuple[int, ...]: _converter(_comma_list(int), "comma-separated integers"),
    tuple[float, ...]: _converter(_comma_list(float), "comma-separated numbers"),
}


# What each numeric annotation's values (a tuple's entries) must be; a bool is neither.
_NUMERIC = {int: (Integral, "an integer", False), tuple[int, ...]: (Integral, "a tuple of integers", True),
            float: (Real, "a number", False), float | None: (Real, "a number", False),
            tuple[float, ...]: (Real, "a tuple of numbers", True)}


def _number_fields(cls) -> tuple:
    """Each numeric field of dataclass ``cls``: its name, then its ``_NUMERIC`` entry."""
    return tuple((name, *_NUMERIC[h]) for name, h in get_type_hints(cls).items() if h in _NUMERIC)


def _check_numbers(config, numbers) -> None:
    """Refuse a bool, a value not of its field's kind or a non-finite scalar float.

    Run first, so ``epochs="3"`` and NaN (which passes ``lr <= 0``) are
    refused; numpy scalars pass, and ``None`` is left to the range checks.
    """
    for name, kind, what, many in numbers:
        value = getattr(config, name)
        if value is None:
            continue
        values = value if many else (value,)
        if type(values) is not tuple or any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if kind is Real and not many and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _field_parsers(cls) -> dict:
    """Map each field of dataclass ``cls`` to the parser for its annotation."""
    hints = get_type_hints(cls)
    unsupported = {name: hint for name, hint in hints.items() if hint not in _PARSERS}
    if unsupported:
        raise TypeError(f"{cls.__name__} fields without a config parser: {unsupported}")
    return {name: _PARSERS[hint] for name, hint in hints.items()}


_RUN_PARSERS = _field_parsers(RunConfig)
_RUN_NUMBERS = _number_fields(RunConfig)
# PCG64 takes no negative seed; sweeps offset the seeds upwards only.
_SEED_FIELDS = tuple(name for name in get_type_hints(RunConfig) if name.startswith("seed_"))
_GRID_PARSERS = _field_parsers(SweepGrid)
_GRID_NUMBERS = _number_fields(SweepGrid)
# Sweep file keys differ from the SweepGrid field names they set.
_SWEEP_KEYS = {
    "sweep_target_eps": "target_eps",
    "sweep_clip_norm": "clip_norms",
    "sweep_freeze_prefix": "freeze_prefixes",
    "seeds_per_cell": "seeds_per_cell",
}


def run_config_from_mapping(mapping: dict[str, str], allow_sweep_keys: bool = False) -> RunConfig:
    known = _RUN_PARSERS.keys() | (_SWEEP_KEYS.keys() if allow_sweep_keys else set())
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(
        **{key: _RUN_PARSERS[key](key, value) for key, value in mapping.items() if key in _RUN_PARSERS}
    )


def sweep_grid_from_mapping(mapping: dict[str, str]) -> SweepGrid:
    return SweepGrid(
        **{
            name: _GRID_PARSERS[name](key, mapping[key])
            for key, name in _SWEEP_KEYS.items()
            if key in mapping
        }
    )
