"""Training loop with live privacy accounting, plus the epsilon/clip sweep.

``train`` runs one configured experiment: split the data, build the model,
calibrate the noise multiplier when a target epsilon is requested, then step
the private optimizer while watching the ledger. When a budget is set the
loop halts *before* the step that would push epsilon past it, so no emitted
report can ever overstate the budget. Private and non-private training share
one epoch loop (``_run_epochs``) and differ only in the step function it
calls.

``sweep`` runs a grid of (target epsilon, clip norm, freeze prefix) cells,
several seeds per cell, and emits flat CSV rows plus a median row per cell.
"""

from __future__ import annotations

import csv
import math
import time
from collections import namedtuple
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .accountant import MechanismSpec, PrivacyLedger, calibrate_sigma
from .config import RunConfig, SweepGrid
from .data import Dataset, load_csv_dataset, synthetic_dataset
from .mechanisms import ClipSpec, NoiseSpec
from .model import Model, accuracy, batch_gradient, build_mlp, validate_model
from .optim import DpAdamState, adam_step, dp_adam_step

__all__ = [
    "EpochRecord",
    "TrainReport",
    "SweepRow",
    "REPORT_COLUMNS",
    "split_dataset",
    "train",
    "sweep",
    "report_row",
    "write_report_csv",
    "write_epochs_csv",
]

STOP_EPOCHS_EXHAUSTED = "epochs-exhausted"
STOP_BUDGET_EXCEEDED = "budget-exceeded"

REPORT_COLUMNS = (
    "run_id",
    "seed",
    "target_eps",
    "sigma",
    "achieved_eps",
    "delta",
    "clip_norm",
    "freeze_prefix",
    "epochs_run",
    "stop_reason",
    "train_loss_final",
    "valid_acc",
    "test_acc",
    "wall_clock_s",
)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_acc: float
    epsilon: float | None


@dataclass
class TrainReport:
    epochs: list[EpochRecord]
    stop_reason: str
    steps_run: int
    sigma: float | None
    target_eps: float | None
    achieved_eps: float | None
    optimal_alpha: float | None
    delta: float | None
    test_acc: float
    wall_clock_s: float
    config: RunConfig

    @property
    def final_train_loss(self) -> float:
        return self.epochs[-1].train_loss if self.epochs else math.nan

    @property
    def final_valid_acc(self) -> float:
        return self.epochs[-1].valid_acc if self.epochs else math.nan

    def numerics(self) -> dict:
        """Everything deterministic about the run (excludes wall clock)."""
        return {
            "epochs": [asdict(e) for e in self.epochs],
            "stop_reason": self.stop_reason,
            "steps_run": self.steps_run,
            "sigma": self.sigma,
            "target_eps": self.target_eps,
            "achieved_eps": self.achieved_eps,
            "optimal_alpha": self.optimal_alpha,
            "delta": self.delta,
            "test_acc": self.test_acc,
        }

    def summary(self) -> dict:
        """JSON-ready summary: config echo, spend, accuracy block."""
        out = self.numerics()
        out["config"] = asdict(self.config)
        out["valid_acc"] = self.final_valid_acc
        out["train_loss_final"] = self.final_train_loss
        out["wall_clock_s"] = self.wall_clock_s
        return out


@dataclass(frozen=True)
class Split:
    train: Dataset
    valid: Dataset
    test: Dataset


def _load_dataset(config: RunConfig) -> tuple[Dataset, Dataset | None]:
    if config.dataset == "csv":
        data = load_csv_dataset(config.csv_path)
        test = load_csv_dataset(config.test_csv_path) if config.test_csv_path else None
        if test is not None and test.dim != data.dim:
            raise ValueError(
                f"test set has {test.dim} features but training data has {data.dim}"
            )
        return data, test
    data = synthetic_dataset(
        config.n, config.dim, config.separation, config.label_noise, config.seed_data
    )
    return data, None


def split_dataset(config: RunConfig) -> Split:
    """Shuffle deterministically, hold out test data, then split train/valid.

    When no separate test set is supplied, ``test_fraction`` of the rows is
    held out first; the remainder is split ``train_fraction`` to train and
    the rest to validation. A split that leaves any part empty raises
    ``ValueError``.
    """
    data, explicit_test = _load_dataset(config)
    rng = np.random.Generator(np.random.PCG64(config.seed_data + 1))
    order = rng.permutation(len(data))
    data = data.subset(order)

    if explicit_test is not None:
        test = explicit_test
        remainder = data
    else:
        n_test = int(len(data) * config.test_fraction)
        test = data.subset(np.arange(n_test))
        remainder = data.subset(np.arange(n_test, len(data)))

    n_train = int(len(remainder) * config.train_fraction)
    if not (len(test) and 0 < n_train < len(remainder)):
        raise ValueError(
            f"split leaves no data: {len(test)} test rows, {n_train} of {len(remainder)} to train"
        )
    train_part = remainder.subset(np.arange(n_train))
    valid_part = remainder.subset(np.arange(n_train, len(remainder)))
    return Split(train=train_part, valid=valid_part, test=test)


def _build_model(config: RunConfig, input_dim: int) -> Model:
    widths = [input_dim, *config.widths]
    model = build_mlp(widths, norm=config.norm, seed=config.seed_model)
    if config.freeze_prefix:
        model.set_freeze_prefix(config.freeze_prefix)
    return model


def _private_step(config: RunConfig, split: Split, model: Model, state, ledger):
    """One ``dp_adam_step`` per call; its mean loss, or None for an empty draw."""
    clip = ClipSpec(config.clip_norm)
    noise = NoiseSpec(ledger.spec.sigma, seed=config.seed_noise)
    poisson_rng = np.random.Generator(np.random.PCG64(config.seed_poisson))
    noise_rng = noise.make_rng()
    xs, ys = split.train.features, split.train.labels

    def step(_):
        outcome = dp_adam_step(
            model,
            xs,
            ys,
            state,
            clip,
            noise,
            ledger.spec.q,
            ledger,
            poisson_rng,
            noise_rng,
            noise_placement=config.noise_placement,
        )
        return outcome.mean_loss if outcome.applied else None

    return step


def _nonprivate_step(config: RunConfig, split: Split, model: Model, state):
    """Batch ``i`` of the epoch's shuffle, drawn at ``i == 0``: full-batch gradient, then Adam."""
    order_rng = np.random.Generator(np.random.PCG64(config.seed_data + 2))
    xs, ys = split.train.features, split.train.labels
    size = config.batch_size
    order = None

    def step(i):
        nonlocal order
        if i == 0:
            order = order_rng.permutation(len(xs))
        batch = order[i * size:(i + 1) * size]
        loss, grad = batch_gradient(model, xs[batch], ys[batch])
        adam_step(model, grad, state)
        return loss

    return step


def _run_epochs(config: RunConfig, split: Split, model: Model, step, ledger):
    """The epoch loop of every run; ``step(i)`` runs the epoch's ``i``-th step.

    ``step`` returns the step's loss, or None when it applied nothing. With a
    ledger and a budget, the loop stops before the step that would push
    epsilon past the budget.
    """
    budget = config.budget_eps if ledger is not None else None
    steps_per_epoch = math.ceil(len(split.train) / config.batch_size)
    epochs: list[EpochRecord] = []
    stop_reason = STOP_EPOCHS_EXHAUSTED
    steps_run = 0
    for epoch in range(1, config.epochs + 1):
        losses: list[float] = []
        for i in range(steps_per_epoch):
            if budget is not None and ledger.epsilon_if(steps_run + 1) > budget:
                stop_reason = STOP_BUDGET_EXCEEDED
                break
            loss = step(i)
            steps_run += 1
            if loss is not None:
                losses.append(loss)
        epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)) if losses else math.nan,
                valid_acc=accuracy(model, split.valid.features, split.valid.labels),
                epsilon=ledger.spent().epsilon if ledger is not None else None,
            )
        )
        if stop_reason == STOP_BUDGET_EXCEEDED:
            break
    return epochs, stop_reason, steps_run


def train(config: RunConfig) -> TrainReport:
    """Run one experiment end to end and return its report.

    Privacy off trains plain minibatch Adam; the private modes run the noisy
    optimizer with a live ledger, stopping early if a budget would be
    exceeded. Both run the same epoch loop. Deterministic: identical configs
    (seeds included) reproduce the report numerics bit-exactly.
    """
    started = time.perf_counter()
    split = split_dataset(config)
    model = _build_model(config, split.train.dim)
    report = validate_model(model)
    if not report.ok:
        raise ValueError("model failed validation: " + "; ".join(v.reason for v in report.violations))

    sigma = target = achieved = optimal_alpha = delta = ledger = None
    if config.privacy != "off":
        q = min(config.batch_size / len(split.train), 1.0)
        if config.privacy == "target-epsilon":
            planned_steps = config.epochs * math.ceil(len(split.train) / config.batch_size)
            sigma = calibrate_sigma(config.target_eps, config.delta, q, planned_steps)
            target = config.target_eps
        else:
            sigma = config.sigma
        ledger = PrivacyLedger(MechanismSpec(sigma, q), delta=config.delta)
    state = DpAdamState.for_model(
        model,
        lr=config.lr,
        variant=config.variant,
        bias_correction=config.bias_correction,
    )
    if ledger is None:
        step = _nonprivate_step(config, split, model, state)
    else:
        step = _private_step(config, split, model, state, ledger)
    epochs, stop_reason, steps_run = _run_epochs(config, split, model, step, ledger)
    if ledger is not None:
        spent = ledger.spent()
        achieved, optimal_alpha, delta = spent.epsilon, spent.optimal_alpha, spent.delta

    test_acc = accuracy(model, split.test.features, split.test.labels)
    return TrainReport(
        epochs=epochs,
        stop_reason=stop_reason,
        steps_run=steps_run,
        sigma=sigma,
        target_eps=target,
        achieved_eps=achieved,
        optimal_alpha=optimal_alpha,
        delta=delta,
        test_acc=test_acc,
        wall_clock_s=time.perf_counter() - started,
        config=config,
    )


SweepRow = namedtuple("SweepRow", REPORT_COLUMNS)
SweepRow.__doc__ = """One report CSV row: a string per ``REPORT_COLUMNS`` entry.

Empty strings stand for not-applicable fields.
"""

_BLANK_ROW = SweepRow(*[""] * len(REPORT_COLUMNS))

# Columns a cell's median row takes as the median over its seed rows.
_MEDIAN_COLUMNS = (
    "sigma", "achieved_eps", "epochs_run", "train_loss_final",
    "valid_acc", "test_acc", "wall_clock_s",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def report_row(report: TrainReport, run_id: str, seed_index) -> SweepRow:
    config = report.config
    return SweepRow(
        run_id=run_id,
        seed=_fmt(seed_index),
        target_eps=_fmt(report.target_eps if report.target_eps is not None
                        else (math.inf if config.privacy == "off" else None)),
        sigma=_fmt(report.sigma),
        achieved_eps=_fmt(report.achieved_eps),
        delta=_fmt(report.delta),
        clip_norm=_fmt(config.clip_norm),
        freeze_prefix=_fmt(config.freeze_prefix),
        epochs_run=_fmt(len(report.epochs)),
        stop_reason=report.stop_reason,
        train_loss_final=_fmt(report.final_train_loss),
        valid_acc=_fmt(report.final_valid_acc),
        test_acc=_fmt(report.test_acc),
        wall_clock_s=_fmt(report.wall_clock_s),
    )


def _cell_config(base: RunConfig, eps: float, clip: float, freeze: int, seed_index: int) -> RunConfig:
    overrides = dict(
        clip_norm=clip,
        freeze_prefix=freeze,
        seed_model=base.seed_model + seed_index,
        seed_data=base.seed_data + seed_index,
        seed_poisson=base.seed_poisson + seed_index,
        seed_noise=base.seed_noise + seed_index,
    )
    if eps == math.inf:
        overrides.update(privacy="off", target_eps=None, budget_eps=None)
    else:
        overrides.update(privacy="target-epsilon", target_eps=eps)
    return base.with_overrides(**overrides)


def _median_str(values: list[str]) -> str:
    nums = [float(v) for v in values if v not in ("", "nan")]
    if not nums:
        return ""
    return repr(float(np.median(nums)))


def sweep(grid: SweepGrid, base: RunConfig) -> list[SweepRow]:
    """Run every grid cell with every seed; append a median row per cell.

    Every run's config is built before the first run trains, so a bad
    value raises ``ConfigError`` and nothing runs. A run that fails while
    training becomes a row whose stop_reason is ``error`` (with empty
    numerics) and the sweep continues, so one failing run cannot lose the
    rest of the grid.
    """
    seeds = range(grid.seeds_per_cell)
    cells = [
        (eps, clip, freeze, [_cell_config(base, eps, clip, freeze, i) for i in seeds])
        for eps, clip, freeze in grid.cells()
    ]
    rows: list[SweepRow] = []
    for eps, clip, freeze, configs in cells:
        cell_id = f"eps{_fmt(eps)}-clip{_fmt(clip)}-freeze{freeze}"
        cell_rows: list[SweepRow] = []
        for seed_index, config in enumerate(configs):
            run_id = f"{cell_id}-seed{seed_index}"
            try:
                report = train(config)
            except Exception:
                cell_rows.append(
                    _BLANK_ROW._replace(
                        run_id=run_id,
                        seed=_fmt(seed_index),
                        target_eps=_fmt(eps),
                        clip_norm=_fmt(clip),
                        freeze_prefix=_fmt(freeze),
                        stop_reason="error",
                    )
                )
                continue
            cell_rows.append(report_row(report, run_id, seed_index))
        rows.extend(cell_rows)
        rows.append(
            _BLANK_ROW._replace(
                run_id=f"{cell_id}-median",
                target_eps=_fmt(eps),
                delta=cell_rows[0].delta,
                clip_norm=_fmt(clip),
                freeze_prefix=_fmt(freeze),
                stop_reason="median",
                **{c: _median_str([getattr(r, c) for r in cell_rows]) for c in _MEDIAN_COLUMNS},
            )
        )
    return rows


def write_report_csv(rows: list[SweepRow], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(list(row))


def write_epochs_csv(report: TrainReport, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "valid_acc", "epsilon"])
        for rec in report.epochs:
            writer.writerow(
                [rec.epoch, _fmt(rec.train_loss), _fmt(rec.valid_acc), _fmt(rec.epsilon)]
            )
