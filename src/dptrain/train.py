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
import sys
import time
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .accountant import MechanismSpec, PrivacyLedger, calibrate_sigma
from .config import _SEED_FIELDS, RunConfig, SweepGrid
from .data import Dataset, _split_sizes, load_csv_dataset, synthetic_dataset
from .mechanisms import ClipSpec
from .model import Model, accuracy, batch_gradient, build_mlp
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
        """Everything deterministic about the run: every field but the wall clock and the config echo."""
        out = asdict(self)
        del out["wall_clock_s"], out["config"]
        return out

    def summary(self) -> dict:
        """JSON-ready summary: every field, plus the final epoch's valid_acc and train loss."""
        return {
            **asdict(self),
            "valid_acc": self.final_valid_acc,
            "train_loss_final": self.final_train_loss,
        }


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
    the rest to validation. The parts are disjoint row ranges (views) of
    one shuffled copy of the data. A split that leaves any part empty
    raises ``ValueError``.
    """
    return _split(config, *_load_dataset(config))


def _split(config: RunConfig, data: Dataset, explicit_test: Dataset | None) -> Split:
    """``split_dataset`` of rows ``_load_dataset(config)`` returned; it leaves them unchanged."""
    rng = np.random.Generator(np.random.PCG64(config.seed_data + 1))
    order = rng.permutation(len(data))
    data = data.subset(order)

    test_rows = None if explicit_test is None else len(explicit_test)
    held, n_train = _split_sizes(len(data), config.test_fraction, config.train_fraction, test_rows)

    def rows(start, stop):
        return Dataset(data.features[start:stop], data.labels[start:stop])

    test = rows(0, held) if explicit_test is None else explicit_test
    return Split(train=rows(held, held + n_train), valid=rows(held + n_train, len(data)), test=test)


def _private_step(config: RunConfig, split: Split, model: Model, state, ledger):
    """One ``dp_adam_step`` per call; its mean loss, or None for an empty draw."""
    clip = ClipSpec(config.clip_norm)
    poisson_rng = np.random.Generator(np.random.PCG64(config.seed_poisson))
    noise_rng = np.random.Generator(np.random.PCG64(config.seed_noise))
    xs, ys = split.train.features, split.train.labels

    def step(_):
        outcome = dp_adam_step(
            model,
            xs,
            ys,
            state,
            clip,
            ledger,
            poisson_rng,
            noise_rng,
            noise_placement=config.noise_placement,
        )
        return outcome.mean_loss if outcome.applied else None

    return step


def _nonprivate_step(config: RunConfig, split: Split, model: Model, state):
    """Batch ``i`` of the epoch's shuffle, drawn at ``i == 0``: full-batch gradient, then Adam.

    At ``i == 0`` the epoch's rows are gathered once, in shuffled order, into
    two buffers the run keeps; batch ``i`` is then a contiguous slice of them.
    """
    order_rng = np.random.Generator(np.random.PCG64(config.seed_data + 2))
    xs, ys = split.train.features, split.train.labels
    shuffled_xs, shuffled_ys = np.empty_like(xs), np.empty_like(ys)
    size = config.batch_size

    def step(i):
        if i == 0:
            order = order_rng.permutation(len(xs))
            # Every index is in range, so "clip" changes none; the default
            # "raise" would gather into a temporary and then copy it.
            np.take(xs, order, axis=0, out=shuffled_xs, mode="clip")
            np.take(ys, order, axis=0, out=shuffled_ys, mode="clip")
        rows = slice(i * size, (i + 1) * size)
        loss, grad = batch_gradient(model, shuffled_xs[rows], shuffled_ys[rows])
        adam_step(model, grad, state)
        return loss

    return step


def _run_epochs(config: RunConfig, split: Split, model: Model, step, steps_per_epoch, ledger):
    """The epoch loop of every run; ``step(i)`` runs the epoch's ``i``-th step.

    ``step`` returns the step's loss, or None when it applied nothing. With a
    ledger and a budget, the loop stops before the step that would push
    epsilon past the budget: the ledger finds that step once, before the
    first step, by bisecting its epsilon over the planned step counts.
    """
    stop_at = None  # the step count whose epsilon first exceeds the budget
    if ledger is not None and config.budget_eps is not None:
        stop_at = ledger._first_step_over(config.budget_eps, config.epochs * steps_per_epoch)
    epochs: list[EpochRecord] = []
    stop_reason = STOP_EPOCHS_EXHAUSTED
    steps_run = 0
    for epoch in range(1, config.epochs + 1):
        losses: list[float] = []
        for i in range(steps_per_epoch):
            if steps_run + 1 == stop_at:
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
    return _train(config, None)


def _train(config: RunConfig, loaded: tuple[Dataset, Dataset | None] | None) -> TrainReport:
    """``train``, on the rows ``_load_dataset(config)`` returned when ``loaded`` holds them."""
    started = time.perf_counter()
    split = split_dataset(config) if loaded is None else _split(config, *loaded)
    widths = [split.train.dim, *config.widths]
    model = build_mlp(widths, config.norm, config.seed_model, config.freeze_prefix)

    steps_per_epoch = math.ceil(len(split.train) / config.batch_size)
    sigma = target = achieved = optimal_alpha = delta = ledger = None
    if config.privacy != "off":
        q = min(config.batch_size / len(split.train), 1.0)
        if config.privacy == "target-epsilon":
            planned_steps = config.epochs * steps_per_epoch
            sigma = calibrate_sigma(config.target_eps, config.delta, q, planned_steps)
            target = config.target_eps
        else:
            sigma = config.sigma
        ledger = PrivacyLedger(MechanismSpec(sigma, q), delta=config.delta)
    state = DpAdamState.for_model(model, lr=config.lr)
    if ledger is None:
        step = _nonprivate_step(config, split, model, state)
    else:
        step = _private_step(config, split, model, state, ledger)
    epochs, stop_reason, steps_run = _run_epochs(
        config, split, model, step, steps_per_epoch, ledger
    )
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
    overrides = {name: getattr(base, name) + seed_index for name in _SEED_FIELDS}
    overrides.update(clip_norm=clip, freeze_prefix=freeze)
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

    Every run's config is built, and a CSV base loaded and split once,
    before the first run trains, so a bad value (``ConfigError``) or an
    empty split part (``ValueError``) stops the sweep before anything runs.
    Every run of a CSV base trains on those loaded rows (a cell changes
    neither the file nor its standardization). A run that
    fails while training becomes a row whose stop_reason is ``error`` (with
    empty numerics), one line on stderr says why, and the sweep continues,
    so one failing run cannot lose the rest of the grid.
    """
    seeds = range(grid.seeds_per_cell)
    cells = [
        (eps, clip, freeze, [_cell_config(base, eps, clip, freeze, i) for i in seeds])
        for eps, clip, freeze in grid.cells()
    ]
    loaded = None
    if base.dataset == "csv":
        loaded = _load_dataset(base)
        _split(base, *loaded)  # every run splits these rows with these fractions
    rows: list[SweepRow] = []
    for eps, clip, freeze, configs in cells:
        cell = _BLANK_ROW._replace(target_eps=_fmt(eps), clip_norm=_fmt(clip), freeze_prefix=_fmt(freeze))
        cell_id = f"eps{cell.target_eps}-clip{cell.clip_norm}-freeze{cell.freeze_prefix}"
        cell_rows: list[SweepRow] = []
        for seed_index, config in enumerate(configs):
            run_id = f"{cell_id}-seed{seed_index}"
            try:
                report = _train(config, loaded)
            except Exception as exc:
                print(f"sweep: {run_id} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                cell_rows.append(
                    cell._replace(run_id=run_id, seed=_fmt(seed_index), stop_reason="error")
                )
                continue
            cell_rows.append(report_row(report, run_id, seed_index))
        rows.extend(cell_rows)
        rows.append(
            cell._replace(
                run_id=f"{cell_id}-median",
                delta=cell_rows[0].delta,
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
        writer.writerow(f.name for f in fields(EpochRecord))
        for rec in report.epochs:
            writer.writerow(_fmt(value) for value in astuple(rec))
