"""Training loop with live privacy accounting, plus the epsilon/clip sweep.

``train`` runs one configured experiment, whose state is one run object
(``_Run``). ``_start`` splits the data, builds the model, calibrates the noise
multiplier when a target epsilon is requested and opens the ledger. One epoch
loop (``_run_epochs``) then steps the run, private or not, from its last
recorded epoch, so a run stopped after an epoch continues in-process. With a
budget the loop halts *before* the step that would push epsilon past it, so
no emitted report can ever overstate the budget.

``sweep`` runs a grid of (target epsilon, clip norm, freeze prefix) cells,
several seeds per cell, and emits flat CSV rows plus a median row per cell.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, field, fields
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


@dataclass
class _Run:
    """A training run's state: its set-up, its step's generators and what its steps have done."""

    config: RunConfig
    split: Split
    # A run is freed in field order. Freeing the Adam moments before the parameters keeps
    # glibc from trimming the heap between runs: ~300 fewer page faults in dp-wide's set-up.
    state: DpAdamState
    model: Model
    ledger: PrivacyLedger | None  # a private run's; it holds sigma and q
    steps_per_epoch: int
    clip: ClipSpec
    poisson_rng: np.random.Generator | None = None
    noise_rng: np.random.Generator | None = None
    order_rng: np.random.Generator | None = None
    shuffled: tuple[np.ndarray, np.ndarray] | None = None
    epochs: list[EpochRecord] = field(default_factory=list)
    steps_run: int = 0
    stop_reason: str = STOP_EPOCHS_EXHAUSTED


def _start(config: RunConfig, loaded: tuple[Dataset, Dataset | None] | None) -> _Run:
    """``config``'s run before its first step: split, model, sigma, ledger and generators."""
    split = split_dataset(config) if loaded is None else _split(config, *loaded)
    widths = [split.train.dim, *config.widths]
    model = build_mlp(widths, config.norm, config.seed_model, config.freeze_prefix)
    steps_per_epoch = math.ceil(len(split.train) / config.batch_size)
    sigma = ledger = None
    if config.privacy != "off":
        q = min(config.batch_size / len(split.train), 1.0)
        if config.privacy == "target-epsilon":
            sigma = calibrate_sigma(config.target_eps, config.delta, q, config.epochs * steps_per_epoch)
        else:
            sigma = config.sigma
        ledger = PrivacyLedger(MechanismSpec(sigma, q), delta=config.delta)
    state = DpAdamState.for_model(model, lr=config.lr)
    run = _Run(config, split, state, model, ledger, steps_per_epoch, ClipSpec(config.clip_norm))
    if ledger is None:
        run.order_rng = np.random.Generator(np.random.PCG64(config.seed_data + 2))
        run.shuffled = (np.empty_like(split.train.features), np.empty_like(split.train.labels))
    else:
        run.poisson_rng = np.random.Generator(np.random.PCG64(config.seed_poisson))
        run.noise_rng = np.random.Generator(np.random.PCG64(config.seed_noise))
    return run


def _private_step(run: _Run, i: int) -> float | None:
    """One ``dp_adam_step``; its mean loss, or None for an empty draw."""
    outcome = dp_adam_step(run.model, run.split.train.features, run.split.train.labels, run.state,
                           run.clip, run.ledger, run.poisson_rng, run.noise_rng,
                           noise_placement=run.config.noise_placement)
    return outcome.mean_loss if outcome.applied else None


def _nonprivate_step(run: _Run, i: int) -> float:
    """Batch ``i`` of ``run.shuffled`` (the epoch's rows, shuffled at ``i == 0``): gradient, then Adam."""
    xs, ys = run.split.train.features, run.split.train.labels
    shuffled_xs, shuffled_ys = run.shuffled
    if i == 0:
        order = run.order_rng.permutation(len(xs))
        # Every index is in range, so "clip" changes none; the default
        # "raise" would gather into a temporary and then copy it.
        np.take(xs, order, axis=0, out=shuffled_xs, mode="clip")
        np.take(ys, order, axis=0, out=shuffled_ys, mode="clip")
    size = run.config.batch_size
    rows = slice(i * size, (i + 1) * size)
    loss, grad = batch_gradient(run.model, shuffled_xs[rows], shuffled_ys[rows])
    adam_step(run.model, grad, run.state)
    return loss


def _run_epochs(run: _Run) -> None:
    """Advance ``run`` from its last recorded epoch through its config's last epoch.

    With a ledger and a budget, the loop stops before the step that would
    push epsilon past the budget: the ledger finds that step once a call,
    by bisecting its epsilon over the planned step counts.
    """
    config, ledger = run.config, run.ledger
    step = _nonprivate_step if ledger is None else _private_step
    stop_at = None  # the step count whose epsilon first exceeds the budget
    if ledger is not None and config.budget_eps is not None:
        stop_at = ledger._first_step_over(config.budget_eps, config.epochs * run.steps_per_epoch)
    for epoch in range(len(run.epochs) + 1, config.epochs + 1):
        if run.stop_reason == STOP_BUDGET_EXCEEDED:
            break
        losses: list[float] = []
        for i in range(run.steps_per_epoch):
            if run.steps_run + 1 == stop_at:
                run.stop_reason = STOP_BUDGET_EXCEEDED
                break
            loss = step(run, i)
            run.steps_run += 1
            if loss is not None:
                losses.append(loss)
        train_loss = float(np.mean(losses)) if losses else math.nan
        valid_acc = accuracy(run.model, run.split.valid.features, run.split.valid.labels)
        epsilon = ledger.spent().epsilon if ledger is not None else None
        run.epochs.append(EpochRecord(epoch, train_loss, valid_acc, epsilon))


def _report(run: _Run, started: float) -> TrainReport:
    """``run``'s report as it stands, timed from ``started`` (a ``perf_counter`` reading)."""
    sigma = achieved = optimal_alpha = delta = None
    if run.ledger is not None:
        spent = run.ledger.spent()
        sigma, achieved = run.ledger.spec.sigma, spent.epsilon
        optimal_alpha, delta = spent.optimal_alpha, spent.delta
    return TrainReport(
        epochs=list(run.epochs),
        stop_reason=run.stop_reason,
        steps_run=run.steps_run,
        sigma=sigma,
        target_eps=run.config.target_eps if run.config.privacy == "target-epsilon" else None,
        achieved_eps=achieved,
        optimal_alpha=optimal_alpha,
        delta=delta,
        test_acc=accuracy(run.model, run.split.test.features, run.split.test.labels),
        wall_clock_s=time.perf_counter() - started,
        config=run.config,
    )


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
    run = _start(config, loaded)
    _run_epochs(run)
    return _report(run, started)


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
