"""Benchmark of dptrain's training program: throughput, set-up time and utility.

Run from the repository root::

    python3 benchmarks/run.py --workload dp-small --seed 1 --seconds 30 --trace 0

The program under test is ``dptrain.train.train(config)``, imported from
``src/``. A run trains the workload's config for ``SEEDS_PER_RUN`` seed
indices derived from ``--seed`` (offsetting the four seed streams the way the
sweep does), cycling through them until ``--seconds`` have passed, and checks
every report. Each call that raises or fails a check counts as failed.
Before each call the process pins itself to the CPU a short probe finds
fastest, because neighbours on the shared host slow one CPU at a time, and
during the call it samples the CPU's speed every 100 ms to report the timings
at a fixed reference speed (``SpeedProbe``); the unscaled wall-clock figures
are printed beside them.

``--trace 0`` times only the optimizer-step calls and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced calls; the traced ones
record a span around every call into a layer (see ``tracing.py``) and give
the per-layer metrics, and the paired difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment,
numerics fingerprints and any check failures are printed before it and
written, with the spans of a traced run, under ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine is shared, and per-sample work is many small
# products that extra threads do not speed up. Set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "numerics_baseline.json"
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

if not (SRC / "dptrain" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no dptrain sources under {SRC}")
sys.path.insert(0, str(SRC))

from dptrain.accountant import accountant_query  # noqa: E402
from dptrain.config import RunConfig  # noqa: E402

import tracing  # noqa: E402

SEEDS_PER_RUN = 12

# The acceptance-sweep data and optimizer settings shared by every workload.
BASE = dict(
    dataset="synthetic",
    n=2000,
    dim=20,
    separation=3.0,
    label_noise=0.0,
    batch_size=32,
    lr=0.08,
    clip_norm=1.0,
    delta=1e-5,
)


@dataclass(frozen=True)
class Workload:
    overrides: dict
    # A call whose test accuracy is not above this fails its checks.
    acc_floor: float


WORKLOADS = {
    # One cell of the criterion-10 sweep. The per-sample tape loop dominates,
    # and budget_eps makes the loop ask the ledger before every step.
    "dp-small": Workload(
        dict(
            widths=(16, 16, 1),
            privacy="target-epsilon",
            target_eps=10.0,
            budget_eps=10.0,
            noise_placement="on-sum",
            epochs=4,
        ),
        acc_floor=0.7,
    ),
    # About 70k parameters: per-sample arithmetic, clipping long vectors,
    # noise draws and the masked Adam update dominate; covers group norm and
    # frozen slots. After-mean noise swamps the signal, so accuracy is near
    # chance on some seeds and the floor only rejects systematic inversion.
    "dp-wide": Workload(
        dict(
            widths=(256, 256, 1),
            norm="group:8",
            freeze_prefix=1,
            privacy="target-epsilon",
            target_eps=10.0,
            noise_placement="after-mean",
            epochs=1,
        ),
        acc_floor=0.3,
    ),
    # dp-small's model without privacy: batch gradient and Adam only, so a
    # change to per-sample work, clipping, noise or accounting leaves it alone.
    "nonprivate": Workload(
        dict(widths=(16, 16, 1), privacy="off", target_eps=None, epochs=30),
        acc_floor=0.75,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "test_acc": "ratio",
    "peak_rss_mb": "MB",
}


def seed_configs(workload: str, seed: int, epochs: int | None = None) -> list[tuple[int, RunConfig]]:
    """The run's (seed index, config) pairs; disjoint index ranges per seed."""
    overrides = dict(BASE, **WORKLOADS[workload].overrides)
    if epochs is not None:
        overrides["epochs"] = epochs
    base = RunConfig(**overrides)
    out = []
    for j in range(SEEDS_PER_RUN):
        index = seed * SEEDS_PER_RUN + j
        out.append((index, base.with_overrides(
            seed_model=base.seed_model + index,
            seed_data=base.seed_data + index,
            seed_poisson=base.seed_poisson + index,
            seed_noise=base.seed_noise + index,
        )))
    return out


def fingerprint(report) -> str:
    text = json.dumps(report.numerics(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report, config: RunConfig, acc_floor: float) -> list[str]:
    """Problems with one train report; empty when every check passes."""
    problems = []
    n_test = int(config.n * config.test_fraction)
    n_train = int((config.n - n_test) * config.train_fraction)
    q = min(1.0, config.batch_size / n_train)
    planned = config.epochs * math.ceil(n_train / config.batch_size)
    if config.privacy != "off":
        eps = report.achieved_eps
        if config.target_eps is not None and not eps <= config.target_eps:
            problems.append(f"achieved eps {eps} above target {config.target_eps}")
        if config.budget_eps is not None and not eps <= config.budget_eps:
            problems.append(f"achieved eps {eps} above budget {config.budget_eps}")
        column = [e.epsilon for e in report.epochs]
        if any(b < a for a, b in zip(column, column[1:])):
            problems.append(f"epoch eps column decreases: {column}")
        expected = accountant_query(report.sigma, q, report.steps_run, config.delta)["epsilon"]
        if eps != expected:
            problems.append(f"achieved eps {eps} differs from the accountant's {expected}")
    if report.steps_run != planned and report.stop_reason != "budget-exceeded":
        problems.append(f"{report.steps_run} steps run, {planned} planned ({report.stop_reason})")
    if not math.isfinite(report.final_train_loss):
        problems.append(f"final loss {report.final_train_loss} is not finite")
    if not report.test_acc > acc_floor:
        problems.append(f"test accuracy {report.test_acc} not above {acc_floor}")
    return problems


@dataclass
class Outcomes:
    """Every call attempted in a run: failures, and a fingerprint per seed."""

    workload: str
    attempted: int = 0
    problems: dict[int, list[str]] = field(default_factory=dict)
    fingerprints: dict[int, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.problems.values())

    def attempt(self, index: int, config: RunConfig, train=None):
        """Train once; returns (report, start, end), report None on failure."""
        if train is None:
            train = importlib.import_module("dptrain.train").train
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = train(config)
        except Exception:  # a failing call is counted, and the run goes on
            self.problems.setdefault(index, []).append(traceback.format_exc())
            return None, start, time.perf_counter()
        end = time.perf_counter()
        problems = check_report(report, config, WORKLOADS[self.workload].acc_floor)
        digest = fingerprint(report)
        if self.fingerprints.setdefault(index, digest) != digest:
            problems.append("numerics differ from an earlier call with the same seed")
        if problems:
            self.problems.setdefault(index, []).append("; ".join(problems))
        return report, start, end

    def numerics(self, epochs_overridden: bool) -> dict:
        """Fingerprints per seed index, compared with the stored baseline."""
        stored = {}
        if BASELINE.is_file() and not epochs_overridden:
            stored = json.loads(BASELINE.read_text()).get(self.workload, {})
        compared = {i: stored[str(i)] == h for i, h in self.fingerprints.items() if str(i) in stored}
        if not compared:
            status = "no-baseline"
        else:
            status = "match" if all(compared.values()) else "differ"
        return {
            "status": status,
            "compared": len(compared),
            "differing": sorted(i for i, same in compared.items() if not same),
            "fingerprints": {str(i): h for i, h in sorted(self.fingerprints.items())},
        }


_PROBE_RNG = np.random.Generator(np.random.PCG64(0))
_PROBE_SMALL = _PROBE_RNG.standard_normal((16, 16))
_PROBE_WIDE = _PROBE_RNG.standard_normal((256, 256))
_PROBE_WIDE_X = _PROBE_RNG.standard_normal(256)

# Seconds the speed probe takes on an uncontended CPU of the host the bounds
# were tuned on (2-vCPU Xeon, Sapphire Rapids, KVM). Timings are reported at
# that speed; see ``SpeedProbe``.
PROBE_REFERENCE_S = 1.25e-4
PROBE_EVERY_S = 0.1


def _median_s(body, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _small_ops():
    x = np.ones(16)
    for _ in range(60):
        x = np.tanh(_PROBE_SMALL @ x)


def _wide_ops():
    x = _PROBE_WIDE_X
    for _ in range(2):
        x = np.tanh(_PROBE_WIDE @ x + np.outer(x, x).sum(axis=0) * 1e-3)


def speed_probe_s() -> float:
    """How long fixed numpy work takes on this CPU now, in seconds.

    A neighbour slows calls on 16-wide arrays, which cost mostly interpreter
    and dispatch time like the per-sample tape, by more than products and
    outer products of 256-wide arrays like dp-wide's. Weighted 2:1, the
    geometric mean of the two tracked the step times of all three workloads
    more closely than either part alone on the host the bounds were tuned on.
    """
    return _median_s(_small_ops) ** (2 / 3) * _median_s(_wide_ops) ** (1 / 3)


def pin_to_fastest_cpu() -> None:
    """Pin this process to the allowed CPU where the speed probe runs fastest now.

    On a shared host a CPU runs about 1.8x slower for a second or more at a
    time while a neighbour is busy on it, and the two CPUs change state
    independently. Choosing before every call keeps a run off a slowed CPU
    while the other is free, and keeps the ``SpeedProbe`` samples on the CPU
    the call runs on. Only this process's affinity changes; ``main``
    restores it.
    """
    if len(CPUS) < 2:
        return
    timings = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = speed_probe_s()
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


class SpeedProbe:
    """Samples the CPU's speed during a call, to report its timings at a fixed speed.

    Neighbours on the shared host slow the CPU a call runs on by up to about
    1.8x for a second or more at a time, which no run length averages out:
    it moves whole-run medians by 20-30%. So every ``PROBE_EVERY_S``, at a
    step boundary and never inside a timed step, the call pauses to time
    ``speed_probe_s``, fixed numpy work like the program's own.
    Wall time between two samples is scaled by ``PROBE_REFERENCE_S`` over
    the mean of the two samples, and the samples' own time is left out. A
    change that makes the program do more or less work moves the scaled
    times as much as the wall times; a slowed CPU moves them far less.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def sample(self):
        start = time.perf_counter()
        self.values.append(speed_probe_s())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def maybe_sample(self, first_step: bool):
        """Sample at the first step, which ends set-up, and then every PROBE_EVERY_S."""
        if first_step or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.sample()

    def _gaps(self):
        """Start, end and scale of each stretch between consecutive samples."""
        values = np.array(self.values)
        scale = 2 * PROBE_REFERENCE_S / (values[:-1] + values[1:])
        return np.array(self.ends[:-1]), np.array(self.starts[1:]), scale

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed, samples left out."""
        lo, hi, scale = self._gaps()
        overlap = np.clip(np.minimum(hi, end) - np.maximum(lo, start), 0.0, None)
        return float((overlap * scale).sum())

    def scaled_steps(self, starts: list[float], ends: list[float]) -> np.ndarray:
        """Each step's seconds at the reference speed; no sample falls inside a step."""
        lo, _, scale = self._gaps()
        gap = np.searchsorted(lo, np.array(starts), side="right") - 1
        return (np.array(ends) - np.array(starts)) * scale[gap]


class StepClock:
    """Times the optimizer-step calls of a train call, and nothing else.

    A private step is one ``dp_adam_step`` call. A non-private step runs
    from the start of ``batch_gradient`` to the end of the ``adam_step``
    that applies it. Before a step starts, ``probe`` may take a sample.
    """

    def __init__(self):
        self.probe = SpeedProbe()
        self.reset()

    def reset(self):
        self.probe.reset()
        self.step_starts: list[float] = []
        self.step_ends: list[float] = []
        self.samples = 0
        self._open: tuple[float, int] | None = None

    def _close(self, start: float, end: float, samples: int):
        self.step_starts.append(start)
        self.step_ends.append(end)
        self.samples += samples

    def installed(self, private: bool):
        stack = contextlib.ExitStack()
        if private:
            stack.enter_context(tracing.replaced("dptrain.train", "dp_adam_step", self._private))
        else:
            stack.enter_context(tracing.replaced("dptrain.train", "batch_gradient", self._gradient))
            stack.enter_context(tracing.replaced("dptrain.train", "adam_step", self._update))
        return stack

    def _private(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.probe.maybe_sample(first_step=not self.step_starts)
            start = time.perf_counter()
            outcome = fn(*args, **kwargs)
            self._close(start, time.perf_counter(), outcome.batch_size)
            return outcome
        return timed

    def _gradient(self, fn):
        @functools.wraps(fn)
        def timed(model, xs, ys):
            self.probe.maybe_sample(first_step=not self.step_starts)
            self._open = (time.perf_counter(), len(ys))
            return fn(model, xs, ys)
        return timed

    def _update(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            start, samples = self._open
            self._close(start, time.perf_counter(), samples)
            return result
        return timed


def _timed_call(outcomes: Outcomes, clock: StepClock, index: int, config: RunConfig):
    """One checked train call, its times scaled to the reference speed; None on failure."""
    pin_to_fastest_cpu()
    clock.reset()
    clock.probe.sample()
    report, start, end = outcomes.attempt(index, config)
    clock.probe.sample()
    if report is None or not clock.step_starts:
        return None
    first_step = clock.step_starts[0]
    probe = clock.probe
    scaled = probe.scaled
    pauses = sum(e - s for s, e in zip(probe.starts, probe.ends) if start <= s and e <= end)
    return {
        "index": index,
        "run_s": scaled(start, end),
        "setup_s": scaled(start, first_step),
        "loop_s": scaled(first_step, end),
        "wall_s": end - start - pauses,
        "samples": clock.samples,
        "steps": probe.scaled_steps(clock.step_starts, clock.step_ends),
        "wall_steps": np.subtract(clock.step_ends, clock.step_starts),
        "probes": list(probe.values),
        "test_acc": report.test_acc,
    }


def measure_end_to_end(workload: str, seed: int, seconds: float, epochs: int | None):
    configs = seed_configs(workload, seed, epochs)
    outcomes = Outcomes(workload)
    clock = StepClock()
    calls = []
    with clock.installed(private=configs[0][1].privacy != "off"):
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(configs) or time.perf_counter() < deadline:
            index, config = configs[i % len(configs)]
            i += 1
            call = _timed_call(outcomes, clock, index, config)
            if call is not None:
                calls.append(call)
    if not calls:
        raise RuntimeError("no train call completed")

    steps_ms = np.concatenate([c["steps"] for c in calls]) * 1e3
    p50, p90 = np.percentile(steps_ms, [50, 90])
    acc_by_seed = {}
    for c in calls:
        acc_by_seed.setdefault(c["index"], c["test_acc"])
    n_calls = len(calls)
    values = {
        "setup_s": (statistics.median(c["setup_s"] for c in calls), n_calls),
        "run_s": (statistics.median(c["run_s"] for c in calls), n_calls),
        "samples_per_s": (sum(c["samples"] for c in calls) / sum(c["loop_s"] for c in calls), n_calls),
        "step_ms.p50": (float(p50), steps_ms.size),
        "step_ms.p90": (float(p90), steps_ms.size),
        "test_acc": (statistics.median(acc_by_seed.values()), len(acc_by_seed)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    metrics = {
        name: {"value": value, "unit": E2E_UNITS[name], "samples": n}
        for name, (value, n) in values.items()
    }
    wall_steps_ms = np.concatenate([c["wall_steps"] for c in calls]) * 1e3
    probes_ms = np.concatenate([c["probes"] for c in calls]) * 1e3
    unscaled = {
        "run_s": statistics.median(c["wall_s"] for c in calls),
        "step_ms.p50": float(np.percentile(wall_steps_ms, 50)),
        "step_ms.p90": float(np.percentile(wall_steps_ms, 90)),
        "probe_ms.p10_p50_p90": np.percentile(probes_ms, [10, 50, 90]).tolist(),
        "probe_samples": int(probes_ms.size),
    }
    return metrics, outcomes, {"unscaled": unscaled}


def layer_metrics(tracer: tracing.Tracer, overhead_ratios: list[float]) -> dict:
    """Per-layer metrics from the traced calls; a layer not called reads 0.

    Per-call times are medians over the layer's spans; ``share`` is the
    layer's summed self time over the summed ``train`` time. The overhead is
    the median traced/untraced ``run_s`` ratio of same-seed pairs, minus one.
    """
    names = np.frombuffer(tracer.name, dtype=np.int32)
    durations = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    self_times = np.frombuffer(tracer.self_time)
    values = np.frombuffer(tracer.value)

    def select(name):
        if name not in tracer.names:
            return np.zeros(len(names), dtype=bool)
        return names == tracer.names.index(name)

    run_s = durations[select("train")].sum()
    n_calls = int(select("train").sum())
    n_steps = int(select("optim.dp_adam_step").sum() + select("optim.adam_step").sum())
    batches = values[select("optim.poisson_subsample")]

    def median(column, name, scale):
        picked = column[select(name)]
        return (float(np.median(picked)) * scale if picked.size else 0.0), picked.size

    def per_step(name):
        return int(select(name).sum()) / n_steps, n_steps

    def share(name):
        return float(self_times[select(name)].sum() / run_s), n_calls

    rows = {
        "accountant.calibrate_sigma.ms": (median(durations, "accountant.calibrate_sigma", 1e3), "ms"),
        "accountant.epsilon_for.calls": ((int(select("accountant.epsilon_for").sum()) / n_calls, n_calls), "count"),
        "accountant.epsilon_if.us": (median(durations, "accountant.epsilon_if", 1e6), "us"),
        "accountant.epsilon_if.calls_per_step": (per_step("accountant.epsilon_if"), "count/step"),
        "accountant.spent.us": (median(durations, "accountant.spent", 1e6), "us"),
        "model.per_sample_gradient.us": (median(durations, "model.per_sample_gradient", 1e6), "us"),
        "model.per_sample_gradient.calls_per_step": (per_step("model.per_sample_gradient"), "count/step"),
        "model.per_sample_gradient.share": (share("model.per_sample_gradient"), "ratio"),
        "model.forward.us": (median(durations, "model.forward", 1e6), "us"),
        "model.batch_gradient.us": (median(durations, "model.batch_gradient", 1e6), "us"),
        "model.validate_model.us": (median(durations, "model.validate_model", 1e6), "us"),
        "model.accuracy.ms": (median(durations, "model.accuracy", 1e3), "ms"),
        "tensor.backward.us": (median(durations, "tensor.backward", 1e6), "us"),
        "tensor.backward.calls_per_step": (per_step("tensor.backward"), "count/step"),
        "tensor.backward.share": (share("tensor.backward"), "ratio"),
        "mechanisms.clip_gradient.us": (median(durations, "mechanisms.clip_gradient", 1e6), "us"),
        "mechanisms.clip_gradient.calls_per_step": (per_step("mechanisms.clip_gradient"), "count/step"),
        "mechanisms.aggregate_noisy.self_us": (median(self_times, "mechanisms.aggregate_noisy", 1e6), "us"),
        "mechanisms.gaussian_noise.us": (median(durations, "mechanisms.gaussian_noise", 1e6), "us"),
        "optim.dp_adam_step.self_ms": (median(self_times, "optim.dp_adam_step", 1e3), "ms"),
        "optim.poisson_subsample.us": (median(durations, "optim.poisson_subsample", 1e6), "us"),
        "optim.batch_size.mean": ((float(batches.mean()) if batches.size else 0.0, batches.size), "samples"),
        "optim.empty_steps": ((int((batches == 0).sum()) / n_calls, n_calls), "count"),
        "optim.adam_step.us": (median(durations, "optim.adam_step", 1e6), "us"),
        "train.split_dataset.ms": (median(durations, "train.split_dataset", 1e3), "ms"),
        "data.synthetic_dataset.ms": (median(durations, "data.synthetic_dataset", 1e3), "ms"),
        "train.self_share": (share("train"), "ratio"),
        "trace.uncovered_share": (share("train"), "ratio"),
        "trace.overhead": ((statistics.median(overhead_ratios) - 1.0, len(overhead_ratios)), "ratio"),
    }
    return {
        name: {"value": value, "unit": unit, "samples": n}
        for name, ((value, n), unit) in rows.items()
    }


def measure_layers(workload: str, seed: int, seconds: float, epochs: int | None):
    """Alternate untraced and traced calls of each seed; spans come from the traced ones."""
    configs = seed_configs(workload, seed, epochs)
    outcomes = Outcomes(workload)
    clock = StepClock()
    tracer = tracing.Tracer()
    train_module = importlib.import_module("dptrain.train")
    traced_train = tracer.wrap("train", lambda config: train_module.train(config))
    ratios = []
    missing = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        index, config = configs[i % len(configs)]
        i += 1
        with clock.installed(private=config.privacy != "off"):
            plain = _timed_call(outcomes, clock, index, config)
        pin_to_fastest_cpu()
        with tracer.patched() as missing:
            report, start, end = outcomes.attempt(index, config, traced_train)
        if plain is not None and report is not None:
            ratios.append((end - start) / plain["wall_s"])
    if not ratios:
        raise RuntimeError("no traced train call completed")
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
    metrics = layer_metrics(tracer, ratios)
    return metrics, outcomes, {"untraced_targets": missing, "spans": len(tracer)}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
        "speed_probe_ms_start": speed_probe_s() * 1e3,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None, epochs: int | None = None) -> int:
    """Run one workload and print its result; ``epochs`` shortens it for self-tests."""
    args = parse_args(argv)
    env = environment()
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, outcomes, extra = measure(args.workload, args.seed, args.seconds, epochs)
    finally:
        if CPUS:
            os.sched_setaffinity(0, CPUS)
    env["loadavg_end"] = os.getloadavg()
    env["speed_probe_ms_end"] = speed_probe_s() * 1e3
    failed = outcomes.failed
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": outcomes.attempted,
        "failed": failed,
        "failed_frac": failed / outcomes.attempted,
        "environment": env,
        "numerics": outcomes.numerics(epochs_overridden=epochs is not None),
        "problems": {str(i): p for i, p in sorted(outcomes.problems.items())},
        "metrics": metrics,
        **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {outcomes.attempted}  failed {failed}  failed_frac {detail['failed_frac']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}")
    if "unscaled" in detail:
        print(f"  wall clock, before scaling: {json.dumps(detail['unscaled'])}")
    print(f"  numerics vs baseline: {detail['numerics']['status']} "
          f"({detail['numerics']['compared']} seeds compared)")
    for index, problems in detail["problems"].items():
        for problem in problems:
            print(f"  FAILED seed index {index}: {problem.strip()}")
    print(json.dumps({k: detail[k] for k in ("environment", "numerics")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
