"""Spans around calls into dptrain's layers, recorded from outside the program.

``Tracer.patched`` replaces each target function at the name its caller
looks it up by (``dp_adam_step`` calls ``dptrain.optim.per_sample_gradient``,
``per_sample_gradient`` calls ``dptrain.model.backward``) with a wrapper that
records a span, and puts the originals back on exit. A span is the call's
name, start, end, the span that caused it and the top-level ``train`` call it
belongs to. Spans stay in memory until ``write`` dumps them as CSV.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from array import array
from pathlib import Path

# (module, attribute path inside it, span name, what to record of the result).
# ``dptrain.train`` the package attribute is the function, so modules are
# resolved through importlib, which returns the module object.
TARGETS = (
    ("dptrain.train", "split_dataset", "train.split_dataset", None),
    ("dptrain.train", "synthetic_dataset", "data.synthetic_dataset", None),
    ("dptrain.train", "validate_model", "model.validate_model", None),
    ("dptrain.optim", "validate_model", "model.validate_model", None),
    ("dptrain.train", "calibrate_sigma", "accountant.calibrate_sigma", None),
    ("dptrain.accountant", "epsilon_for", "accountant.epsilon_for", None),
    ("dptrain.accountant", "PrivacyLedger.epsilon_if", "accountant.epsilon_if", None),
    ("dptrain.accountant", "PrivacyLedger.spent", "accountant.spent", None),
    ("dptrain.train", "dp_adam_step", "optim.dp_adam_step", None),
    ("dptrain.optim", "poisson_subsample", "optim.poisson_subsample", len),
    ("dptrain.optim", "per_sample_gradient", "model.per_sample_gradient", None),
    ("dptrain.model", "Model.forward", "model.forward", None),
    ("dptrain.model", "backward", "tensor.backward", None),
    ("dptrain.optim", "aggregate_noisy", "mechanisms.aggregate_noisy", None),
    ("dptrain.mechanisms", "clip_gradient", "mechanisms.clip_gradient", None),
    ("dptrain.mechanisms", "gaussian_noise", "mechanisms.gaussian_noise", None),
    ("dptrain.train", "batch_gradient", "model.batch_gradient", None),
    ("dptrain.train", "adam_step", "optim.adam_step", None),
    ("dptrain.train", "accuracy", "model.accuracy", None),
)


def resolve(module_name: str, path: str):
    """(owner, attribute) for ``module.path``, or None when it does not exist."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@contextlib.contextmanager
def replaced(module_name: str, path: str, make_wrapper):
    """Swap ``module.path`` for ``make_wrapper(original)`` until exit."""
    found = resolve(module_name, path)
    if found is None:
        raise LookupError(f"{module_name}.{path} does not exist")
    owner, attr = found
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one process.

    Spans are kept column-wise in arrays, which the garbage collector does
    not scan, so recording many spans does not slow the program down. A
    span's id is its position; ``parent`` is -1 for a top-level span and
    ``call`` is the id of the top-level span it belongs to. Self time is the
    span's duration minus the time its child spans cover; ``value`` holds
    what the target's ``measure`` took from its result, or NaN.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self.self_time = array("d")
        self.value = array("d")
        self._stack: list[list] = []  # [span id, seconds covered by children]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn, measure=None):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends, parents, calls = self.name, self.start, self.end, self.parent, self.call
        self_times, values = self.self_time, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(names)
            parent = stack[-1][0] if stack else -1
            names.append(index)
            parents.append(parent)
            calls.append(calls[parent] if stack else span_id)
            ends.append(0.0)
            self_times.append(0.0)
            values.append(math.nan)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    values[span_id] = measure(result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                ends[span_id] = end
                self_times[span_id] = end - start - frame[1]

        return traced

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Wrap every target that exists; yields the names of those that do not."""
        missing = []
        with contextlib.ExitStack() as stack:
            for module_name, path, name, measure in targets:
                if resolve(module_name, path) is None:
                    missing.append(f"{module_name}.{path}")
                    continue
                stack.enter_context(
                    replaced(module_name, path, lambda fn, n=name, m=measure: self.wrap(n, fn, m))
                )
            yield missing

    def write(self, path: Path) -> None:
        """Dump every span as a CSV row, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,call,value\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{(self.start[i] - origin) * 1e6:.3f},"
                    f"{(self.end[i] - origin) * 1e6:.3f},{self.parent[i]},{self.call[i]},"
                    f"{'' if math.isnan(self.value[i]) else self.value[i]}\n"
                )
