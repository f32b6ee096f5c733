"""Noisy Adam: Poisson subsampling, clipped per-sample gradients, moment updates.

``dp_adam_step`` performs one private optimization step end to end: draw a
Poisson batch, compute every member's gradient, clip, aggregate with
Gaussian noise, update the Adam moments and the parameters, and charge
exactly one step to the privacy ledger (also when the batch came up empty,
which is always safe to charge).

All per-sample gradients come from one batched pass
(:class:`~dptrain.model.PerSampleBatch`) as rows of a ``[B, P]`` matrix over
the flat parameter vector (B samples, P parameters); clipping, summing and
noise work on those rows. Each sample runs through the same numpy kernels
as the one-sample tape, so parameters, Adam moments and the step's outcome
are bit-identical to clipping and summing ``per_sample_gradient`` results
one by one; the tape remains the gradient oracle. Rows are built
``ROW_BLOCK_BYTES`` at a time, which bounds the step's memory whatever the
batch size.

The Adam moments are flat ``[P]`` vectors laid out like
``Model.parameter_vector``. One update runs a few whole-vector operations
over the trainable spans and installs a new parameter vector; frozen
parameters and their moments are never touched. Every operation is the
per-slot formula's own elementwise IEEE operation, so trainable
parameters and their moments are bit-identical to updating slot by slot.

Two update rules are available:

* ``"adam"`` (default): w = m_hat / (sqrt(u_hat) + stabilizer), with the
  usual 1/(1 - beta^t) bias corrections when ``bias_correction`` is on;
* ``"raw-moment"``: w = m / (u + stabilizer), dividing by the raw second
  moment without a square root and without bias correction. This variant
  scales poorly at high curvature; it exists for comparison runs.

``adam_step`` is the non-private reference: the same moment machinery driven
by an externally computed full-batch gradient, used for equivalence testing
(sigma = 0, p = 1, non-binding clip reproduces it exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import PrivacyLedger
from .mechanisms import NOISE_PLACEMENTS, ClipSpec, NoiseSpec, clip_rows, gaussian_noise
from .model import Model, ModelValidationError, PerSampleBatch, validate_model
from .tensor import GradientSet, ShapeMismatchError

__all__ = [
    "ADAM_VARIANTS",
    "DpAdamState",
    "StepOutcome",
    "poisson_subsample",
    "adam_step",
    "dp_adam_step",
]

ADAM_VARIANTS = ("adam", "raw-moment")

# Per-sample gradient rows are built and clipped in blocks of about this many
# bytes: the whole batch for small models, a few rows for ~70k parameters.
ROW_BLOCK_BYTES = 4 << 20


@dataclass
class DpAdamState:
    """Adam moments and hyperparameters for one optimizer instance.

    ``m`` and ``u`` are flat float64 ``[P]`` vectors laid out like the
    model's ``parameter_vector``; they start at zero, and the update writes
    them in place. ``u`` accumulates squares so it
    stays elementwise non-negative. The stabilizer is the small constant
    added to the denominator (distinct from the privacy budget parameter
    also commonly called epsilon).
    """

    m: np.ndarray
    u: np.ndarray
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    adam_stabilizer: float = 1e-8
    variant: str = "adam"
    bias_correction: bool = True
    t: int = 0

    def __post_init__(self):
        if self.variant not in ADAM_VARIANTS:
            raise ValueError(f"unknown optimizer variant {self.variant!r}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("momentum parameters must lie in [0, 1)")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.adam_stabilizer <= 0:
            raise ValueError("adam stabilizer must be positive")
        self.m = np.asarray(self.m, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.m.ndim != 1 or self.m.shape != self.u.shape:
            raise ShapeMismatchError("moment estimates must be flat vectors of one length")

    @classmethod
    def for_model(cls, model: Model, lr: float, **kwargs) -> "DpAdamState":
        size = model.num_parameters()
        return cls(m=np.zeros(size), u=np.zeros(size), lr=lr, **kwargs)


@dataclass(frozen=True)
class StepOutcome:
    """Observability record for one dp_adam_step call.

    ``applied`` is False when the Poisson draw was empty: parameters are
    untouched that step, but the ledger is still charged.
    """

    applied: bool
    batch_size: int
    preclip_norm_min: float
    preclip_norm_mean: float
    preclip_norm_max: float
    noisy_grad_norm: float
    mean_loss: float


def poisson_subsample(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices 0..n-1, each included independently with probability p."""
    if n < 0:
        raise ValueError(f"population size must be >= 0, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"subsample probability must be in [0, 1], got {p}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = rng.random(n) < p
    return np.flatnonzero(mask)


def _trainable_runs(model: Model) -> list[tuple[int, int]]:
    """Column ranges of the trainable parameters, adjacent slots merged."""
    offsets = model.parameter_offsets()
    runs: list[tuple[int, int]] = []
    for s, keep in enumerate(model.trainable):
        if not keep:
            continue
        if runs and runs[-1][1] == offsets[s]:
            runs[-1] = (runs[-1][0], offsets[s + 1])
        else:
            runs.append((offsets[s], offsets[s + 1]))
    return runs


def _apply_update(model: Model, state: DpAdamState, grad: np.ndarray) -> None:
    """Adam update of the trainable spans from a flat ``[P]`` gradient.

    Frozen spans keep their parameters and moments, whatever ``grad`` holds
    there. Each line is the per-slot formula's own IEEE operation, applied
    to a whole span: ``m *= b1; m += (1 - b1) * g`` is ``b1 * m + (1 - b1) * g``.
    """
    params = model.parameter_vector
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ShapeMismatchError("gradient or moments not aligned with the parameter vector")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    new_params = params.copy()
    for lo, hi in _trainable_runs(model):
        g, m, u = grad[lo:hi], state.m[lo:hi], state.u[lo:hi]
        m *= b1
        m += (1.0 - b1) * g
        u *= b2
        u += (1.0 - b2) * (g * g)
        if state.variant == "raw-moment":
            w = m / (u + state.adam_stabilizer)
        elif state.bias_correction:
            den = np.sqrt(u / c2)
            den += state.adam_stabilizer
            w = m / c1
            w /= den
        else:
            den = np.sqrt(u)
            den += state.adam_stabilizer
            w = m / den
        w *= state.lr
        new_params[lo:hi] -= w
    model.set_parameter_vector(new_params)


def adam_step(model: Model, grad: GradientSet, state: DpAdamState) -> None:
    """One non-private Adam update from a precomputed full-batch gradient.

    ``grad`` is flattened once into the ``[P]`` layout of ``model``;
    frozen parameters receive neither moments nor updates.
    """
    if grad.shapes != model.parameter_shapes():
        raise ShapeMismatchError("gradient is not shape-aligned with the model parameters")
    _apply_update(model, state, np.concatenate([a.reshape(-1) for a in grad.arrays]))


def dp_adam_step(
    model: Model,
    xs: np.ndarray,
    ys: np.ndarray,
    state: DpAdamState,
    clip: ClipSpec,
    noise: NoiseSpec,
    p: float,
    ledger: PrivacyLedger,
    poisson_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    noise_placement: str = "after-mean",
) -> StepOutcome:
    """One private optimization step over the full dataset (xs, ys).

    Refuses to run on a model that fails ``validate_model``: per-sample
    clipping bounds nothing if a layer leaks other samples' data into the
    gradient. The ledger is advanced exactly once per call, including calls
    whose Poisson batch is empty (charging an unused step never understates
    the privacy spent). Per-sample gradients are processed in ascending
    index order so results are reproducible.
    """
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(
            "refusing to run a private step: " + "; ".join(v.reason for v in report.violations)
        )
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if xs.shape[0] != ys.shape[0]:
        raise ShapeMismatchError(f"{xs.shape[0]} samples but {ys.shape[0]} labels")

    indices = poisson_subsample(xs.shape[0], p, poisson_rng)
    ledger.advance(1)
    if indices.size == 0:
        return StepOutcome(
            applied=False,
            batch_size=0,
            preclip_norm_min=math.nan,
            preclip_norm_mean=math.nan,
            preclip_norm_max=math.nan,
            noisy_grad_norm=math.nan,
            mean_loss=math.nan,
        )

    batch = PerSampleBatch(model, xs[indices], ys[indices])
    if noise_placement not in NOISE_PLACEMENTS:
        raise ValueError(f"unknown noise placement {noise_placement!r}")
    offsets = model.parameter_offsets()
    spans = [(offsets[s], offsets[s + 1]) for s, keep in enumerate(model.trainable) if keep]
    clipped_sum, norms = _clipped_sum(batch, spans, clip)
    draw = gaussian_noise([clipped_sum.shape], noise.sigma * clip.max_norm, noise_rng)[0]
    if noise_placement == "after-mean":
        flat = clipped_sum / batch.size + draw
    else:
        flat = (clipped_sum + draw) / batch.size
    _apply_update(model, state, flat)
    # Frozen slots count as zeros, which add exactly nothing to the norm.
    noisy_sq = 0.0
    for lo, hi in spans:
        noisy_sq += np.dot(flat[lo:hi], flat[lo:hi])
    return StepOutcome(
        applied=True,
        batch_size=batch.size,
        preclip_norm_min=float(norms.min()),
        preclip_norm_mean=float(norms.mean()),
        preclip_norm_max=float(norms.max()),
        noisy_grad_norm=math.sqrt(noisy_sq),
        mean_loss=float(np.mean(batch.losses)),
    )


def _clipped_sum(batch: PerSampleBatch, spans, clip: ClipSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the clipped per-sample gradient rows in sample order, and the pre-clip norms.

    ``np.add.reduce`` over axis 0 of a C-contiguous matrix with two or more
    columns (every model has a weight and a bias) adds the rows one after
    another, so each block's sum continues the running total, which sits in
    row 0 of every block after the first.
    """
    size = batch.model.num_parameters()
    per_block = max(1, ROW_BLOCK_BYTES // (8 * size))
    rows = np.zeros((min(per_block, batch.size) + (batch.size > per_block), size))
    norms = np.empty(batch.size)
    total = None
    for lo in range(0, batch.size, per_block):
        hi = min(lo + per_block, batch.size)
        first = 0 if total is None else 1
        block = rows[first:first + hi - lo]
        batch.backward(lo, hi, block)
        norms[lo:hi] = clip_rows(block, spans, clip)
        if total is not None:
            rows[0] = total
        total = np.add.reduce(rows[:first + hi - lo], axis=0)
    return total, norms
