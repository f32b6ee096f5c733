"""Noisy Adam: Poisson subsampling, clipped per-sample gradients, moment updates.

``dp_adam_step`` performs one private optimization step end to end: draw a
Poisson batch, compute every member's gradient, clip, aggregate with
Gaussian noise, update the Adam moments and the parameters, and charge
exactly one step to the privacy ledger (also when the batch came up empty,
which is always safe to charge).

All per-sample gradients come from one batched pass of the layer kernels
(:class:`~dptrain.model.PerSampleBatch`) as rows over the trainable tail of
the flat parameter vector, ``[B, T]`` for B samples and T trainable of P
parameters; frozen columns are never allocated, written, divided or
summed. Clipping (``mechanisms.clip_rows``) and summing work on those
rows, and ``mechanisms.gaussian_noise`` draws the released ``[P]``
vector. Each sample runs through the same numpy kernels as the
one-sample tape, so parameters, Adam moments and the step's
outcome are bit-identical to clipping and summing ``per_sample_gradient``
results one by one; the tape is only the gradient oracle. The backward
chain (every pullback, down to each trainable layer's input and output
cotangent) runs once for the whole batch; rows are then written, clipped
and summed ``ROW_BLOCK_BYTES`` at a time in one reused buffer, so a block
stays in cache across those passes and the step's memory is bounded
whatever the batch size. The kernels keep
each element's IEEE operations and spend few numpy calls on them: one
einsum per weight block, one BLAS dot per row and span for the norms, a
divide only for the rows that clip, and the outcome statistics straight
from ufunc reductions (``np.add.reduce(x) / B`` is ``np.mean``'s own sum
and divide).

The Adam moments are flat ``[P]`` vectors laid out like
``Model.parameter_vector``. Frozen slots lead that vector
(``Model.frozen_slots``), so one update runs a few whole-vector operations
over the trainable tail and writes it into the model's parameter vector in
place; frozen parameters and their moments are never written. Every
operation is the per-slot formula's own elementwise IEEE operation, so
trainable parameters and their moments are bit-identical to updating slot
by slot. Clipping and the noisy gradient's norm read ``Model.trainable_spans``.

Two update rules are available:

* ``"adam"`` (default): w = m_hat / (sqrt(u_hat) + stabilizer), with the
  usual 1/(1 - beta^t) bias corrections when ``bias_correction`` is on;
* ``"raw-moment"``: w = m / (u + stabilizer), dividing by the raw second
  moment without a square root and without bias correction. This variant
  scales poorly at high curvature; it exists for comparison runs.

``adam_step`` is the one Adam update. The private step hands it the released
noisy ``[P]`` vector; the non-private step hands it ``model.batch_gradient``'s
flat full-batch gradient as it is (sigma = 0, p = 1 and a non-binding clip
reproduce that step exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mechanisms
from .accountant import PrivacyLedger
from .mechanisms import NOISE_PLACEMENTS, ClipSpec, NoiseSpec, clip_rows
from .model import Model, ModelValidationError, PerSampleBatch, validate_model
from .tensor import ShapeMismatchError

__all__ = [
    "ADAM_VARIANTS",
    "DpAdamState",
    "StepOutcome",
    "poisson_subsample",
    "adam_step",
    "dp_adam_step",
]

ADAM_VARIANTS = ("adam", "raw-moment")

# Per-sample gradient rows over the trainable columns are written, clipped and
# summed in blocks of at most this many bytes (one row when a row is larger).
# That is the 2 MB L2 cache per core of the x86-64 host it was tuned on, so a
# block stays in L2 from the row writes through the norms, the divide and
# the reduce: the whole batch for small models, 3 rows of dp-wide's 66,561
# trainable columns. With the backward chain run once per batch, dp-wide's
# forward pass and clipped sum at B = 32 (one BLAS thread, one pinned CPU)
# took about 3.5% longer at 1 row, 0.5-1.3% less at 2 rows and 4-8% longer at
# 4 rows than at 3; 2 rows beat 3 in only 6 and 7 of 10 interleaved rounds.
ROW_BLOCK_BYTES = 2 << 20


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.adam_stabilizer) and self.adam_stabilizer > 0):
            raise ValueError(
                f"adam stabilizer must be positive and finite, got {self.adam_stabilizer}"
            )
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


def adam_step(model: Model, grad: np.ndarray, state: DpAdamState) -> None:
    """One Adam update of the trainable tail from a flat float64 ``[P]`` gradient.

    ``grad`` is laid out like ``Model.parameter_vector``; anything else, or
    ``state.m`` or ``state.u`` of another shape, raises
    ``ShapeMismatchError`` before the step count, the moments or the
    parameters change. The frozen slots lead the vector, so the tail
    ``[lo:]`` holds every trainable parameter, and the update writes it in
    place; frozen parameters and their moments are never written, whatever
    ``grad`` holds there. Each line is the per-slot formula's own IEEE
    operation, applied to the whole tail:
    ``m *= b1; m += (1 - b1) * g`` is ``b1 * m + (1 - b1) * g``.
    """
    params = model.parameter_vector
    if not isinstance(grad, np.ndarray) or grad.dtype != np.float64:
        raise ShapeMismatchError("the gradient must be a float64 ndarray")
    if not grad.shape == state.m.shape == state.u.shape == params.shape:
        raise ShapeMismatchError("gradient or moments not aligned with the parameter vector")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    lo = model.trainable_start
    g, m, u = grad[lo:], state.m[lo:], state.u[lo:]
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
    params[lo:] -= w


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
    if noise_placement not in NOISE_PLACEMENTS:
        raise ValueError(f"unknown noise placement {noise_placement!r}")
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
    clipped_sum, norms = _clipped_sum(batch, clip)
    # The whole [P] draw keeps the noise stream; only the trainable tail is
    # released, and the frozen columns of ``flat`` are never read. The draw
    # is looked up on the module so a wrapper installed there sees it.
    scale = noise.sigma * clip.max_norm
    flat = mechanisms.gaussian_noise(model.num_parameters(), scale, noise_rng)
    released = flat[model.trainable_start:]
    if noise_placement == "after-mean":
        released += clipped_sum / batch.size
    else:
        released += clipped_sum
        released /= batch.size
    adam_step(model, flat, state)
    # Frozen slots count as zeros, which add exactly nothing to the norm.
    noisy_sq = 0.0
    for lo, hi in model.trainable_spans():
        noisy_sq += np.dot(flat[lo:hi], flat[lo:hi])
    return StepOutcome(
        applied=True,
        batch_size=batch.size,
        preclip_norm_min=float(np.minimum.reduce(norms)),
        preclip_norm_mean=float(np.add.reduce(norms) / batch.size),
        preclip_norm_max=float(np.maximum.reduce(norms)),
        noisy_grad_norm=math.sqrt(noisy_sq),
        mean_loss=float(np.add.reduce(batch.losses) / batch.size),
    )


def _clipped_sum(batch: PerSampleBatch, clip: ClipSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the clipped per-sample gradient rows in sample order, and the pre-clip norms.

    The sum covers the trainable tail ``[Model.trainable_start:]``. The
    batch already holds its backward chain; rows are written from it
    ``ROW_BLOCK_BYTES`` at a time into one reused buffer that is never
    zeroed (``PerSampleBatch.backward`` sets every entry).
    ``np.add.reduce`` over axis 0 of a C-contiguous matrix with two or more
    columns (every model trains at least a weight and a bias) adds the rows
    one after another, so the first block's reduce and ``total += row`` for
    every later row are the same sequential additions as a row loop.
    """
    model = batch.model
    start = model.trainable_start
    spans = [(lo - start, hi - start) for lo, hi in model.trainable_spans()]
    width = model.num_parameters() - start
    per_block = min(batch.size, max(1, ROW_BLOCK_BYTES // (8 * width)))
    rows = np.empty((per_block, width))
    norms = np.empty(batch.size)
    total = np.empty(width)
    for lo in range(0, batch.size, per_block):
        hi = min(lo + per_block, batch.size)
        block = rows[:hi - lo]
        batch.backward(lo, hi, block)
        norms[lo:hi] = clip_rows(block, spans, clip)
        if lo == 0:
            np.add.reduce(block, axis=0, out=total)
        else:
            for row in block:
                total += row
    return total, norms
