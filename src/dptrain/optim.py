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
one by one; the tape remains the gradient oracle. Rows are built ``ROW_BLOCK_BYTES`` at a time, which bounds
the step's memory whatever the batch size.

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

    ``m`` and ``u`` are shape-aligned with the model parameters and start at
    zero; ``u`` accumulates squares so it stays elementwise non-negative.
    The stabilizer is the small constant added to the denominator (distinct
    from the privacy budget parameter also commonly called epsilon).
    """

    m: GradientSet
    u: GradientSet
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
        if self.m.shapes != self.u.shapes:
            raise ShapeMismatchError("moment estimates are not shape-aligned")

    @classmethod
    def for_model(cls, model, lr: float, **kwargs) -> "DpAdamState":
        shapes = tuple(np.asarray(p).shape for p in model.parameters)
        return cls(m=GradientSet.zeros(shapes), u=GradientSet.zeros(shapes), lr=lr, **kwargs)


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


def _masked(grad: GradientSet, trainable) -> GradientSet:
    if all(trainable):
        return grad
    return GradientSet(
        [a if keep else np.zeros_like(a) for a, keep in zip(grad.arrays, trainable)]
    )


def _apply_update(model, state: DpAdamState, vbar: GradientSet) -> None:
    if vbar.shapes != tuple(np.asarray(p).shape for p in model.parameters):
        raise ShapeMismatchError("gradient is not shape-aligned with the model parameters")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    new_m = [b1 * m + (1.0 - b1) * g for m, g in zip(state.m.arrays, vbar.arrays)]
    new_u = [b2 * u + (1.0 - b2) * (g * g) for u, g in zip(state.u.arrays, vbar.arrays)]
    state.m = GradientSet(new_m)
    state.u = GradientSet(new_u)

    if state.variant == "adam":
        if state.bias_correction:
            c1 = 1.0 - b1 ** state.t
            c2 = 1.0 - b2 ** state.t
            direction = [
                (m / c1) / (np.sqrt(u / c2) + state.adam_stabilizer)
                for m, u in zip(new_m, new_u)
            ]
        else:
            direction = [
                m / (np.sqrt(u) + state.adam_stabilizer) for m, u in zip(new_m, new_u)
            ]
    else:
        direction = [m / (u + state.adam_stabilizer) for m, u in zip(new_m, new_u)]

    model.set_parameters(
        [p - state.lr * w for p, w in zip(model.parameters, direction)]
    )


def adam_step(model, grad: GradientSet, state: DpAdamState) -> None:
    """One non-private Adam update from a precomputed full-batch gradient.

    ``model`` needs ``parameters``, ``trainable`` and ``set_parameters``;
    frozen parameters receive neither moments nor updates.
    """
    _apply_update(model, state, _masked(grad, model.trainable))


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
    for s, keep in enumerate(model.trainable):
        if not keep:
            flat[offsets[s]:offsets[s + 1]] = 0.0
    vbar = GradientSet.of(
        [flat[offsets[s]:offsets[s + 1]].reshape(p.shape) for s, p in enumerate(model.parameters)]
    )
    _apply_update(model, state, vbar)
    return StepOutcome(
        applied=True,
        batch_size=batch.size,
        preclip_norm_min=float(norms.min()),
        preclip_norm_mean=float(norms.mean()),
        preclip_norm_max=float(norms.max()),
        noisy_grad_norm=vbar.global_norm(),
        mean_loss=float(np.mean(batch.losses)),
    )


def _clipped_sum(batch: PerSampleBatch, spans, clip: ClipSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the clipped per-sample gradient rows in sample order, and the pre-clip norms."""
    size = batch.model.num_parameters()
    per_block = max(1, ROW_BLOCK_BYTES // (8 * size))
    rows = np.zeros((min(per_block, batch.size), size))
    norms = np.empty(batch.size)
    total = None
    for lo in range(0, batch.size, per_block):
        hi = min(lo + per_block, batch.size)
        block = rows[: hi - lo]
        batch.backward(lo, hi, block)
        norms[lo:hi] = clip_rows(block, spans, clip)
        if total is None:
            total = block[0].copy()
            block = block[1:]
        # Row by row: a reduction over the rows may sum pairwise instead.
        for row in block:
            total += row
    return total, norms
