"""Noisy Adam: Poisson subsampling, clipped per-sample gradients, moment updates.

``dp_adam_step`` performs one private optimization step end to end: draw a
Poisson batch, compute every member's gradient, clip, aggregate with
Gaussian noise, update the Adam moments and the parameters, and charge
exactly one step to the privacy ledger (also when the batch came up empty,
which is always safe to charge). It samples at the ledger's q and adds
noise at its sigma, so it releases exactly what the ledger charges for.

All per-sample gradients come from one batched pass of the layer kernels
(:class:`~dptrain.model.PerSampleBatch`), whose ``clipped_sum`` returns the
sum of the clipped gradients over the trainable tail of the flat parameter
vector, a ``[T]`` vector for T trainable of P parameters, and the pre-clip
norms; ``mechanisms.gaussian_noise`` draws a ``[P]`` vector whose ``[T]``
tail carries the release. Each sample runs through the same numpy kernels
as reverse-mode autodiff over its own one-row graph, so parameters, Adam
moments and the step's outcome are bit-identical to clipping and summing
such one-sample gradients one by one, the test suite's reference step.

The step checks its inputs once, on the full data before the draw and the
charge; the ``PerSampleBatch`` it builds from the drawn rows does not check
them again. Its ``StepOutcome`` keeps the pre-clip norms, the losses and
the released vector, and computes each statistic when it is read, from
ufunc reductions (``np.add.reduce(x) / B`` is ``np.mean``'s own sum and
divide).

Every gradient is a flat ``[T]`` vector over the trainable tail
``[Model.trainable_start:]``, whose slot columns ``Model.trainable_spans``
gives; a model's freeze boundary is fixed when it is built. The Adam
moments are ``[T]`` vectors laid out like that tail; one update runs a few
whole-vector operations over them and the parameters' tail in place,
writing every intermediate result into one scratch buffer that the state
keeps, and frozen parameters are never written. Every operation is the
per-slot formula's own elementwise IEEE operation, so trainable parameters
and their moments are bit-identical to updating slot by slot.

The update rule is bias-corrected Adam (Kingma & Ba 2015) with its usual
constants: w = m_hat / (sqrt(u_hat) + 1e-8), where m_hat = m / (1 - 0.9^t)
and u_hat = u / (1 - 0.999^t); only the learning rate is set per run.

``adam_step`` is the one Adam update. The private step hands it the noisy
``[T]`` vector it releases, no more; the non-private step hands it
``model.batch_gradient``'s full-batch gradient as it is (a ledger at
sigma = 0 and q = 1 with a non-binding clip reproduces that step exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mechanisms
from .accountant import PrivacyLedger
from .mechanisms import ClipSpec, _check_placement, _span_norms
from .model import Model, PerSampleBatch, ShapeMismatchError
from .model import _binary_labels, _input_rows

__all__ = [
    "DpAdamState",
    "StepOutcome",
    "poisson_subsample",
    "adam_step",
    "dp_adam_step",
]

# Adam's decay rates and the stabilizer added to the denominator (distinct
# from the privacy budget parameter also commonly called epsilon).
_BETA1 = 0.9
_BETA2 = 0.999
_STABILIZER = 1e-8

@dataclass
class DpAdamState:
    """Adam moments, learning rate and step count for one optimizer instance.

    ``m`` and ``u`` are flat float64 ``[T]`` vectors laid out like the
    model's trainable tail, ``parameter_vector[trainable_start:]``; they
    start at zero, and the update writes them in place. ``u`` accumulates
    squares so it stays elementwise non-negative. The state also holds the
    update's scratch buffer, two ``[T]`` rows that every update reuses, so
    a step allocates nothing for Adam.
    """

    m: np.ndarray
    u: np.ndarray
    lr: float
    t: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        self.m = np.asarray(self.m, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.m.ndim != 1 or self.m.shape != self.u.shape:
            raise ShapeMismatchError("moment estimates must be flat vectors of one length")
        self._scratch = np.empty((2, *self.m.shape))

    @classmethod
    def for_model(cls, model: Model, lr: float) -> "DpAdamState":
        size = model.num_parameters() - model.trainable_start
        return cls(m=np.zeros(size), u=np.zeros(size), lr=lr)


class StepOutcome:
    """Observability record for one dp_adam_step call.

    It keeps arrays the step already holds, which no later step writes:
    ``norms``, the ``[B]`` pre-clip gradient norms in sample order,
    ``losses``, the ``[B]`` per-sample losses, and ``released``, the noisy
    ``[T]`` vector handed to Adam (``None`` when nothing was released).
    ``batch_size`` is B; the other statistics are computed when read.
    ``applied`` is False when the Poisson draw was empty: parameters are
    untouched that step, but the ledger is still charged, and the other
    statistics read NaN.
    """

    __slots__ = ("batch_size", "norms", "losses", "released", "_spans")

    def __init__(self, batch_size: int, norms, losses, released, spans):
        self.batch_size = batch_size
        self.norms = norms
        self.losses = losses
        self.released = released
        self._spans = spans

    @property
    def applied(self) -> bool:
        return self.batch_size > 0

    @property
    def preclip_norm_min(self) -> float:
        return float(np.minimum.reduce(self.norms)) if self.batch_size else math.nan

    @property
    def preclip_norm_mean(self) -> float:
        return float(np.add.reduce(self.norms) / self.batch_size) if self.batch_size else math.nan

    @property
    def preclip_norm_max(self) -> float:
        return float(np.maximum.reduce(self.norms)) if self.batch_size else math.nan

    @property
    def noisy_grad_norm(self) -> float:
        return float(_span_norms(self.released, self._spans)) if self.batch_size else math.nan

    @property
    def mean_loss(self) -> float:
        return float(np.add.reduce(self.losses) / self.batch_size) if self.batch_size else math.nan


def poisson_subsample(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices 0..n-1, each included independently with probability p."""
    if n < 0:
        raise ValueError(f"population size must be >= 0, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"subsample probability must be in [0, 1], got {p}")
    mask = rng.random(n) < p
    return mask.nonzero()[0]


def adam_step(model: Model, grad: np.ndarray, state: DpAdamState) -> None:
    """One Adam update of the trainable tail from a flat float64 ``[T]`` gradient.

    ``grad``, ``state.m`` and ``state.u`` all cover the tail
    ``Model.parameter_vector[Model.trainable_start:]``; any other gradient,
    or moments of another length (a state made for another model's
    layout), raise ``ShapeMismatchError`` before the step count, the
    moments or the parameters change. The update writes the moments and
    the parameters' tail in place, and its intermediates into the state's
    scratch buffer. Each line is the per-slot formula's own
    IEEE operation, applied to the whole tail:
    ``m *= beta1; m += (1 - beta1) * g`` is ``beta1 * m + (1 - beta1) * g``.
    """
    params = model.parameter_vector[model.trainable_start:]
    if not isinstance(grad, np.ndarray) or grad.dtype != np.float64:
        raise ShapeMismatchError("the gradient must be a float64 ndarray")
    if grad.shape != params.shape:
        raise ShapeMismatchError("the gradient must cover exactly the trainable tail")
    if not state.m.shape == state.u.shape == params.shape:
        raise ShapeMismatchError("moments not aligned with the trainable tail")
    state.t += 1
    c1 = 1.0 - _BETA1 ** state.t
    c2 = 1.0 - _BETA2 ** state.t
    g, m, u = grad, state.m, state.u
    if state._scratch.shape[1:] != params.shape:  # moments replaced after the state was made
        state._scratch = np.empty((2, *params.shape))
    den, w = state._scratch  # every intermediate lands in these two rows
    m *= _BETA1
    np.multiply(1.0 - _BETA1, g, out=w)
    m += w
    u *= _BETA2
    np.multiply(g, g, out=w)
    w *= 1.0 - _BETA2
    u += w
    np.divide(u, c2, out=den)
    np.sqrt(den, out=den)
    den += _STABILIZER
    np.divide(m, c1, out=w)
    w /= den
    w *= state.lr
    params -= w


def dp_adam_step(
    model: Model,
    xs: np.ndarray,
    ys: np.ndarray,
    state: DpAdamState,
    clip: ClipSpec,
    ledger: PrivacyLedger,
    poisson_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    noise_placement: str = "after-mean",
) -> StepOutcome:
    """One private optimization step over the full dataset (xs, ys).

    The Poisson batch is drawn at ``ledger.spec.q`` and the noise scaled by
    ``ledger.spec.sigma * clip.max_norm``. Every layer a ``Model`` admits
    reads each sample alone, so each sample's gradient reads no other sample
    and the clip bounds its influence. The ledger is advanced exactly once
    per call, including calls whose Poisson batch is empty (charging an
    unused step never understates the privacy spent).
    Arguments it refuses (inputs of the wrong width, a label count that
    does not match, a label other than 0 or 1, an unknown noise placement)
    raise before the Poisson draw and the charge. Per-sample gradients are
    processed in ascending index order so results are reproducible.
    """
    xs = _input_rows(model, xs)
    ys = _binary_labels(ys, xs.shape[0])
    _check_placement(noise_placement)

    indices = poisson_subsample(xs.shape[0], ledger.spec.q, poisson_rng)
    ledger.advance(1)
    if indices.size == 0:
        return StepOutcome(0, np.empty(0), np.empty(0), None, ())

    batch = PerSampleBatch._checked(model, xs[indices], ys[indices])
    total, norms = batch.clipped_sum(clip)
    # The whole [P] draw keeps the noise stream; only the trainable tail is
    # released, and the frozen columns of ``flat`` are never read. The draw
    # is looked up on the module so a wrapper installed there sees it.
    scale = ledger.spec.sigma * clip.max_norm
    flat = mechanisms.gaussian_noise(model.num_parameters(), scale, noise_rng)
    released = flat[model.trainable_start:]
    if noise_placement == "after-mean":
        np.divide(total, batch.size, out=total)
        released += total
    else:
        released += total
        released /= batch.size
    adam_step(model, released, state)
    return StepOutcome(batch.size, norms, batch.losses, released, model.trainable_spans())
