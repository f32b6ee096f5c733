"""Noise-mechanism primitives: per-sample L2 clipping and calibrated Gaussian noise.

These are the two operations that turn an ordinary optimizer into a noisy
one: each per-sample gradient is rescaled so its global L2 norm is at most R,
and the aggregate receives Gaussian noise whose scale is sigma * R, sigma
being that of the ``MechanismSpec`` the private step's ledger charges.

Two noise placements are supported:

* ``"after-mean"`` (default): noise of full scale sigma*R is added to the
  *averaged* clipped gradient. This injects batch_size times more noise per
  coordinate than the sum-sensitivity analysis requires, so it is at least
  as private under the accountant used here.
* ``"on-sum"``: noise of scale sigma*R is added to the *sum* of clipped
  gradients before dividing by the batch size. This matches the sensitivity
  analysis behind the accountant and the behavior of mainstream DP-SGD
  libraries.

The two placements coincide exactly for batches of size one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClipSpec",
    "NOISE_PLACEMENTS",
    "clip_rows",
    "gaussian_noise",
]

NOISE_PLACEMENTS = ("after-mean", "on-sum")


@dataclass(frozen=True)
class ClipSpec:
    """Gradient norm bound R: the global L2 norm across all parameters of
    one sample's gradient is clipped to at most R."""

    max_norm: float

    def __post_init__(self):
        if not (math.isfinite(self.max_norm) and self.max_norm > 0):
            raise ValueError(f"clip_norm must be positive and finite, got {self.max_norm}")


def _check_placement(placement: str) -> None:
    if placement not in NOISE_PLACEMENTS:
        raise ValueError(f"noise_placement must be one of {NOISE_PLACEMENTS}, got {placement!r}")


def _span_norms(rows: np.ndarray, spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """L2 norm of each row (or of one vector) over the column ranges ``spans``:
    one ``np.vecdot`` (the BLAS dot ``np.dot`` runs) per span, added in slot order.

    The sum starts from the first span's dot rather than from 0.0; a dot of
    a vector with itself is never -0.0, so ``0.0 +`` it would change no bit.
    """
    (lo, hi), *rest = spans
    v = rows[..., lo:hi]
    total = np.vecdot(v, v)
    for lo, hi in rest:
        v = rows[..., lo:hi]
        total += np.vecdot(v, v)
    return np.sqrt(total)


def clip_rows(rows: np.ndarray, spans: Sequence[tuple[int, int]], spec: ClipSpec) -> np.ndarray:
    """Clip each row of a per-sample gradient matrix in place; return the pre-clip norms.

    ``spans`` are the column ranges of the parameter blocks a row's norm
    covers, in slot order; ``_span_norms`` takes the norms. A row with
    norm n above R is divided by n / R, so its norm becomes R and its
    direction is kept; a row within R is left untouched, which is what
    dividing it by exactly 1.0 would give. So every norm and clipped row
    equals the one-sample reference clip in ``tests/oracles.py`` on that
    sample's per-parameter arrays bit for bit.
    """
    norms = _span_norms(rows, spans)
    # A NaN or infinite norm makes the sum non-finite; finite norms make it
    # so only by overflow, and then the elementwise check decides.
    if not math.isfinite(np.add.reduce(norms)) and not np.isfinite(norms).all():
        raise ValueError("cannot clip a non-finite gradient")
    factors = norms / spec.max_norm
    for i in (factors > 1.0).nonzero()[0]:
        rows[i] /= factors[i]
    return norms


def gaussian_noise(size: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent N(0, scale^2) draws from the ``rng`` stream.

    Identical generator states produce identical noise. Callers that need
    parallel noise must split seeds explicitly.
    """
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"noise scale must be >= 0 and finite, got {scale}")
    out = rng.standard_normal(size)
    out *= scale
    return out
