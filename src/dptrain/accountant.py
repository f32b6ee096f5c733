"""Renyi-divergence privacy accounting for the (subsampled) Gaussian mechanism.

The accountant tracks, for a grid of Renyi orders alpha, how much
order-alpha divergence a training run has accumulated between the output
distributions on two datasets differing in a single sample. Composition is
additive in the number of steps; conversion to an (epsilon, delta) guarantee
takes the minimum over the grid of

    rdp(alpha) + log(1/delta) / (alpha - 1)

which upper-bounds the true epsilon (restricting the minimum to a grid can
only loosen the bound, never tighten it).

Per-step values come from two closed forms:

* full batches (q = 1): rdp(alpha) = alpha / (2 sigma^2);
* Poisson subsampling with rate q < 1, integer alpha >= 2:

    rdp(alpha) = log( sum_{k=0..alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                      * exp((k^2 - k) / (2 sigma^2)) ) / (alpha - 1)

evaluated in log space so large alpha / small sigma do not overflow.
Fractional orders are used only where the unsubsampled closed form is valid.

All 63 integer orders are computed in one array pass over a [63, 65] table
whose row alpha - 2 holds log C(alpha, k) for k <= alpha, padded with -inf;
the other terms, the row maxima and the exponentials are whole-table
operations. Each order's sum still runs over its own alpha + 1 terms alone,
because numpy sums an array pairwise and a reduction over padded rows would
group the additions differently: the table gives bit for bit the values of
evaluating each order on its own. Noise calibration evaluates the curve
about 16 times, so this keeps it to a few milliseconds.

When sigma is so small that a closed form overflows (the k^2 / (2 sigma^2)
term below sigma ~ 3e-153, or 2 sigma^2 underflowing to zero), the per-step
value is +inf: epsilon is then inf after one step or more and 0 after none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DELTA",
    "SIGMA_SEARCH_CEILING",
    "MechanismSpec",
    "PrivacySpent",
    "RdpCurve",
    "CalibrationError",
    "default_alpha_grid",
    "renyi_divergence",
    "kl_divergence",
    "rdp_gaussian",
    "rdp_subsampled_gaussian",
    "mechanism_curve",
    "compose",
    "to_eps_delta",
    "epsilon_for",
    "calibrate_sigma",
    "classic_gaussian_sigma",
    "PrivacyLedger",
    "accountant_query",
]

DEFAULT_DELTA = 1e-5
SIGMA_SEARCH_CEILING = 1e4
_SIGMA_SEARCH_FLOOR = 1e-4

_MAX_INT_ALPHA = 64


def _log_binomial_table() -> np.ndarray:
    """Row ``a - 2`` holds log C(a, k) for k = 0..a, then -inf up to k = 64."""
    log_factorial = [math.lgamma(k + 1) for k in range(_MAX_INT_ALPHA + 1)]
    table = np.full((_MAX_INT_ALPHA - 1, _MAX_INT_ALPHA + 1), -math.inf)
    for a in range(2, _MAX_INT_ALPHA + 1):
        for k in range(a + 1):
            table[a - 2, k] = log_factorial[a] - log_factorial[k] - log_factorial[a - k]
    return table


# The subsampled-Gaussian expansion for every integer order 2..64 at once:
# row a - 2 of each [63, 65] table is order a, column k its k-th term; the
# factors that depend on k alone are [65] rows.
_LOG_COMB = _log_binomial_table()
_K = np.arange(_MAX_INT_ALPHA + 1)
_K_SQ_MINUS_K = _K * _K - _K
_ORDERS = list(range(2, _MAX_INT_ALPHA + 1))
_A_MINUS_K = np.array(_ORDERS)[:, None] - _K
_INTEGER_GRID = tuple(float(a) for a in _ORDERS)
_FULL_BATCH_GRID = (1.25, 1.5) + _INTEGER_GRID
_INTEGER_ALPHAS = np.array(_INTEGER_GRID)
_FULL_BATCH_ALPHAS = np.array(_FULL_BATCH_GRID)


@dataclass(frozen=True)
class MechanismSpec:
    """One noisy-gradient step: noise multiplier sigma at sampling rate q."""

    sigma: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0 < self.q <= 1:
            raise ValueError(f"sampling probability must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class PrivacySpent:
    epsilon: float
    delta: float
    optimal_alpha: float


def default_alpha_grid(q: float) -> tuple[float, ...]:
    """Orders used by the accountant.

    Integers 2..64 always; the fractional points 1.25 and 1.5 are added only
    for q = 1 where the unsubsampled closed form covers them.
    """
    return _FULL_BATCH_GRID if q >= 1.0 else _INTEGER_GRID


def _check_distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape or pa.ndim != 1:
        raise ValueError(f"need two equal-length probability vectors, got {pa.shape}, {qa.shape}")
    if np.any(pa < 0) or np.any(qa < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(pa.sum() - 1.0) > 1e-12 or abs(qa.sum() - 1.0) > 1e-12:
        raise ValueError("probability vectors must sum to 1 within 1e-12")
    if np.any((pa > 0) & (qa == 0)):
        raise ValueError("support violation: q must be positive wherever p is")
    return pa, qa


def renyi_divergence(p, q, alpha: float) -> float:
    """Order-alpha Renyi divergence (1/(alpha-1)) log sum p_i^alpha / q_i^(alpha-1).

    Defined for alpha > 0, alpha != 1; callers wanting the alpha -> 1 limit
    should use :func:`kl_divergence`. Non-negative, zero iff p == q.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    pa, qa = _check_distributions(p, q)
    mask = pa > 0
    terms = pa[mask] ** alpha * qa[mask] ** (1.0 - alpha)
    val = math.log(float(terms.sum())) / (alpha - 1.0)
    return max(0.0, val)


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum p_i log(p_i / q_i), with 0 log 0 = 0."""
    pa, qa = _check_distributions(p, q)
    mask = pa > 0
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def rdp_gaussian(alpha: float, sigma: float) -> float:
    """Per-step RDP of the Gaussian mechanism on a sensitivity-1 query.

    +inf once 2 sigma^2 underflows to zero.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    denominator = 2.0 * sigma * sigma
    return alpha / denominator if denominator > 0.0 else math.inf


def _subsampled_rdp(sigma: float, q: float) -> np.ndarray:
    """Per-step subsampled-Gaussian RDP at every integer order 2..64 (q < 1).

    The terms are added in the closed form's order, and each order's sum
    runs over its own a + 1 terms: summing the padded rows, or
    ``np.add.reduceat``, groups the additions differently and changes the
    last bits. Non-finite values are +inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_terms = (
            (_LOG_COMB + _K * math.log(q)) + _A_MINUS_K * math.log1p(-q)
        ) + _K_SQ_MINUS_K / (2.0 * sigma * sigma)
        # fmax skips the NaN that -inf padding plus an overflowed term makes.
        peaks = np.fmax.reduce(log_terms, axis=1)
        scaled = np.exp(log_terms - peaks[:, None])
    values = np.empty(len(_ORDERS))
    for row, (a, peak) in enumerate(zip(_ORDERS, peaks.tolist())):
        value = (peak + math.log(np.add.reduce(scaled[row, : a + 1]))) / (a - 1)
        values[row] = max(0.0, value) if math.isfinite(value) else math.inf
    return values


def _integer_order(alpha) -> int:
    af = float(alpha)
    if not af.is_integer() or af < 2:
        raise ValueError(f"subsampled RDP needs an integer order >= 2, got {alpha}")
    a = int(af)
    if a > _MAX_INT_ALPHA:
        raise ValueError(f"order {a} above supported maximum {_MAX_INT_ALPHA}")
    return a


def rdp_subsampled_gaussian(spec: MechanismSpec, alpha) -> float:
    """Per-step RDP of one Poisson-subsampled Gaussian step at integer order.

    Reduces to :func:`rdp_gaussian` at q = 1 and vanishes as q -> 0.
    Fractional orders are rejected: the binomial expansion is exact only for
    integers.
    """
    a = _integer_order(alpha)
    if spec.q >= 1.0:
        return rdp_gaussian(float(a), spec.sigma)
    return float(_subsampled_rdp(spec.sigma, spec.q)[a - 2])


class RdpCurve:
    """Accumulated RDP per order plus the number of composed steps.

    The per-step values are fixed at construction; the accumulated value at
    each order is ``per_step * step_count``, which makes composition exactly
    additive: compose(compose(c, a), b) == compose(c, a + b).
    """

    __slots__ = ("alphas", "per_step", "step_count")

    def __init__(self, alphas, per_step, step_count: int = 0):
        alphas = tuple(float(a) for a in alphas)
        per_step = tuple(float(r) for r in per_step)
        if len(alphas) != len(per_step) or not alphas:
            raise ValueError("need matching non-empty alpha and rdp sequences")
        if any(a <= 1 for a in alphas):
            raise ValueError("all orders must exceed 1")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("orders must be strictly increasing")
        if any(r < 0 for r in per_step):
            raise ValueError("rdp values must be non-negative")
        if step_count < 0:
            raise ValueError("step count cannot be negative")
        self.alphas = alphas
        self.per_step = per_step
        self.step_count = int(step_count)

    def totals(self) -> tuple[float, ...]:
        # Zero steps spend nothing, even at an infinite per-step value.
        if self.step_count == 0:
            return (0.0,) * len(self.per_step)
        return tuple(r * self.step_count for r in self.per_step)

    def pairs(self) -> list[list[float]]:
        return [[a, t] for a, t in zip(self.alphas, self.totals())]

    def __repr__(self) -> str:
        return f"RdpCurve(orders={len(self.alphas)}, steps={self.step_count})"


def _default_per_step(spec: MechanismSpec) -> np.ndarray:
    """Per-step RDP on ``default_alpha_grid(spec.q)``."""
    if spec.q < 1.0:
        return _subsampled_rdp(spec.sigma, spec.q)
    with np.errstate(over="ignore", divide="ignore"):
        return _FULL_BATCH_ALPHAS / (2.0 * spec.sigma * spec.sigma)


def mechanism_curve(spec: MechanismSpec, alphas=None) -> RdpCurve:
    """Fresh (zero-step) ledger curve for one mechanism specification."""
    if alphas is None:
        return RdpCurve(default_alpha_grid(spec.q), _default_per_step(spec))
    subsampled = _subsampled_rdp(spec.sigma, spec.q) if spec.q < 1.0 else None
    per_step = []
    for a in alphas:
        if float(a).is_integer():
            order = _integer_order(a)
            if subsampled is None:
                per_step.append(rdp_gaussian(float(order), spec.sigma))
            else:
                per_step.append(subsampled[order - 2])
        elif subsampled is None:
            per_step.append(rdp_gaussian(a, spec.sigma))
        else:
            raise ValueError(f"fractional order {a} is only valid at q = 1")
    return RdpCurve(alphas, per_step, step_count=0)


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Advance the ledger by ``steps`` mechanism invocations."""
    if steps < 0:
        raise ValueError(f"cannot compose a negative number of steps: {steps}")
    return RdpCurve(curve.alphas, curve.per_step, curve.step_count + int(steps))


def _penalties(alphas: np.ndarray, delta: float) -> np.ndarray:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.log(1.0 / delta) / (alphas - 1.0)


def _epsilon(
    per_step: np.ndarray, penalties: np.ndarray, steps: int, spends_nothing: bool
) -> tuple[float, int]:
    """Epsilon after ``steps`` steps, and the index of the order attaining it."""
    if steps == 0 or spends_nothing:
        return 0.0, int(penalties.argmin())
    # A finite per-step value near the float maximum overflows to +inf
    # here, which is the right total for that order.
    with np.errstate(over="ignore"):
        candidates = per_step * steps + penalties
    best = int(candidates.argmin())
    return float(candidates[best]), best


def to_eps_delta(curve: RdpCurve, delta: float) -> PrivacySpent:
    """Convert an accumulated RDP curve into an (epsilon, delta) guarantee.

    epsilon = min over the grid of rdp(alpha) + log(1/delta)/(alpha - 1).
    A ledger with zero accumulated divergence (no steps, or an effectively
    infinite sigma) spends exactly nothing, so epsilon is 0 in that case
    rather than the grid penalty the formula alone would report. An
    infinite per-step value at every order gives epsilon = inf.
    """
    penalties = _penalties(np.array(curve.alphas), delta)
    epsilon, best = _epsilon(
        np.array(curve.per_step), penalties, curve.step_count, max(curve.per_step) == 0.0
    )
    return PrivacySpent(epsilon=epsilon, delta=delta, optimal_alpha=curve.alphas[best])


class CalibrationError(RuntimeError):
    """No noise multiplier under the search ceiling reaches the target epsilon."""


def epsilon_for(sigma: float, q: float, steps: int, delta: float) -> float:
    """Epsilon spent by ``steps`` subsampled-Gaussian steps at multiplier sigma.

    Equals ``to_eps_delta(compose(mechanism_curve(spec), steps), delta)``,
    computed on arrays without building the curve.
    """
    spec = MechanismSpec(sigma, q)
    if steps < 0:
        raise ValueError(f"cannot compose a negative number of steps: {steps}")
    per_step = _default_per_step(spec)
    alphas = _FULL_BATCH_ALPHAS if q >= 1.0 else _INTEGER_ALPHAS
    return _epsilon(per_step, _penalties(alphas, delta), int(steps), per_step.max() == 0.0)[0]


def calibrate_sigma(
    target_eps: float,
    delta: float,
    q: float,
    steps: int,
    rel_tol: float = 1e-3,
) -> float:
    """Smallest noise multiplier (on a bisection grid) meeting a target epsilon.

    Searches sigma in [1e-4, 1e4] by geometric bisection to relative
    tolerance ``rel_tol``; the returned sigma always satisfies
    epsilon(sigma) <= target_eps, so re-running the forward accountant on it
    cannot overshoot. Raises :class:`CalibrationError` when even the ceiling
    cannot reach the target.
    """
    if target_eps <= 0:
        raise ValueError(f"target epsilon must be positive, got {target_eps}")
    if steps < 1:
        raise ValueError(f"calibration needs at least one step, got {steps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < q <= 1:
        raise ValueError(f"sampling probability must be in (0, 1], got {q}")

    lo = _SIGMA_SEARCH_FLOOR
    if epsilon_for(lo, q, steps, delta) <= target_eps:
        return lo
    hi = 1.0
    while epsilon_for(hi, q, steps, delta) > target_eps:
        hi *= 2.0
        if hi > SIGMA_SEARCH_CEILING:
            raise CalibrationError(
                f"target epsilon {target_eps} unreachable with sigma <= "
                f"{SIGMA_SEARCH_CEILING} (q={q}, steps={steps}, delta={delta})"
            )
    # Invariant: eps(lo) > target >= eps(hi).
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if epsilon_for(mid, q, steps, delta) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi


def classic_gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Classic one-shot Gaussian mechanism calibration.

    Returns sensitivity * sqrt(2 ln(1.25/delta)) / epsilon, the standard
    noise scale guaranteeing (epsilon, delta)-DP for a single query of the
    given L2 sensitivity. Valid for epsilon in (0, 1]; iterated training
    should use the RDP accountant instead.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"classic calibration requires 0 < epsilon <= 1, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


class PrivacyLedger:
    """Mutable running ledger for one training run.

    The step loop is the single writer (``advance``); monitors may read
    ``spent`` at any time. The per-step curve, and the conversion penalties
    at the ledger's delta, are computed once up front, so a query is a few
    array operations; they are the same operations as ``to_eps_delta`` on
    the composed curve, so the answers are identical.
    """

    def __init__(self, spec: MechanismSpec, delta: float = DEFAULT_DELTA):
        self.spec = spec
        self.delta = delta
        self._base = mechanism_curve(spec)
        self._alphas = np.array(self._base.alphas)
        self._per_step = np.array(self._base.per_step)
        self._spends_nothing = max(self._base.per_step) == 0.0
        self._penalties = _penalties(self._alphas, delta)
        self.step_count = 0

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise ValueError("cannot advance the ledger backwards")
        self.step_count += steps

    def curve(self) -> RdpCurve:
        return compose(self._base, self.step_count)

    def spent(self, delta: float | None = None) -> PrivacySpent:
        epsilon, best = self._epsilon_at(self.step_count, delta)
        return PrivacySpent(
            epsilon=epsilon,
            delta=self.delta if delta is None else delta,
            optimal_alpha=self._base.alphas[best],
        )

    def epsilon_if(self, step_count: int, delta: float | None = None) -> float:
        """Epsilon the ledger would report after ``step_count`` total steps."""
        if step_count < 0:
            raise ValueError(f"cannot compose a negative number of steps: {step_count}")
        return self._epsilon_at(int(step_count), delta)[0]

    def _epsilon_at(self, steps: int, delta: float | None) -> tuple[float, int]:
        # to_eps_delta(compose(self._base, steps), delta), without rebuilding
        # and revalidating the curve.
        penalties = self._penalties if delta is None else _penalties(self._alphas, delta)
        return _epsilon(self._per_step, penalties, steps, self._spends_nothing)


def accountant_query(sigma: float, q: float, steps: int, delta: float) -> dict:
    """JSON-ready accountant answer for a (sigma, q, steps, delta) query."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    curve = compose(mechanism_curve(MechanismSpec(sigma, q)), steps)
    spent = to_eps_delta(curve, delta)
    return {
        "sigma": sigma,
        "q": q,
        "steps": steps,
        "delta": delta,
        "epsilon": spent.epsilon,
        "optimal_alpha": spent.optimal_alpha,
        "curve": curve.pairs(),
    }
