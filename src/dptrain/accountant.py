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
whose row alpha - 2 holds log C(alpha, k) for k <= alpha and -inf after.
Its sigma-free part is cached per q; the row maxima and the exponentials
are whole-table operations, and exp is skipped where it is exactly 0. Each
order's sum is one masked ``np.add.reduce`` over its own alpha + 1 terms:
numpy hands each row's contiguous run of terms to the pairwise loop that
summing the row on its own runs, so the table gives bit for bit the values
of ``np.add.reduce(row[:alpha + 1])``. Noise calibration visits about 16
sigmas, about 1.1 ms when every curve is new. ``_per_step`` memoizes each
(sigma, q) curve for the process, shared and read-only, 64 curves at most
(about four plans); a search over remembered curves still builds its 16
ledgers, about 0.13 ms. ``calibrate_sigma`` memoizes each plan's sigma
too, 64 plans at most, so calibrating a plan again, as every seed and
sweep cell after the first does, is a lookup of about 0.3 us (one pinned
CPU of a 2-vCPU x86-64 host, dp-small's plan).

When sigma is 0 or so small that a closed form overflows (the
k^2 / (2 sigma^2) term below sigma ~ 3e-153, or 2 sigma^2 underflowing to
zero), the per-step value is +inf: epsilon is then inf after one step or
more and 0 after none.

Every per-step value comes from one builder, ``_per_step``, and every
epsilon from one engine, :class:`PrivacyLedger`: noise calibration (through
:func:`epsilon_for`), the budget stop (a bisection over a run's planned
step counts, valid because epsilon never falls as the count grows), the
reported spend and the
``dptrain accountant`` document (:func:`accountant_query`) all run its
conversion. Step counts are integers (Python or numpy); a fractional count
or a ``bool`` raises ``TypeError`` rather than being truncated or read as 1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DELTA",
    "SIGMA_SEARCH_CEILING",
    "MechanismSpec",
    "PrivacySpent",
    "CalibrationError",
    "default_alpha_grid",
    "epsilon_for",
    "calibrate_sigma",
    "PrivacyLedger",
    "accountant_query",
]

DEFAULT_DELTA = 1e-5
SIGMA_SEARCH_CEILING = 1e4
_SIGMA_SEARCH_FLOOR = 1e-4
_CALIBRATION_REL_TOL = 1e-3

_MAX_INT_ALPHA = 64
_COLUMNS = _MAX_INT_ALPHA + 1


def _log_binomial_table() -> np.ndarray:
    """Row ``a - 2`` holds log C(a, k) for k = 0..a, then -inf up to k = 64."""
    log_factorial = [math.lgamma(k + 1) for k in range(_MAX_INT_ALPHA + 1)]
    table = np.full((_MAX_INT_ALPHA - 1, _COLUMNS), -math.inf)
    for a in range(2, _MAX_INT_ALPHA + 1):
        for k in range(a + 1):
            table[a - 2, k] = log_factorial[a] - log_factorial[k] - log_factorial[a - k]
    return table


# The subsampled-Gaussian expansion for every integer order 2..64 at once:
# row a - 2 of each [63, 65] table is order a, column k its k-th term, and
# only columns k <= a are terms; the factors that depend on k alone are [65]
# rows.
_LOG_COMB = _log_binomial_table()
_K = np.arange(_COLUMNS)
_K_SQ_MINUS_K = _K * _K - _K
_ORDERS = np.arange(2, _MAX_INT_ALPHA + 1)
_A_MINUS_K = _ORDERS[:, None] - _K
_IN_ROW = _K <= _ORDERS[:, None]
_A_MINUS_ONE = (_ORDERS - 1).astype(np.float64)
# exp(x) is exactly +0.0 for every x below about -745.13.
_EXP_UNDERFLOW = -746.0
_INTEGER_GRID = tuple(float(a) for a in _ORDERS)
_FULL_BATCH_GRID = (1.25, 1.5) + _INTEGER_GRID
_FULL_BATCH_ORDERS = np.array(_FULL_BATCH_GRID)
_FULL_BATCH_ORDERS.flags.writeable = False
_FULL_BATCH_A_MINUS_ONE = _FULL_BATCH_ORDERS - 1.0


@dataclass(frozen=True)
class MechanismSpec:
    """One noisy-gradient step: noise multiplier sigma at sampling rate q.

    ``dp_adam_step`` releases exactly this: a Poisson batch at q, noise at
    sigma times the clip norm. sigma = 0 is valid and spends inf per step.
    """

    sigma: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma}")
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


@functools.lru_cache(maxsize=16)
def _q_table(q: float) -> np.ndarray:
    """The sigma-free part of every order's log terms at rate q, read-only."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        table = (_LOG_COMB + _K * math.log(q)) + _A_MINUS_K * math.log1p(-q)
    table.flags.writeable = False
    return table


def _subsampled_rdp(sigma: float, q: float) -> np.ndarray:
    """Per-step subsampled-Gaussian RDP at every integer order 2..64 (q < 1).

    Bit for bit the values of summing each order's own a + 1 terms with
    ``np.add.reduce``: the q part of the log terms is cached per q, the
    exponentials are taken only where they can be non-zero (every term of
    a row that overflowed stays NaN, so the row is +inf), and one reduce
    masked to ``_IN_ROW`` sums every row. Each order's log is ``math.log``,
    which ``np.log`` does not always match in the last bit. Non-finite
    values are +inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = _q_table(q) + _K_SQ_MINUS_K / (2.0 * sigma * sigma)
        # fmax skips the NaN that -inf past a row's terms plus an overflowed term makes.
        peaks = np.fmax.reduce(x, axis=1)
        x -= peaks[:, None]
        live = _IN_ROW & ~(x < _EXP_UNDERFLOW)
        scaled = np.exp(x, out=np.zeros_like(x), where=live)
        sums = np.add.reduce(scaled, axis=1, where=_IN_ROW)
        logs = np.array(list(map(math.log, sums.tolist())))
        values = (peaks + logs) / _A_MINUS_ONE
        return np.where(np.isfinite(values), np.maximum(0.0, values), math.inf)


@functools.lru_cache(maxsize=64)
def _per_step(spec: MechanismSpec) -> np.ndarray:
    """Read-only per-step RDP of ``spec`` at every order of ``default_alpha_grid(spec.q)``.

    At q = 1, alpha / (2 sigma^2) holds for every order, fractional ones
    too; it is +inf once 2 sigma^2 underflows to zero. Memoized per
    (sigma, q): every ledger of one spec shares the array. A calibration
    visits about 16 sigmas in turn, and an LRU cache shorter than such a
    cycle misses on every access; 64 entries hold about four plans.
    """
    if spec.q >= 1.0:
        with np.errstate(over="ignore", divide="ignore"):
            per_step = _FULL_BATCH_ORDERS / (2.0 * spec.sigma * spec.sigma)
    else:
        per_step = _subsampled_rdp(spec.sigma, spec.q)
    per_step.flags.writeable = False
    return per_step


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def _steps(count: int) -> int:
    if isinstance(count, bool):  # operator.index takes True as 1; np.True_ it refuses
        raise TypeError(f"a step count must be an integer, not {count!r}")
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"cannot compose a negative number of steps: {count}")
    return count


class CalibrationError(RuntimeError):
    """No noise multiplier under the search ceiling reaches the target epsilon."""


def epsilon_for(sigma: float, q: float, steps: int, delta: float) -> float:
    """Epsilon spent by ``steps`` subsampled-Gaussian steps at multiplier sigma.

    A fresh :class:`PrivacyLedger`'s ``epsilon_if(steps)``, so calibration,
    a run's budget stop and ``dptrain accountant`` share one conversion.
    """
    return PrivacyLedger(MechanismSpec(sigma, q), delta).epsilon_if(steps)


def calibrate_sigma(target_eps: float, delta: float, q: float, steps: int) -> float:
    """Smallest noise multiplier (on a bisection grid) meeting a target epsilon.

    Searches sigma in [1e-4, 1e4] by geometric bisection to a fixed relative
    tolerance of 1e-3; the returned sigma always satisfies
    epsilon(sigma) <= target_eps, so re-running the forward accountant on it
    cannot overshoot. Raises :class:`CalibrationError` when even the ceiling
    cannot reach the target. A delta or q out of range raises ``ValueError``
    from the first ``epsilon_for`` call, whose ledger checks both. Each plan
    (target_eps, delta, q, steps) is searched once per process; a refusal is
    never stored, so it raises again on every call.
    """
    if not target_eps > 0:
        raise ValueError(f"target epsilon must be positive, got {target_eps}")
    steps = _steps(steps)
    if steps < 1:
        raise ValueError(f"calibration needs at least one step, got {steps}")
    return _calibrated_sigma(target_eps, delta, q, steps)


@functools.lru_cache(maxsize=64)
def _calibrated_sigma(target_eps: float, delta: float, q: float, steps: int) -> float:
    """The bisection behind :func:`calibrate_sigma`, memoized per plan.

    Equal arguments of any numeric type share one entry; the sigma is a
    Python float either way. Every probe calls ``epsilon_for`` through the
    module global, so a tracer or test that replaces it sees each call.
    """
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
    while hi / lo - 1.0 > _CALIBRATION_REL_TOL:
        mid = math.sqrt(lo * hi)
        if epsilon_for(mid, q, steps, delta) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi


class PrivacyLedger:
    """Mutable running ledger for one training run: the one epsilon engine.

    The step loop is the single writer (``advance``); monitors may read
    ``spent`` at any time. The per-step values on the default grid come
    from a per-process memo, shared and read-only, and the conversion
    penalties log(1/delta) / (alpha - 1) are one division by a constant
    array, so a query is a few array operations. The curve memo keeps the
    64 most recently used (sigma, q) curves, about four plans, so a ledger
    of a recent spec computes no curve (about 0.06 ms saved a ledger). A
    ledger with zero accumulated divergence (no steps, or an effectively
    infinite sigma) spends exactly nothing, so epsilon is 0 in that case
    rather than the grid penalty the conversion formula alone would report.
    An infinite per-step value at every order gives epsilon = inf.
    """

    def __init__(self, spec: MechanismSpec, delta: float = DEFAULT_DELTA):
        _check_delta(delta)
        self.spec = spec
        self.delta = delta
        self._alphas = default_alpha_grid(spec.q)
        self._per_step = _per_step(spec)
        self._spends_nothing = self._per_step.max() == 0.0
        # Every alpha - 1 is exact, so each penalty is one IEEE division.
        a_minus_one = _FULL_BATCH_A_MINUS_ONE if spec.q >= 1.0 else _A_MINUS_ONE
        self._penalties = math.log(1.0 / delta) / a_minus_one
        self.step_count = 0

    def advance(self, steps: int = 1) -> None:
        self.step_count += _steps(steps)

    def curve(self) -> list[list[float]]:
        """``[[alpha, accumulated rdp], ...]`` over the grid.

        Every total is 0.0 at zero steps, even where the per-step value is
        +inf: zero steps spend nothing.
        """
        steps = self.step_count
        per_step = self._per_step.tolist() if steps else [0.0] * len(self._alphas)
        return [[a, r * steps] for a, r in zip(self._alphas, per_step)]

    def spent(self) -> PrivacySpent:
        epsilon, best = self._epsilon_at(self.step_count)
        return PrivacySpent(epsilon=epsilon, delta=self.delta, optimal_alpha=self._alphas[best])

    def epsilon_if(self, step_count: int) -> float:
        """Epsilon the ledger would report after ``step_count`` total steps."""
        return self._epsilon_at(_steps(step_count))[0]

    def _first_step_over(self, budget: float, planned: int) -> int | None:
        """The least count n in ``1..planned`` with ``epsilon_if(n) > budget``, or None.

        One bisection over ``_epsilon_at``. It relies on epsilon never
        falling as n grows: every per-step value is >= 0 or +inf, and IEEE
        multiplication and addition round monotonically, so each order's
        total ``per_step * n + penalty`` does not decrease with n, nor does
        the least of them. The answer is the count a query per count finds.
        """
        if planned < 1 or self._epsilon_at(planned)[0] <= budget:
            return None
        # Every count up to lo is within the budget; hi is over it.
        lo, hi = 0, planned
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._epsilon_at(mid)[0] > budget:
                hi = mid
            else:
                lo = mid
        return hi

    def _epsilon_at(self, steps: int) -> tuple[float, int]:
        """Epsilon after ``steps`` steps, and the index of the order attaining it."""
        if steps == 0 or self._spends_nothing:
            return 0.0, int(self._penalties.argmin())
        # A finite per-step value near the float maximum overflows to +inf
        # here, which is the right total for that order.
        with np.errstate(over="ignore"):
            candidates = self._per_step * steps + self._penalties
        best = int(candidates.argmin())
        return float(candidates[best]), best


def accountant_query(sigma: float, q: float, steps: int, delta: float) -> dict:
    """JSON-ready accountant answer for a (sigma, q, steps, delta) query.

    A ledger at ``delta`` advanced by ``steps``: its ``spent()`` and its
    ``curve()``; the ledger refuses a bad count.
    """
    ledger = PrivacyLedger(MechanismSpec(sigma, q), delta)
    ledger.advance(steps)
    spent = ledger.spent()
    return {
        "sigma": sigma,
        "q": q,
        "steps": ledger.step_count,
        "delta": delta,
        "epsilon": spent.epsilon,
        "optimal_alpha": spent.optimal_alpha,
        "curve": ledger.curve(),
    }
