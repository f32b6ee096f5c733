"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: Renyi
divergences of Gaussian mixtures come from adaptive Simpson quadrature, the
epsilon conversion from a brute-force grid search, the linear-classifier
baseline from plain logistic regression on raw numpy, the private step
from one autodiff tape and one ``clip_gradient`` call per sample, the Adam
update from one numpy expression per parameter slot, and the accountant's
all-orders RDP table from one numpy pipeline per order.
"""

from __future__ import annotations

import math

import numpy as np

from dptrain.mechanisms import aggregate_noisy
from dptrain.model import ModelValidationError, per_sample_gradient, validate_model
from dptrain.optim import StepOutcome, poisson_subsample
from dptrain.tensor import GradientSet, ShapeMismatchError

SIMPSON_TOL = 1e-12


def adaptive_simpson(
    f,
    a: float,
    b: float,
    tol: float = SIMPSON_TOL,
    max_depth: int = 48,
    initial_panels: int = 1,
) -> float:
    """Adaptive Simpson quadrature of a vectorized integrand over [a, b].

    Keeps a worklist of intervals, refining each until the Richardson error
    estimate of its Simpson rule is below its share of the tolerance. ``f``
    must accept numpy arrays. Narrow features can fool the error estimate of
    a panel whose samples all miss them, so callers integrating spiked
    functions should start from panels no wider than the feature.
    """
    edges = np.linspace(a, b, initial_panels + 1)
    a_arr = edges[:-1]
    b_arr = edges[1:]
    mid = (a_arr + b_arr) / 2.0
    fa, fb, fm = f(a_arr), f(b_arr), f(mid)
    whole = (b_arr - a_arr) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    # Halving the error budget per split below machine precision would refine
    # forever; floor it just above the noise of the exp/log evaluations.
    tol_floor = 2e-15
    tols = np.full(initial_panels, max(tol / initial_panels, tol_floor))
    lo, hi, flo, fmid, fhi, est = a_arr, b_arr, fa, fm, fb, whole
    for _ in range(max_depth):
        if lo.size == 0:
            break
        lm = (lo + hi) / 2.0
        left_mid = (lo + lm) / 2.0
        right_mid = (lm + hi) / 2.0
        f_lm_left = f(left_mid)
        f_lm_right = f(right_mid)
        h = hi - lo
        s_left = h / 12.0 * (flo + 4.0 * f_lm_left + fmid)
        s_right = h / 12.0 * (fmid + 4.0 * f_lm_right + fhi)
        err = s_left + s_right - est
        done = np.abs(err) <= 15.0 * tols
        total += float(np.sum((s_left + s_right + err / 15.0)[done]))

        keep = ~done
        lo = np.concatenate([lo[keep], lm[keep]])
        hi = np.concatenate([lm[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([f_lm_left[keep], f_lm_right[keep]])
        est = np.concatenate([s_left[keep], s_right[keep]])
        half = np.maximum(tols[keep] / 2.0, tol_floor)
        tols = np.concatenate([half, half])
    else:
        raise RuntimeError("adaptive Simpson did not converge")
    return total


def _log_normal_pdf(x: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    z = (x - mean) / sigma
    return -0.5 * z * z - math.log(sigma * math.sqrt(2.0 * math.pi))


def mixture_renyi_rdp(alpha: float, sigma: float, q: float) -> float:
    """Order-alpha Renyi divergence of the subsampled-Gaussian step, by quadrature.

    Integrates p(x)^alpha q(x)^(1-alpha) where p is the mixture
    (1-q) N(0, sigma^2) + q N(1, sigma^2) and q is N(0, sigma^2). The
    integrand's mass peaks near x = alpha (complete the square in the
    exponent), so the interval runs 20 sigma past both 0 and alpha; the
    integrand is rescaled by its maximum in log space so extreme orders
    cannot overflow. At q = 1 this is the divergence between N(1, sigma^2)
    and N(0, sigma^2), i.e. the plain Gaussian mechanism.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    lo, hi = -20.0 * sigma - 1.0, alpha + 20.0 * sigma + 1.0

    def log_integrand(x: np.ndarray) -> np.ndarray:
        log_base = _log_normal_pdf(x, 0.0, sigma)
        log_shift = _log_normal_pdf(x, 1.0, sigma)
        if q >= 1.0:
            log_mix = log_shift
        else:
            log_mix = np.logaddexp(math.log1p(-q) + log_base, math.log(q) + log_shift)
        return alpha * log_mix + (1.0 - alpha) * log_base

    probe = np.linspace(lo, hi, 4001)
    offset = float(np.max(log_integrand(probe)))

    def scaled(x: np.ndarray) -> np.ndarray:
        return np.exp(log_integrand(x) - offset)

    panels = max(64, int(math.ceil((hi - lo) / (sigma / 4.0))))
    integral = adaptive_simpson(scaled, lo, hi, initial_panels=panels)
    return (math.log(integral) + offset) / (alpha - 1.0)


def oracle_alpha_grid(q: float) -> tuple[float, ...]:
    """Denser order grid than the accountant's: integer orders, their
    midpoints, and (at q = 1 only, matching the accountant's domain) the
    fractional orders below 2."""
    grid = []
    if q >= 1.0:
        grid.extend([1.25, 1.375, 1.5, 1.75])
    a = 2.0
    while a <= 64.0:
        grid.append(a)
        if a < 64.0:
            grid.append(a + 0.5)
        a += 1.0
    return tuple(grid)


def oracle_epsilon(sigma: float, q: float, steps: int, delta: float, alphas=None) -> float:
    """Grid-search epsilon from quadrature RDP values.

    With the default (denser) grid this lower-bounds any grid-restricted
    accountant; evaluated on the accountant's own grid it checks every
    per-order value and the conversion arithmetic independently.
    """
    if alphas is None:
        alphas = oracle_alpha_grid(q)
    log_inv_delta = math.log(1.0 / delta)
    best = math.inf
    for alpha in alphas:
        rdp = mixture_renyi_rdp(alpha, sigma, q)
        best = min(best, steps * rdp + log_inv_delta / (alpha - 1.0))
    return best


_LOG_FACTORIAL = tuple(math.lgamma(k + 1) for k in range(65))


def per_order_rdp(sigma: float, q: float, alpha) -> float:
    """Per-step RDP at one order, one small numpy pipeline per order.

    The accountant's former implementation, kept as the bit-identity oracle
    for its all-orders table: integer orders 2..64 by the binomial expansion
    at q < 1, alpha / (2 sigma^2) at q = 1 (where fractional orders are
    allowed too). Unlike the accountant, an overflowing sum turns into 0.0
    here, so compare only where sigma >= 1e-4.
    """
    af = float(alpha)
    if q >= 1.0:
        return alpha / (2.0 * sigma * sigma)
    a = int(af)
    k = np.arange(a + 1)
    log_comb = np.array(
        [_LOG_FACTORIAL[a] - _LOG_FACTORIAL[i] - _LOG_FACTORIAL[a - i] for i in k]
    )
    log_terms = (
        log_comb
        + k * math.log(q)
        + (a - k) * math.log1p(-q)
        + (k * k - k) / (2.0 * sigma * sigma)
    )
    m = float(log_terms.max())
    return max(0.0, (m + math.log(float(np.exp(log_terms - m).sum()))) / (a - 1))


def per_order_epsilon(sigma: float, q: float, steps: int, delta: float) -> float:
    """Epsilon from ``per_order_rdp`` on the accountant's default grid, with
    the accountant's former conversion arithmetic (per-order Python products,
    then one array sum and argmin)."""
    alphas = [1.25, 1.5] if q >= 1.0 else []
    alphas += [float(a) for a in range(2, 65)]
    totals = np.array([per_order_rdp(sigma, q, a) * steps for a in alphas])
    penalties = math.log(1.0 / delta) / (np.array(alphas) - 1.0)
    candidates = totals + penalties
    if steps == 0 or float(totals.max()) == 0.0:
        return 0.0
    return float(candidates[int(np.argmin(candidates))])


def grid_search_epsilon_gaussian(sigma: float, delta: float, steps: int = 1) -> tuple[float, int]:
    """Exhaustive integer-grid conversion for the unsubsampled Gaussian."""
    best_eps, best_alpha = math.inf, -1
    for alpha in range(2, 65):
        eps = steps * alpha / (2.0 * sigma * sigma) + math.log(1.0 / delta) / (alpha - 1)
        if eps < best_eps:
            best_eps, best_alpha = eps, alpha
    return best_eps, best_alpha


def logistic_regression_accuracy(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    lr: float = 0.5,
    steps: int = 500,
) -> float:
    """Plain full-batch logistic regression baseline, no toolkit code involved."""
    w = np.zeros(train_x.shape[1])
    b = 0.0
    n = train_x.shape[0]
    for _ in range(steps):
        z = train_x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - train_y
        w -= lr * (train_x.T @ err) / n
        b -= lr * float(err.mean())
    preds = (test_x @ w + b) > 0.0
    return float(np.mean(preds == (test_y > 0.5)))


def masked(grad: GradientSet, trainable) -> GradientSet:
    """``grad`` with the arrays of frozen slots replaced by zeros."""
    if all(trainable):
        return grad
    return GradientSet(
        [a if keep else np.zeros_like(a) for a, keep in zip(grad.arrays, trainable)]
    )


def per_slot_adam_update(model, state, vbar: GradientSet) -> None:
    """The Adam update as one numpy expression per parameter slot.

    The optimizer's former implementation, kept as the bit-identity oracle
    for its flat-vector update. Every slot is updated, frozen ones too, so
    their moments decay under a masked (zero) gradient: both agree only
    while a frozen slot's moments are zero, as they are when the model is
    frozen before its first step.
    """
    if vbar.shapes != model.parameter_shapes():
        raise ShapeMismatchError("gradient is not shape-aligned with the model parameters")
    offsets = model.parameter_offsets()

    def per_slot(vector):
        return [vector[offsets[s]:offsets[s + 1]].reshape(a.shape) for s, a in enumerate(vbar)]

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    new_m = [b1 * m + (1.0 - b1) * g for m, g in zip(per_slot(state.m), vbar.arrays)]
    new_u = [b2 * u + (1.0 - b2) * (g * g) for u, g in zip(per_slot(state.u), vbar.arrays)]
    state.m = np.concatenate([a.reshape(-1) for a in new_m])
    state.u = np.concatenate([a.reshape(-1) for a in new_u])

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


def per_slot_adam_step(model, grad: GradientSet, state) -> None:
    """``dptrain.optim.adam_step`` on the per-slot update oracle."""
    per_slot_adam_update(model, state, masked(grad, model.trainable))


def tape_dp_adam_step(
    model, xs, ys, state, clip, noise, p, ledger, poisson_rng, noise_rng,
    noise_placement="after-mean",
):
    """The private step as a loop over samples: one tape per Poisson-batch member.

    Same contract as ``dptrain.optim.dp_adam_step``, which must reproduce it
    bit for bit; the Adam update is the per-slot oracle.
    """
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(
            "refusing to run a private step: " + "; ".join(v.reason for v in report.violations)
        )
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    indices = poisson_subsample(xs.shape[0], p, poisson_rng)
    ledger.advance(1)
    if indices.size == 0:
        nan = math.nan
        return StepOutcome(False, 0, nan, nan, nan, nan, nan)

    grads, losses = [], []
    for i in indices:
        loss, g = per_sample_gradient(model, xs[i], ys[i])
        grads.append(masked(g, model.trainable))
        losses.append(loss)
    norms = np.array([g.global_norm() for g in grads])

    vbar = aggregate_noisy(grads, clip, noise, noise_rng, placement=noise_placement)
    vbar = masked(vbar, model.trainable)
    per_slot_adam_update(model, state, vbar)
    return StepOutcome(
        applied=True,
        batch_size=int(indices.size),
        preclip_norm_min=float(norms.min()),
        preclip_norm_mean=float(norms.mean()),
        preclip_norm_max=float(norms.max()),
        noisy_grad_norm=vbar.global_norm(),
        mean_loss=float(np.mean(losses)),
    )
