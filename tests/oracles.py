"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: Renyi
divergences of Gaussian mixtures come from adaptive Simpson quadrature, the
epsilon conversion from a brute-force grid search, the linear-classifier
baseline from plain logistic regression on raw numpy, the private step
from one autodiff tape and one ``clip_gradient`` call per sample, the Adam
update from one numpy expression per parameter slot with Adam's constants
as its own literals, and the accountant's
all-orders RDP table from one numpy pipeline per order
(``per_order_rdp``) and from the table with one ``np.add.reduce`` per order
(``row_loop_subsampled_rdp``). ``renyi_divergence`` and ``kl_divergence``
between two discrete distributions, and ``classic_gaussian_sigma``, the
one-shot Gaussian calibration, are the textbook formulas criteria 05 and 06
check; no training path uses them.

The autodiff tape itself lives in ``autodiff``, beside this module.
``traced_forward`` builds a model's batch graph on it (``Model.forward``
runs the layer kernels instead), ``per_sample_gradient`` is one sample's
loss and gradient from one tape, and ``per_sample_gradients`` widens
``PerSampleBatch``'s rows to a ``[B, P]`` matrix for comparing with it.
``BatchCoupledNormLayer`` is a layer no ``Model`` admits;
``traced_forward`` and ``per_sample_gradient`` also run it, on a
``LayerStack``, so the tests can show that it mixes samples.

A gradient here is what the tape returns: a tuple of float64 arrays, one
per parameter slot. ``global_norm``, ``clip_gradient`` and
``mean_gradient_sets`` are the per-sample references for it: the global L2
norm as one BLAS dot per array added in slot order, the clip to norm R
that divides by ``max(1, norm / R)``, and the mean in list order.
``dptrain.mechanisms.clip_rows`` must equal ``global_norm`` and
``clip_gradient`` bit for bit on each row.
``aggregate_noisy`` is the noisy aggregation over a list of per-sample
gradients at a float noise multiplier sigma (clip each, sum in list order,
draw the noise array by array from one stream, add it at either
placement). The private step does the same on ``[B, T]`` rows over the
trainable columns, in cache-sized blocks, with one ``[P]`` draw;
``tape_dp_adam_step`` uses this list form as its reference, at the sigma
and the sampling rate of the ledger it charges, as the private step does,
and returns its seven outcome statistics as a ``TapeStepOutcome``.
``per_step_first_over`` is the budget stop as one ledger query per step
count, the reference for the ledger's bisection.
``tape_batch_gradient`` is the batch gradient on one autodiff tape over the
batch graph, the reference for the layer kernels' batch layout.
``flat`` and ``slot_views`` convert between a per-slot gradient and the flat
``[P]`` vector that ``batch_gradient`` returns and ``adam_step`` takes.
``block_freeze_mask`` is the frozen-slot rule walked layer by layer.
``masked_sigmoid``, ``clip_clamp``, ``broadcast_outer``,
``matmul_clip_rows``, ``mean_group_norm`` and ``mean_group_norm_pullback``
are the former numpy formulas of the private step's kernels (masked
sigmoid branches, the ``np.clip`` loss clamp, the broadcast outer
product, the matmul norms with an all-rows divide, and group norm and its
pullback with ``np.mean``), the references the current kernels must
equal bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    batch_norm,
    binary_cross_entropy,
    group_norm,
    matmul,
    mul,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
)
from dptrain.mechanisms import NOISE_PLACEMENTS
from dptrain.model import (
    BCE_PROB_FLOOR,
    GROUP_NORM_VAR_FLOOR,
    ActivationLayer,
    DenseLayer,
    GroupNormLayer,
    PerSampleBatch,
    ShapeMismatchError,
    _binary_labels,
)
from dptrain.optim import poisson_subsample

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


# The accountant's former [63, 65] table: row a - 2 is order a, column k its
# k-th term, log C(a, k) is -inf past k = a.
_ROW_LOOP_ORDERS = list(range(2, 65))
_ROW_LOOP_K = np.arange(65)
_ROW_LOOP_LOG_COMB = np.array(
    [
        [_LOG_FACTORIAL[a] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[a - k] if k <= a else -math.inf
         for k in range(65)]
        for a in _ROW_LOOP_ORDERS
    ]
)
_ROW_LOOP_A_MINUS_K = np.array(_ROW_LOOP_ORDERS)[:, None] - _ROW_LOOP_K


def row_loop_subsampled_rdp(sigma: float, q: float) -> np.ndarray:
    """Per-step subsampled-Gaussian RDP at orders 2..64, one row sum per order.

    The accountant's former ``_subsampled_rdp``, kept as the bit-identity
    oracle of its one-pass table: the whole [63, 65] table, exp over
    every entry, then a Python loop that sums each order's own a + 1 terms
    with ``np.add.reduce`` and takes ``math.log``. Non-finite values are +inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_terms = (
            (_ROW_LOOP_LOG_COMB + _ROW_LOOP_K * math.log(q)) + _ROW_LOOP_A_MINUS_K * math.log1p(-q)
        ) + (_ROW_LOOP_K * _ROW_LOOP_K - _ROW_LOOP_K) / (2.0 * sigma * sigma)
        peaks = np.fmax.reduce(log_terms, axis=1)
        scaled = np.exp(log_terms - peaks[:, None])
    values = np.empty(len(_ROW_LOOP_ORDERS))
    for row, (a, peak) in enumerate(zip(_ROW_LOOP_ORDERS, peaks.tolist())):
        value = (peak + math.log(np.add.reduce(scaled[row, : a + 1]))) / (a - 1)
        values[row] = max(0.0, value) if math.isfinite(value) else math.inf
    return values


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


def per_step_first_over(ledger, budget: float, planned: int) -> int | None:
    """The budget stop as one ``epsilon_if`` query per step count: the
    least count in ``1..planned`` whose epsilon exceeds ``budget``, or None."""
    return next((n for n in range(1, planned + 1) if ledger.epsilon_if(n) > budget), None)


def grid_search_epsilon_gaussian(sigma: float, delta: float, steps: int = 1) -> tuple[float, int]:
    """Exhaustive integer-grid conversion for the unsubsampled Gaussian."""
    best_eps, best_alpha = math.inf, -1
    for alpha in range(2, 65):
        eps = steps * alpha / (2.0 * sigma * sigma) + math.log(1.0 / delta) / (alpha - 1)
        if eps < best_eps:
            best_eps, best_alpha = eps, alpha
    return best_eps, best_alpha


def renyi_divergence(p, q, alpha: float) -> float:
    """Order-alpha Renyi divergence (1/(alpha-1)) log sum p_i^alpha q_i^(1-alpha), floored at 0.

    For probability vectors p and q, q positive wherever p is, and finite
    alpha > 0 other than 1; the alpha -> 1 limit is :func:`kl_divergence`.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    terms = p[mask] ** alpha * q[mask] ** (1.0 - alpha)
    return max(0.0, math.log(float(terms.sum())) / (alpha - 1.0))


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum p_i log(p_i / q_i), with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def classic_gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """The classic one-shot Gaussian noise scale, sensitivity sqrt(2 ln(1.25 / delta)) / epsilon.

    (epsilon, delta)-DP for one query of that L2 sensitivity when epsilon
    is in (0, 1] (Dwork & Roth 2014, Theorem A.1).
    """
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


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


def shapes(grad) -> tuple[tuple[int, ...], ...]:
    """The shape of each array of a per-slot gradient."""
    return tuple(a.shape for a in grad)


def global_norm(grad) -> float:
    """The L2 norm over every element of every array.

    One BLAS dot per array, summed in array order from 0.0.
    """
    total = 0.0
    for a in grad:
        flat = a if a.ndim == 1 else a.reshape(-1)
        total += np.dot(flat, flat)
    return math.sqrt(total)


def clip_gradient(grad, spec) -> tuple[np.ndarray, ...]:
    """``grad`` rescaled to global L2 norm at most ``spec.max_norm``.

    Returns grad / max(1, ||grad|| / R). Direction is preserved; gradients
    already within the bound pass through unchanged (division by exactly 1).
    """
    norm = global_norm(grad)
    if not math.isfinite(norm):
        raise ValueError("cannot clip a non-finite gradient")
    factor = max(1.0, norm / spec.max_norm)
    return tuple(a / factor for a in grad)


def mean_gradient_sets(sets) -> tuple[np.ndarray, ...]:
    """Average per-slot gradients in the given (fixed) order."""
    if not sets:
        raise ValueError("cannot average an empty list of gradients")
    expected = shapes(sets[0])
    acc = [a.copy() for a in sets[0]]
    for gs in sets[1:]:
        if shapes(gs) != expected:
            raise ShapeMismatchError(f"gradients not shape-aligned: {expected} vs {shapes(gs)}")
        for a, b in zip(acc, gs):
            a += b
    n = len(sets)
    return tuple(a / n for a in acc)


def aggregate_noisy(
    per_sample, clip, sigma, rng, placement="after-mean"
) -> tuple[np.ndarray, ...]:
    """Clip every per-sample gradient, average, and add Gaussian noise.

    ``sigma`` is the noise multiplier, a float; ``placement`` selects where
    the sigma*R noise enters (see
    ``dptrain.mechanisms``). Per-sample gradients are summed in list order
    and the noise is drawn array by array from the one ``rng`` stream, so
    results are reproducible.
    """
    if not per_sample:
        raise ValueError("aggregate_noisy needs a non-empty batch")
    if placement not in NOISE_PLACEMENTS:
        raise ValueError(f"unknown noise placement {placement!r}")
    expected = shapes(per_sample[0])
    for gs in per_sample[1:]:
        if shapes(gs) != expected:
            raise ValueError("per-sample gradients are not shape-aligned")

    batch = len(per_sample)
    acc = [np.array(a, copy=True) for a in clip_gradient(per_sample[0], clip)]
    for gs in per_sample[1:]:
        for a, b in zip(acc, clip_gradient(gs, clip)):
            a += b

    scale = sigma * clip.max_norm
    draw = [rng.standard_normal(shape) * scale for shape in expected]
    if placement == "after-mean":
        return tuple(s / batch + n for s, n in zip(acc, draw))
    return tuple((s + n) / batch for s, n in zip(acc, draw))


@dataclass(frozen=True)
class BatchCoupledNormLayer:
    """Normalizes each feature with the mean and variance of the whole batch (tests only).

    The layer that breaks per-sample isolation: sample i's output reads
    every other sample, so sample i's gradient does too. ``Model`` refuses
    it, as it refuses every layer outside its closed set; ``traced_forward``
    runs it on a ``LayerStack``, so a test can show the mixing on the tape.
    """

    channels: int
    gamma_slot: int
    beta_slot: int

    kind = "batch_norm"


# What ``traced_forward`` and ``per_sample_gradient`` read of a model, for layers no
# ``Model`` admits.
LayerStack = namedtuple("LayerStack", "layers parameters input_dim")


def traced_forward(model, x, tape: Tape) -> Tensor:
    """Logits ``[B]`` of a batch as a graph of tape primitives on ``tape`` (already entered).

    ``Model.forward``'s former traced branch. It watches one tensor per
    parameter, in slot order; those tensors wrap copies of the parameters,
    so a recorded tape keeps its values when the model is updated.
    ``model`` is a ``Model`` or a ``LayerStack``.
    """
    data = np.asarray(x, dtype=np.float64)
    if data.ndim == 1:
        data = data.reshape(1, -1)
    if data.ndim != 2 or data.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"input of shape {np.asarray(x).shape} does not match "
            f"input layer width {model.input_dim}"
        )
    params = [Tensor(p.copy()) for p in model.parameters]
    for p in params:
        tape.watch(p)
    h = Tensor(data)
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            h = add(matmul(h, params[layer.weight_slot]), params[layer.bias_slot])
        elif isinstance(layer, ActivationLayer):
            h = relu(h)
        elif isinstance(layer, GroupNormLayer):
            normed = group_norm(h, layer.num_groups)
            h = add(mul(normed, params[layer.gamma_slot]), params[layer.beta_slot])
        elif isinstance(layer, BatchCoupledNormLayer):
            h = add(mul(batch_norm(h), params[layer.gamma_slot]), params[layer.beta_slot])
        else:
            raise TypeError(f"unknown layer {layer!r}")
    return reshape(h, (data.shape[0],))


def per_sample_gradient(model, x, y) -> tuple[float, tuple[np.ndarray, ...]]:
    """Loss and exact gradient of one sample's BCE loss w.r.t. all parameters.

    ``x`` is a single sample (1-D of input_dim, or shape [1, input_dim]);
    ``y`` must be 0 or 1. Pure: repeated calls return identical values.
    Runs one autodiff tape, the gradient oracle of the layer kernels.
    """
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim == 1:
        xa = xa.reshape(1, -1)
    if xa.shape[0] != 1:
        raise ShapeMismatchError(f"per_sample_gradient expects one sample, got {xa.shape}")
    yv = float(y)
    if yv not in (0.0, 1.0):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    with Tape() as tape:
        probs = sigmoid(traced_forward(model, xa, tape))
        loss = reduce_mean(binary_cross_entropy(probs, Tensor(np.array([yv]))))
        grad = backward(tape, loss)
    return loss.item(), grad


def per_sample_gradients(model, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses ``[B]`` and gradients ``[B, P]`` of a batch in one pass.

    Row i equals ``per_sample_gradient(model, xs[i], ys[i])`` flattened in
    slot order (see ``PerSampleBatch``), with zero columns for frozen
    parameters. Builds the whole matrix with ``PerSampleBatch._write_rows``,
    the full-row writer: the full-width row loop the tests hold
    ``PerSampleBatch.clipped_sum`` to, which builds no such matrix (it
    writes each wide weight one sample at a time and the other trainable
    columns in row blocks; see ``model.ROW_BLOCK_BYTES``).
    """
    batch = PerSampleBatch(model, xs, ys)
    start = model.trainable_start
    tail = np.empty((batch.size, model.num_parameters() - start))
    batch._write_rows(0, batch.size, tail)
    grads = np.zeros((batch.size, model.num_parameters()))
    grads[:, start:] = tail
    return batch.losses, grads


def tape_batch_gradient(model, xs, ys) -> tuple[float, tuple[np.ndarray, ...]]:
    """Mean BCE loss of a batch and its gradient, from one tape over the batch graph.

    ``dptrain.model.batch_gradient``'s former implementation, kept as the
    bit-identity oracle for the layer kernels' batch layout. Every watched
    parameter gets its gradient, frozen ones too.
    """
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64).reshape(-1)
    with Tape() as tape:
        logits = traced_forward(model, xa, tape)
        loss = reduce_mean(binary_cross_entropy(sigmoid(logits), Tensor(ya)))
        grad = backward(tape, loss)
    return loss.item(), grad


def block_freeze_mask(model, k: int) -> list[bool]:
    """Per slot, whether it trains after freezing the first ``k`` dense blocks.

    A block is a dense layer plus every ``group_norm`` after it up to the
    next dense layer, collected slot by slot. ``Model``'s ``freeze_prefix``
    states its rule as one slot boundary instead; on every ``build_mlp``
    model the two agree.
    """
    frozen: set[int] = set()
    seen_dense = 0
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            seen_dense += 1
            if seen_dense <= k:
                frozen.update((layer.weight_slot, layer.bias_slot))
                for later in model.layers[i + 1:]:
                    if isinstance(later, GroupNormLayer):
                        frozen.update((later.gamma_slot, later.beta_slot))
                    if isinstance(later, DenseLayer):
                        break
    return [s not in frozen for s in range(len(model.parameters))]


def masked(grad, trainable) -> tuple[np.ndarray, ...]:
    """``grad`` with the arrays of frozen slots replaced by zeros."""
    if all(trainable):
        return grad
    return tuple(a if keep else np.zeros_like(a) for a, keep in zip(grad, trainable))


def per_slot_adam_update(model, state, vbar) -> None:
    """The Adam update as one numpy expression per parameter slot.

    The optimizer's former implementation, kept as the bit-identity oracle
    for its flat-vector update. ``state`` holds ``[P]`` moments, laid out
    like ``Model.parameter_vector``, where the optimizer keeps ``[T]``
    moments over the trainable tail. Every slot is updated, frozen ones
    too, under a masked (zero) gradient: from zero moments a frozen slot's
    moments stay 0.0 and its parameters keep their bits, so the oracle's
    ``[trainable_start:]`` moments and every parameter match the optimizer.
    """
    if shapes(vbar) != shapes(model.parameters):
        raise ShapeMismatchError("gradient is not shape-aligned with the model parameters")
    offsets = slot_offsets(model)

    def per_slot(vector):
        return [vector[offsets[s]:offsets[s + 1]].reshape(a.shape) for s, a in enumerate(vbar)]

    state.t += 1
    b1, b2, stabilizer = 0.9, 0.999, 1e-8  # Adam's constants, written out independently
    new_m = [b1 * m + (1.0 - b1) * g for m, g in zip(per_slot(state.m), vbar)]
    new_u = [b2 * u + (1.0 - b2) * (g * g) for u, g in zip(per_slot(state.u), vbar)]
    state.m = np.concatenate([a.reshape(-1) for a in new_m])
    state.u = np.concatenate([a.reshape(-1) for a in new_u])
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    direction = [(m / c1) / (np.sqrt(u / c2) + stabilizer) for m, u in zip(new_m, new_u)]

    model.parameter_vector[:] = flat(
        [p - state.lr * w for p, w in zip(model.parameters, direction)]
    )


def per_slot_adam_step(model, grad: np.ndarray, state) -> None:
    """``dptrain.optim.adam_step`` on the per-slot update oracle, from a flat ``[T]`` gradient.

    Frozen slots get zero gradients; ``state`` holds ``[P]`` moments.
    """
    full = np.zeros(model.num_parameters())
    full[model.trainable_start:] = grad
    per_slot_adam_update(model, state, slot_views(model, full))


def flat(grad) -> np.ndarray:
    """A per-slot gradient as one flat ``[P]`` vector, its arrays raveled in slot order."""
    return np.concatenate([a.reshape(-1) for a in grad])


def slot_offsets(model) -> tuple[int, ...]:
    """Start of each slot in ``model.parameter_vector``, then its length ``P``."""
    offsets = [0]
    for p in model.parameters:
        offsets.append(offsets[-1] + p.size)
    return tuple(offsets)


def trainable_mask(model) -> list[bool]:
    """Per slot, whether it trains: whether it starts at or after ``model.trainable_start``."""
    return [start >= model.trainable_start for start in slot_offsets(model)[:-1]]


def slot_views(model, vector: np.ndarray) -> tuple[np.ndarray, ...]:
    """A flat ``[P]`` vector split into shaped views, one per slot."""
    offsets = slot_offsets(model)
    return tuple(
        vector[offsets[s]:offsets[s + 1]].reshape(p.shape)
        for s, p in enumerate(model.parameters)
    )


# The seven statistics a ``dptrain.optim.StepOutcome`` reads, by name.
TapeStepOutcome = namedtuple(
    "TapeStepOutcome",
    "applied batch_size preclip_norm_min preclip_norm_mean preclip_norm_max "
    "noisy_grad_norm mean_loss",
)


def tape_dp_adam_step(
    model, xs, ys, state, clip, ledger, poisson_rng, noise_rng, noise_placement="after-mean",
):
    """The private step as a loop over samples: one tape per Poisson-batch member.

    Same contract as ``dptrain.optim.dp_adam_step``, which must reproduce it
    bit for bit: the batch is drawn at ``ledger.spec.q`` and the noise
    scaled by ``ledger.spec.sigma``. The Adam update is the per-slot oracle,
    so ``state`` holds ``[P]`` moments. It returns a ``TapeStepOutcome``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.input_dim:
        raise ShapeMismatchError(f"input of shape {xs.shape} does not match the input layer")
    ys = _binary_labels(ys, xs.shape[0])
    if noise_placement not in NOISE_PLACEMENTS:
        raise ValueError(f"unknown noise placement {noise_placement!r}")
    indices = poisson_subsample(xs.shape[0], ledger.spec.q, poisson_rng)
    ledger.advance(1)
    if indices.size == 0:
        nan = math.nan
        return TapeStepOutcome(False, 0, nan, nan, nan, nan, nan)

    grads, losses, trainable = [], [], trainable_mask(model)
    for i in indices:
        loss, g = per_sample_gradient(model, xs[i], ys[i])
        grads.append(masked(g, trainable))
        losses.append(loss)
    norms = np.array([global_norm(g) for g in grads])

    vbar = aggregate_noisy(grads, clip, ledger.spec.sigma, noise_rng, placement=noise_placement)
    vbar = masked(vbar, trainable)
    per_slot_adam_update(model, state, vbar)
    return TapeStepOutcome(
        applied=True,
        batch_size=int(indices.size),
        preclip_norm_min=float(norms.min()),
        preclip_norm_mean=float(norms.mean()),
        preclip_norm_max=float(norms.max()),
        noisy_grad_norm=global_norm(vbar),
        mean_loss=float(np.mean(losses)),
    )


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function with one masked gather and scatter per sign of ``z``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clip_clamp(p: np.ndarray) -> np.ndarray:
    """Probabilities clamped to ``[BCE_PROB_FLOOR, 1 - BCE_PROB_FLOOR]`` by ``np.clip``."""
    return np.clip(p, BCE_PROB_FLOOR, 1.0 - BCE_PROB_FLOOR)


def broadcast_outer(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-row outer products ``[B, in, out]`` of ``h`` ``[B, in]`` and ``g`` ``[B, out]``."""
    return np.multiply(h[:, :, None], g[:, None, :])


def matmul_clip_rows(rows: np.ndarray, spans, spec) -> np.ndarray:
    """``clip_rows`` with stacked-matmul span norms and a divide of every row."""
    total = np.zeros(rows.shape[0])
    for lo, hi in spans:
        v = rows[:, lo:hi]
        total += (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    norms = np.sqrt(total)
    if not np.isfinite(norms).all():
        raise ValueError("cannot clip a non-finite gradient")
    rows /= np.maximum(1.0, norms / spec.max_norm)[:, None]
    return norms


def mean_group_norm(x: np.ndarray, num_groups: int):
    """``(y, inv_std, floored)`` of ``model._group_norm``, its statistics taken with ``np.mean``."""
    grouped = x.reshape(-1, num_groups, x.shape[-1] // num_groups)
    mean = grouped.mean(axis=2, keepdims=True)
    centered = grouped - mean
    var = np.mean(centered * centered, axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.maximum(var, GROUP_NORM_VAR_FLOOR))
    return centered * inv_std, inv_std, var <= GROUP_NORM_VAR_FLOOR


def mean_group_norm_pullback(gg: np.ndarray, saved) -> np.ndarray:
    """``model._group_norm_pullback`` with ``np.mean`` for the two means."""
    y, inv_std, floored = saved
    g_mean = gg.mean(axis=2, keepdims=True)
    proj = np.where(floored, 0.0, np.mean(gg * y, axis=2, keepdims=True))
    return inv_std * (gg - g_mean - y * proj)
