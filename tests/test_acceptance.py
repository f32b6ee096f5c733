"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import functools
import math
import time

import numpy as np
import pytest

from dptrain.accountant import (
    MechanismSpec,
    PrivacyLedger,
    default_alpha_grid,
    epsilon_for,
)
from dptrain.config import RunConfig, SweepGrid
from dptrain import mechanisms
from dptrain.mechanisms import ClipSpec, clip_rows
from dptrain.model import Model, PerSampleBatch, build_mlp, load_checkpoint
from dptrain.optim import DpAdamState, adam_step, dp_adam_step
from dptrain.train import _cell_config, sweep, train
from autodiff import Tape, backward, fd_gradient
from oracles import (
    classic_gaussian_sigma,
    flat,
    grid_search_epsilon_gaussian,
    kl_divergence,
    mean_gradient_sets,
    mixture_renyi_rdp,
    oracle_alpha_grid,
    per_sample_gradient,
    renyi_divergence,
    slot_views,
    traced_forward,
)
from test_model import batch_coupled_mlp, write_batch_norm_checkpoint


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "gradient correctness vs finite differences")
def test_criterion_01_gradient_correctness():
    # The private step's per-sample rows against central differences of the
    # kernel loss; the tape's own finite-difference checks are in test_autodiff.
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(50):
        dims = [int(rng.integers(2, 6))]
        for _ in range(int(rng.integers(1, 3))):
            dims.append(int(rng.integers(2, 7)) * 2)
        dims.append(1)
        norm = "group:2" if trial % 3 == 0 else "none"
        model = build_mlp(dims, norm=norm, seed=int(rng.integers(0, 10_000)))
        x = rng.uniform(-2.0, 2.0, size=dims[0])
        y = float(rng.integers(0, 2))
        row = np.empty((1, model.num_parameters()))
        PerSampleBatch(model, x[None, :], [y])._write_rows(0, 1, row)

        def loss(params, x=x, y=y, layers=model.layers):
            return PerSampleBatch(Model(layers, params), x[None, :], [y]).losses[0]

        ref = fd_gradient(loss, model.parameters, step=1e-5)
        for g, r in zip(slot_views(model, row[0]), ref):
            large = np.abs(r) >= 1e-3
            if large.any():
                rel = np.abs(g[large] - r[large]) / np.abs(r[large])
                assert rel.max() < 1e-4, f"trial {trial}: rel err {rel.max():.2e}"
            small = ~large
            if small.any():
                assert np.abs(g[small] - r[small]).max() < 1e-7, f"trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "clipping invariant over 1e5 gradient rows")
def test_criterion_02_clipping_invariant():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    bounds = (0.4, 0.6, 0.8, 1.0)
    block = rng.uniform(-3.0, 3.0, size=(100_000, 5))
    scales = 10.0 ** rng.uniform(-2, 2, size=100_000)
    rows = block * scales[:, None]
    worst_norm_excess = 0.0
    worst_direction = 0.0
    # Row i is clipped to bounds[i % 4] by the step's kernel, with two
    # parameter blocks of 3 and 2 columns: one clip_rows call per bound.
    for k, bound in enumerate(bounds):
        pre = rows[k::4]
        clipped = pre.copy()
        pre_norms = clip_rows(clipped, [(0, 3), (3, 5)], ClipSpec(bound))
        post_norms = np.linalg.norm(clipped, axis=1)
        worst_norm_excess = max(worst_norm_excess, float((post_norms / bound).max()))
        live = (pre_norms > 0) & (post_norms > 0)
        drift = np.abs(pre[live] / pre_norms[live, None] - clipped[live] / post_norms[live, None])
        worst_direction = max(worst_direction, float(drift.max()))
    elapsed = time.perf_counter() - started
    assert worst_norm_excess <= 1.0 + 1e-12
    assert worst_direction < 1e-12
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


@criterion(3, "degenerate DP step equals reference Adam")
def test_criterion_03_degenerate_equivalence():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(24, 8))
    ys = rng.integers(0, 2, size=24).astype(float)
    dp_model = build_mlp([8, 8, 1], seed=5)
    ref_model = build_mlp([8, 8, 1], seed=5)
    dp_state = DpAdamState.for_model(dp_model, lr=0.05)
    ref_state = DpAdamState.for_model(ref_model, lr=0.05)
    ledger = PrivacyLedger(MechanismSpec(0.0, 1.0))
    poisson_rng = np.random.default_rng(0)
    noise_rng = np.random.default_rng(1)
    for _ in range(100):
        dp_adam_step(dp_model, xs, ys, dp_state, ClipSpec(1e9), ledger, poisson_rng, noise_rng)
        per = [per_sample_gradient(ref_model, x, y)[1] for x, y in zip(xs, ys)]
        adam_step(ref_model, flat(mean_gradient_sets(per)), ref_state)
    worst = max(
        np.max(np.abs(a - b)) for a, b in zip(dp_model.parameters, ref_model.parameters)
    )
    assert worst < 1e-12, f"max parameter deviation {worst:.2e}"
    assert ledger.step_count == 100
    # A noise-free release has no finite privacy guarantee.
    assert ledger.spent().epsilon == math.inf


@criterion(4, "accountant parity with quadrature oracle")
def test_criterion_04_accountant_parity():
    delta = 1e-5
    log_inv_delta = math.log(1.0 / delta)
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for q in (0.01, 0.1, 1.0):
            dense_rdp = {a: mixture_renyi_rdp(a, sigma, q) for a in oracle_alpha_grid(q)}
            shared_alphas = default_alpha_grid(q)
            for steps in (1, 100, 3000):
                started = time.perf_counter()
                impl = epsilon_for(sigma, q, steps, delta)
                query_time = time.perf_counter() - started
                assert query_time < 1.0, f"query took {query_time:.2f}s"
                # lower bound: a denser alpha grid can only lower the minimum
                oracle_dense = min(
                    steps * r + log_inv_delta / (a - 1.0) for a, r in dense_rdp.items()
                )
                assert impl >= oracle_dense * (1.0 - 1e-9), (sigma, q, steps)
                # parity: same orders, independently integrated and converted
                oracle_shared = min(
                    steps * dense_rdp[a] + log_inv_delta / (a - 1.0)
                    for a in shared_alphas
                )
                assert impl <= oracle_shared * 1.10, (sigma, q, steps, impl, oracle_shared)


@criterion(5, "closed-form spot checks")
def test_criterion_05_closed_form_spot_checks():
    ledger = PrivacyLedger(MechanismSpec(1.0, 1.0), delta=1e-5)
    ledger.advance(1)
    spent = ledger.spent()
    oracle_eps, oracle_alpha = grid_search_epsilon_gaussian(1.0, 1e-5)
    assert abs(spent.epsilon - 5.3026) / 5.3026 < 0.005
    assert spent.epsilon == pytest.approx(oracle_eps, rel=1e-12)
    assert spent.optimal_alpha == 6 == oracle_alpha
    assert abs(classic_gaussian_sigma(1.0, 1e-5, 1.0) - 4.8445) < 1e-3


@criterion(6, "Renyi divergence converges to KL")
def test_criterion_06_renyi_kl_limit():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p = rng.uniform(1e-3, 1.0, size=n)
        q = rng.uniform(1e-3, 1.0, size=n)
        p /= p.sum()
        q /= q.sum()
        assert abs(renyi_divergence(p, q, 1.0 + 1e-6) - kl_divergence(p, q)) < 1e-4


@criterion(7, "noise scale calibration")
def test_criterion_07_noise_calibration(monkeypatch):
    # The private step draws noise for every one of the model's P parameters;
    # [999, 999, 1] has P = 1e6, and freezing its first layer keeps the step
    # cheap. sigma * R = 2.
    model = build_mlp([999, 999, 1], seed=0, freeze_prefix=1)
    assert model.num_parameters() == 1_000_000
    draw = mechanisms.gaussian_noise
    draws = []

    def record(size, scale, rng):
        out = draw(size, scale, rng)
        draws.append(out.copy())
        return out

    monkeypatch.setattr(mechanisms, "gaussian_noise", record)
    xs = np.random.default_rng(0).normal(size=(2, 999))
    dp_adam_step(
        model, xs, np.array([0.0, 1.0]), DpAdamState.for_model(model, lr=0.01),
        ClipSpec(1.0), PrivacyLedger(MechanismSpec(2.0, 1.0)),
        np.random.default_rng(0), np.random.default_rng(60_613),
    )
    (noise,) = draws
    assert noise.shape == (1_000_000,)
    std = float(noise.std())
    assert 1.99 <= std <= 2.01, f"sample std {std:.5f}"


@criterion(8, "per-sample isolation and batch-coupled refusal")
def test_criterion_08_per_sample_isolation(tmp_path):
    from autodiff import binary_cross_entropy, mul, reduce_mean, sigmoid, tensor

    model = build_mlp([6, 8, 8, 1], norm="group:4", seed=21)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(10, 6))
    ys = rng.integers(0, 2, size=10).astype(float)
    for i in range(10):
        _, alone = per_sample_gradient(model, xs[i], ys[i])
        with Tape() as tape:
            logits = traced_forward(model, xs, tape)
            losses = binary_cross_entropy(sigmoid(logits), tensor(ys))
            onehot = np.zeros(10)
            onehot[i] = 10.0
            picked = reduce_mean(mul(losses, tensor(onehot)))
        within = backward(tape, picked)
        for a, b in zip(alone, within):
            # relative error < 1e-10; identically-zero components compare
            # absolutely since relative error is undefined there
            assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a) + 1e-12)

    # The layer set is closed: no model with a batch-coupled layer can be
    # built or loaded, so no training path ever computes a mixed gradient.
    coupled = batch_coupled_mlp()
    with pytest.raises(TypeError, match="unknown layer BatchCoupledNormLayer"):
        Model(coupled.layers, coupled.parameters)
    path = tmp_path / "batch_norm.json"
    write_batch_norm_checkpoint(path)
    with pytest.raises(ValueError, match="unknown layer kind 'batch_norm'"):
        load_checkpoint(path)


@criterion(9, "privacy budget early stopping")
def test_criterion_09_budget_early_stopping():
    config = RunConfig(
        dataset="synthetic", n=400, dim=6, separation=4.0, widths=(8, 1),
        epochs=30, batch_size=32, lr=0.08, clip_norm=1.0,
        privacy="fixed-sigma", sigma=1.0, budget_eps=1.0,
        noise_placement="on-sum",
    )
    report = train(config)
    assert report.stop_reason == "budget-exceeded"
    assert report.achieved_eps <= 1.0
    eps_column = [e.epsilon for e in report.epochs]
    assert all(b >= a for a, b in zip(eps_column, eps_column[1:]))
    split_n = 400 - 40  # 10% test holdout
    q = 32 / int(split_n * 0.8)
    ledger = PrivacyLedger(MechanismSpec(1.0, q), delta=config.delta)
    assert ledger.epsilon_if(report.steps_run + 1) > 1.0


SWEEP_EPSILONS = (1.0, 10.0, math.inf)


@pytest.fixture(scope="module")
def sweep_outcome():
    base = RunConfig(
        dataset="synthetic", n=2000, dim=20, separation=3.0,
        widths=(16, 16, 1), epochs=30, batch_size=32, lr=0.08,
        clip_norm=1.0, delta=1e-5, noise_placement="on-sum",
    )
    grid = SweepGrid(
        target_eps=SWEEP_EPSILONS, clip_norms=(1.0,), freeze_prefixes=(0,),
        seeds_per_cell=5,
    )
    started = time.perf_counter()
    rows = sweep(grid, base)
    return rows, time.perf_counter() - started, base


@criterion(10, "desk-scale privacy/utility sweep trend")
def test_criterion_10_privacy_utility_sweep(sweep_outcome):
    rows, elapsed, _ = sweep_outcome
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
    medians = {}
    for row in rows:
        if row.stop_reason == "median":
            medians[float(row.target_eps)] = float(row.test_acc)
    assert set(medians) == set(SWEEP_EPSILONS)
    ordered = [medians[e] for e in SWEEP_EPSILONS]
    for lower, higher in zip(ordered, ordered[1:]):
        assert higher >= lower - 0.02, f"trend violated: {medians}"
    run_rows = [r for r in rows if r.stop_reason not in ("median", "error")]
    assert len(run_rows) == 15
    for row in run_rows:
        if row.achieved_eps:
            assert float(row.achieved_eps) <= float(row.target_eps)


def test_invariant_trainable_depth_trend(sweep_outcome):
    # Harness invariant, not a numbered criterion: at fixed epsilon = 10,
    # unfreezing one more hidden block must not cost more than 0.02 median
    # test accuracy across 5 seeds, each offset by the sweep's own rule.
    rows, _, base = sweep_outcome
    unfrozen_median = next(
        float(r.test_acc)
        for r in rows
        if r.stop_reason == "median" and r.target_eps == "10.0"
    )
    frozen_accs = [
        train(_cell_config(base, 10.0, base.clip_norm, 1, i)).test_acc for i in range(5)
    ]
    assert unfrozen_median >= float(np.median(frozen_accs)) - 0.02


def test_invariant_privacy_costs_utility():
    # Harness invariant, not a numbered criterion. On a task far from its
    # ceiling (200 features, 1000 samples), the median test accuracy over 4
    # seed indices, offset as the sweep offsets them, is ordered
    # off > epsilon 10 > epsilon 1. Measured: 0.855, 0.825 and 0.675 (at one
    # BLAS thread and at two; the widest weight span, 3,200 entries, is below
    # OpenBLAS's threading threshold).
    base = RunConfig(
        n=1000, dim=200, widths=(16, 16, 1), noise_placement="on-sum", epochs=10, lr=0.01,
    )
    grid = SweepGrid(
        target_eps=SWEEP_EPSILONS, clip_norms=(base.clip_norm,), freeze_prefixes=(0,),
        seeds_per_cell=4,
    )
    rows = sweep(grid, base)
    assert not [r for r in rows if r.stop_reason == "error"]
    medians = {float(r.target_eps): float(r.test_acc) for r in rows if r.stop_reason == "median"}
    assert medians[math.inf] >= medians[10.0] + 0.02, medians
    assert medians[10.0] >= medians[1.0] + 0.10, medians


@criterion(11, "bit-exact training determinism")
def test_criterion_11_determinism():
    config = RunConfig(
        dataset="synthetic", n=600, dim=8, separation=3.0, widths=(8, 8, 1),
        norm="group:2", epochs=4, batch_size=32, lr=0.08, clip_norm=0.8,
        privacy="fixed-sigma", sigma=1.1, noise_placement="after-mean",
    )
    first = train(config)
    second = train(config)
    assert first.numerics() == second.numerics()
    off = config.with_overrides(privacy="off", sigma=None)
    assert train(off).numerics() == train(off).numerics()
