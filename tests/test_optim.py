import dataclasses
import math

import numpy as np
import pytest

from dptrain.accountant import MechanismSpec, PrivacyLedger
from dptrain.mechanisms import ClipSpec, NoiseSpec, clip_rows
from dptrain.model import (
    Model,
    PerSampleBatch,
    batch_gradient,
    build_mlp,
    per_sample_gradient,
    per_sample_gradients,
)
from dptrain import mechanisms
from dptrain import model as model_module
from dptrain import optim
from dptrain.optim import DpAdamState, adam_step, dp_adam_step, poisson_subsample
from dptrain.tensor import ShapeMismatchError
from oracles import flat, mean_gradient_sets, per_slot_adam_step, tape_dp_adam_step
from test_model import batch_coupled_mlp


def toy_param_holder(values):
    return Model((), values)


class TestPoissonSubsample:
    def test_zero_probability_empty(self):
        assert poisson_subsample(100, 0.0, np.random.default_rng(0)).size == 0

    def test_full_probability_everything(self):
        idx = poisson_subsample(7, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.arange(7))

    def test_binomial_concentration(self):
        idx = poisson_subsample(10_000, 0.5, np.random.default_rng(42))
        assert 4850 <= idx.size <= 5150  # 3 sigma of Binomial(1e4, 0.5)

    def test_deterministic_per_seed(self):
        a = poisson_subsample(50, 0.3, np.random.default_rng(5))
        b = poisson_subsample(50, 0.3, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            poisson_subsample(10, 1.5, np.random.default_rng(0))


class TestReferenceAdam:
    def test_quadratic_bowl_converges(self):
        holder = toy_param_holder([np.array([1.0, -0.7])])
        state = DpAdamState.for_model(holder, lr=0.1)
        for _ in range(500):
            grad = flat((2.0 * holder.parameters[0],))
            adam_step(holder, grad, state)
        assert np.linalg.norm(holder.parameters[0]) < 1e-3

    def test_zero_gradient_no_change_without_bias_correction(self):
        holder = toy_param_holder([np.array([0.3])])
        state = DpAdamState.for_model(holder, lr=0.1, bias_correction=False)
        before = holder.parameters[0].copy()
        adam_step(holder, flat((np.zeros(1),)), state)
        np.testing.assert_array_equal(holder.parameters[0], before)

    def test_raw_moment_variant_direction(self):
        # One step from zero moments: m = (1-b1) g, u = (1-b2) g^2,
        # w = m / (u + stabilizer).
        holder = toy_param_holder([np.array([2.0])])
        g = 0.5
        state = DpAdamState.for_model(
            holder, lr=0.1, variant="raw-moment", adam_stabilizer=1e-8
        )
        adam_step(holder, flat((np.array([g]),)), state)
        m = 0.1 * g
        u = 0.001 * g * g
        expected = 2.0 - 0.1 * m / (u + 1e-8)
        assert holder.parameters[0][0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("update", ["adam_step", "dp_adam_step", "set_parameters"])
    def test_updates_write_the_trainable_tail_in_place(self, update):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(16, 5))
        ys = rng.integers(0, 2, size=16).astype(float)
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10)
        model.set_freeze_prefix(1)
        state = DpAdamState.for_model(model, lr=0.05)
        vector, views = model.parameter_vector, model.parameters
        lo = model.trainable_start
        head, tail = vector[:lo].copy(), vector[lo:].copy()
        if update == "adam_step":
            adam_step(model, batch_gradient(model, xs, ys)[1], state)
        elif update == "dp_adam_step":
            run_dp(model, xs, ys, 1, sigma=1.0, clip=1.0, p=1.0, seed=3, state=state)
        else:
            model.set_parameters(
                [p if not keep else p + 1.0 for p, keep in zip(model.parameters, model.trainable)]
            )
        assert model.parameter_vector is vector
        assert model.parameters is views
        assert all(np.shares_memory(p, vector) for p in views)
        assert_same_bits(vector[:lo], head)
        assert not np.array_equal(vector[lo:], tail)

    def test_shape_mismatch_rejected(self):
        holder = toy_param_holder([np.array([0.5, -0.25])])
        state = DpAdamState.for_model(holder, lr=0.1)
        adam_step(holder, np.array([1.0, -2.0]), state)  # non-zero moments to compare
        params, m, u = holder.parameter_vector, state.m.copy(), state.u.copy()
        kept = params.copy()
        for grad in (
            np.ones(3),
            np.ones((1, 2)),
            np.ones(2, dtype=np.float32),
            (np.ones(2),),
            [1.0, 1.0],
        ):
            with pytest.raises(ShapeMismatchError):
                adam_step(holder, grad, state)
            assert state.t == 1
            assert_same_bits(state.m, m)
            assert_same_bits(state.u, u)
            assert holder.parameter_vector is params
            assert_same_bits(params, kept)
        for name in ("m", "u"):
            moment = getattr(state, name)
            setattr(state, name, np.zeros(3))  # mis-sized after construction
            with pytest.raises(ShapeMismatchError):
                adam_step(holder, np.array([1.0, -2.0]), state)
            setattr(state, name, moment)
            assert state.t == 1
            assert_same_bits(state.m, m)
            assert_same_bits(state.u, u)
            assert holder.parameter_vector is params
            assert_same_bits(params, kept)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            DpAdamState(
                m=np.zeros(1),
                u=np.zeros(1),
                lr=0.1,
                variant="adamw",
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lr", "adam_stabilizer"])
    def test_rejects_non_finite_rate_and_stabilizer(self, name, value):
        kwargs = {"m": np.zeros(1), "u": np.zeros(1), "lr": 0.1, name: value}
        with pytest.raises(ValueError, match="positive and finite"):
            DpAdamState(**kwargs)


def run_dp(model, xs, ys, steps, *, sigma=0.0, clip=1e9, p=1.0, seed=0,
           placement="after-mean", lr=0.05, ledger=None, step=dp_adam_step,
           state=None, **state_kwargs):
    state = state or DpAdamState.for_model(model, lr=lr, **state_kwargs)
    ledger_q = p if 0 < p <= 1 else 1.0
    ledger = ledger or PrivacyLedger(MechanismSpec(max(sigma, 1e-9), ledger_q))
    poisson_rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(seed + 1)
    outcomes = []
    for _ in range(steps):
        outcomes.append(
            step(
                model, xs, ys, state, ClipSpec(clip), NoiseSpec(sigma), p,
                ledger, poisson_rng, noise_rng, noise_placement=placement,
            )
        )
    return outcomes, ledger


class TestDpAdamStep:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.xs = rng.normal(size=(16, 5))
        self.ys = rng.integers(0, 2, size=16).astype(float)

    def test_degenerate_settings_match_reference_adam(self):
        dp_model = build_mlp([5, 8, 8, 1], seed=3)
        ref_model = build_mlp([5, 8, 8, 1], seed=3)
        state = DpAdamState.for_model(ref_model, lr=0.05)
        run_dp(dp_model, self.xs, self.ys, 100, sigma=0.0, clip=1e9, p=1.0)
        for _ in range(100):
            per = [per_sample_gradient(ref_model, x, y)[1] for x, y in zip(self.xs, self.ys)]
            adam_step(ref_model, flat(mean_gradient_sets(per)), state)
        worst = max(
            np.max(np.abs(a - b))
            for a, b in zip(dp_model.parameters, ref_model.parameters)
        )
        assert worst < 1e-12

    def test_zero_gradients_are_fixed_point(self):
        model = build_mlp([5, 4, 1], seed=0)
        model.set_parameters([np.zeros_like(p) for p in model.parameters])
        # x = 0 makes every per-sample gradient zero except the output bias;
        # use all-zero inputs and balanced labels so the bias gradient cancels.
        xs = np.zeros((2, 5))
        ys = np.array([0.0, 1.0])
        outcomes, _ = run_dp(model, xs, ys, 5, sigma=0.0, clip=1e9, p=1.0)
        assert all(o.applied for o in outcomes)
        for p_arr in model.parameters:
            np.testing.assert_array_equal(p_arr, np.zeros_like(p_arr))

    def test_empty_batch_skips_but_charges(self):
        model = build_mlp([5, 4, 1], seed=1)
        before = [p.copy() for p in model.parameters]
        outcomes, ledger = run_dp(model, self.xs, self.ys, 3, sigma=1.0, clip=1.0, p=0.0)
        assert all(not o.applied for o in outcomes)
        assert all(o.batch_size == 0 for o in outcomes)
        assert ledger.step_count == 3
        for a, b in zip(model.parameters, before):
            np.testing.assert_array_equal(a, b)

    def test_noise_is_drawn_through_gaussian_noise(self, monkeypatch):
        # One [P] draw of scale sigma * R per applied step, looked up on the
        # mechanisms module at call time; an empty Poisson draw draws nothing.
        draw = mechanisms.gaussian_noise
        calls = []

        def record(size, scale, rng):
            calls.append((size, scale))
            return draw(size, scale, rng)

        monkeypatch.setattr(mechanisms, "gaussian_noise", record)
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10)
        model.set_freeze_prefix(1)
        outcomes, _ = run_dp(model, self.xs, self.ys, 12, sigma=1.3, clip=0.7, p=0.1, seed=4)
        applied = sum(o.applied for o in outcomes)
        assert 0 < applied < len(outcomes)
        assert calls == [(model.num_parameters(), 1.3 * 0.7)] * applied

    def test_ledger_counts_every_step(self):
        model = build_mlp([5, 4, 1], seed=2)
        _, ledger = run_dp(model, self.xs, self.ys, 17, sigma=1.0, clip=1.0, p=0.4, seed=5)
        assert ledger.step_count == 17

    def test_clip_bound_holds_inside_step(self):
        model = build_mlp([5, 6, 1], seed=4)
        bound = 0.05  # far below typical raw norms, so clipping binds
        outcomes, _ = run_dp(
            model, self.xs, self.ys, 1, sigma=0.0, clip=bound, p=1.0
        )
        # with sigma=0 the aggregate is the mean of clipped gradients
        assert outcomes[0].noisy_grad_norm <= bound * (1 + 1e-12)
        assert outcomes[0].preclip_norm_max > bound

    def test_refuses_batch_coupled_model(self):
        from dptrain.model import ModelValidationError

        model = batch_coupled_mlp()
        state = DpAdamState.for_model(model, lr=0.05)
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ModelValidationError):
            dp_adam_step(
                model, self.xs[:, :4], self.ys, state, ClipSpec(1.0), NoiseSpec(1.0),
                1.0, ledger, np.random.default_rng(0), np.random.default_rng(1),
            )
        assert ledger.step_count == 0

    def test_bitwise_deterministic_trajectories(self):
        results = []
        for _ in range(2):
            model = build_mlp([5, 6, 1], norm="group:2", seed=9)
            run_dp(model, self.xs, self.ys, 20, sigma=1.2, clip=0.8, p=0.5,
                   seed=11, placement="on-sum")
            results.append([p.copy() for p in model.parameters])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_frozen_prefix_parameters_never_move(self):
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10)
        model.set_freeze_prefix(1)
        frozen_before = [
            p.copy() for p, keep in zip(model.parameters, model.trainable) if not keep
        ]
        run_dp(model, self.xs, self.ys, 10, sigma=1.0, clip=1.0, p=0.8, seed=3)
        frozen_after = [
            p for p, keep in zip(model.parameters, model.trainable) if not keep
        ]
        assert frozen_before and all(
            np.array_equal(a, b) for a, b in zip(frozen_before, frozen_after)
        )
        trainable_pairs = [
            (p, keep) for p, keep in zip(model.parameters, model.trainable) if keep
        ]
        assert any(np.abs(p).sum() > 0 for p, _ in trainable_pairs)

    def test_outcome_statistics_are_coherent(self):
        model = build_mlp([5, 6, 1], seed=12)
        outcomes, _ = run_dp(model, self.xs, self.ys, 1, sigma=0.5, clip=1.0, p=1.0)
        o = outcomes[0]
        assert o.batch_size == 16
        assert o.preclip_norm_min <= o.preclip_norm_mean <= o.preclip_norm_max
        assert math.isfinite(o.mean_loss) and o.mean_loss > 0


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


UPDATE_RULES = [
    {},
    {"bias_correction": False},
    {"variant": "raw-moment", "lr": 0.01},
]
UPDATE_RULE_IDS = ["adam", "no-bias-correction", "raw-moment"]


class TestFlatAdamEqualsPerSlotOracle:
    """adam_step on flat vectors reproduces the per-slot update bit for bit."""

    @pytest.mark.parametrize("freeze", [0, 1, 2])
    @pytest.mark.parametrize("state_kwargs", UPDATE_RULES, ids=UPDATE_RULE_IDS)
    def test_adam_step(self, state_kwargs, freeze):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(40, 6))
        ys = rng.integers(0, 2, size=40).astype(float)
        kwargs = {"lr": 0.05, **state_kwargs}
        results = []
        for step in (adam_step, per_slot_adam_step):
            model = build_mlp([6, 8, 8, 8, 1], norm="group:4", seed=23)
            if freeze:
                model.set_freeze_prefix(freeze)
            state = DpAdamState.for_model(model, **kwargs)
            for lo in range(0, 40, 5):
                _, grad = batch_gradient(model, xs[lo:lo + 5], ys[lo:lo + 5])
                step(model, grad, state)
            results.append((model, state))
        (model, state), (ref_model, ref_state) = results
        assert_same_bits(model.parameter_vector, ref_model.parameter_vector)
        for a, b in zip(model.parameters, ref_model.parameters):
            assert_same_bits(a, b)
        assert_same_bits(state.m, ref_state.m)
        assert_same_bits(state.u, ref_state.u)
        assert state.t == ref_state.t == 8


class TestFreezeAfterSteps:
    """Freezing a model with non-zero moments stops its frozen slots dead."""

    @pytest.mark.parametrize("private", [False, True])
    def test_frozen_slots_are_untouched(self, private):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(16, 5))
        ys = rng.integers(0, 2, size=16).astype(float)
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10)
        state = DpAdamState.for_model(model, lr=0.05)

        def steps(count):
            if private:
                run_dp(model, xs, ys, count, sigma=1.0, clip=1.0, p=0.8, seed=3, state=state)
            else:
                for _ in range(count):
                    adam_step(model, batch_gradient(model, xs, ys)[1], state)

        steps(3)
        model.set_freeze_prefix(1)
        offsets = model.parameter_offsets()
        frozen = [
            (offsets[s], offsets[s + 1]) for s, keep in enumerate(model.trainable) if not keep
        ]
        before = [
            (model.parameter_vector[lo:hi].copy(), state.m[lo:hi].copy(), state.u[lo:hi].copy())
            for lo, hi in frozen
        ]
        assert frozen and all(np.any(m != 0.0) for _, m, _ in before)
        trainable_before = model.parameters[-1].copy()
        steps(3)
        for (lo, hi), (p, m, u) in zip(frozen, before):
            assert_same_bits(model.parameter_vector[lo:hi], p)
            assert_same_bits(state.m[lo:hi], m)
            assert_same_bits(state.u[lo:hi], u)
        assert not np.array_equal(model.parameters[-1], trainable_before)


class TestClippedSum:
    """The block reduction adds the clipped rows in sample order, like a row loop."""

    @staticmethod
    def record_backward(monkeypatch):
        """``(lo, hi, shape, nbytes)`` of every buffer ``PerSampleBatch.backward`` receives.

        ``nbytes`` is that of the whole allocation the buffer views.
        """
        received = []
        backward = PerSampleBatch.backward

        def recording(batch, lo, hi, out):
            received.append((lo, hi, out.shape, (out if out.base is None else out.base).nbytes))
            backward(batch, lo, hi, out)

        monkeypatch.setattr(PerSampleBatch, "backward", recording)
        return received

    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    @pytest.mark.parametrize("widths", [[6, 8, 8, 1], [1, 1]], ids=["mlp", "two-parameters"])
    def test_equals_row_loop(self, widths, rows_per_block, monkeypatch):
        model = build_mlp(widths, seed=4)
        size = model.num_parameters()
        if rows_per_block is not None:
            monkeypatch.setattr(optim, "ROW_BLOCK_BYTES", 8 * size * rows_per_block)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(37, widths[0]))
        ys = rng.integers(0, 2, size=37).astype(float)
        offsets = model.parameter_offsets()
        spans = list(zip(offsets[:-1], offsets[1:]))
        clip = ClipSpec(0.3)

        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows, spans, clip)
        ref = rows[0].copy()
        for row in rows[1:]:
            ref += row
        total, norms = optim._clipped_sum(PerSampleBatch(model, xs, ys), clip)
        assert_same_bits(total, ref)
        assert_same_bits(norms, ref_norms)
        assert np.count_nonzero(ref_norms > clip.max_norm) > 0

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, None], ids=["1", "2", "3", "batch"])
    @pytest.mark.parametrize("freeze", [0, 1, 2])
    def test_trainable_tail_equals_full_width_row_loop(self, freeze, rows_per_block, monkeypatch):
        # Blocks cover only the trainable columns; the full-width matrix
        # (frozen columns zero) is checked against the tape in test_model.
        model = build_mlp([6, 8, 8, 8, 1], norm="group:4", seed=4)
        model.set_freeze_prefix(freeze)
        start = model.trainable_start
        width = model.num_parameters() - start
        assert (start > 0) == (freeze > 0)
        if rows_per_block is not None:
            monkeypatch.setattr(optim, "ROW_BLOCK_BYTES", 8 * width * rows_per_block)
        rng = np.random.default_rng(10 + freeze)
        xs = rng.normal(size=(23, 6))
        ys = rng.integers(0, 2, size=23).astype(float)
        clip = ClipSpec(0.3)

        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows, model.trainable_spans(), clip)
        ref = rows[0].copy()
        for row in rows[1:]:
            ref += row
        received = self.record_backward(monkeypatch)
        total, norms = optim._clipped_sum(PerSampleBatch(model, xs, ys), clip)
        assert_same_bits(total, ref[start:])
        assert_same_bits(norms, ref_norms)
        assert not ref[:start].any()
        assert np.count_nonzero(ref_norms > clip.max_norm) > 0
        assert len(received) == -(-23 // (rows_per_block or 23))
        assert all(shape[1] == width and nbytes <= optim.ROW_BLOCK_BYTES
                   for _, _, shape, nbytes in received)

    @staticmethod
    def wide_batch():
        """dp-wide's model (freeze 1) and 10 samples."""
        model = build_mlp([20, 256, 256, 1], norm="group:8", seed=0)
        model.set_freeze_prefix(1)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(10, 20))
        ys = rng.integers(0, 2, size=10).astype(float)
        return model, xs, ys

    def test_wide_blocks_fit_the_block_bytes(self, monkeypatch):
        # dp-wide's model: every buffer the step hands to backward is a few
        # trainable-width rows within ROW_BLOCK_BYTES (3 rows by default),
        # and 1-, 2- and 3-row blocks give the full-width row loop's total
        # and norms bit for bit.
        model, xs, ys = self.wide_batch()
        start = model.trainable_start
        width = model.num_parameters() - start
        clip = ClipSpec(12.0)  # 5 of the 10 rows clip
        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows, model.trainable_spans(), clip)
        ref = rows[0].copy()
        for row in rows[1:]:
            ref += row
        assert np.count_nonzero(ref_norms > clip.max_norm) == 5
        received = self.record_backward(monkeypatch)
        for rows_per_block in (None, 1, 2, 3):
            if rows_per_block is not None:
                monkeypatch.setattr(optim, "ROW_BLOCK_BYTES", 8 * width * rows_per_block)
            received.clear()
            total, norms = optim._clipped_sum(PerSampleBatch(model, xs, ys), clip)
            assert_same_bits(total, ref[start:])
            assert_same_bits(norms, ref_norms)
            per_block = rows_per_block or 3
            assert [(lo, hi) for lo, hi, _, _ in received] == [
                (lo, min(lo + per_block, 10)) for lo in range(0, 10, per_block)
            ]
            assert all(shape[1] == width and nbytes <= optim.ROW_BLOCK_BYTES
                       for _, _, shape, nbytes in received)

    def test_backward_chain_runs_once_per_batch(self, monkeypatch):
        # Blocks only write rows: the loss and group-norm pullbacks run once
        # for the batch, not once per block (4 blocks of at most 3 rows here).
        model, xs, ys = self.wide_batch()
        calls = {"_bce_pullback": 0, "_group_norm_pullback": 0}
        for name in calls:
            pullback = getattr(model_module, name)

            def counting(*args, name=name, pullback=pullback):
                calls[name] += 1
                return pullback(*args)

            monkeypatch.setattr(model_module, name, counting)
        received = self.record_backward(monkeypatch)
        optim._clipped_sum(PerSampleBatch(model, xs, ys), ClipSpec(1.0))
        assert len(received) == 4
        assert calls == {"_bce_pullback": 1, "_group_norm_pullback": 1}


class TestBatchedStepEqualsTapeLoop:
    """dp_adam_step must reproduce the one-tape-per-sample step bit for bit."""

    @staticmethod
    def data(widths, n):
        rng = np.random.default_rng(len(widths) * 100 + n)
        return rng.normal(size=(n, widths[0])), rng.integers(0, 2, size=n).astype(float)

    def run_both(self, widths, norm="none", freeze=0, n=24, steps=6, state_kwargs=(), **kwargs):
        xs, ys = self.data(widths, n)
        results = []
        for step in (dp_adam_step, tape_dp_adam_step):
            model = build_mlp(widths, norm=norm, seed=21)
            if freeze:
                model.set_freeze_prefix(freeze)
            state = DpAdamState.for_model(model, **{"lr": 0.05, **dict(state_kwargs)})
            outcomes, ledger = run_dp(model, xs, ys, steps, step=step, state=state, **kwargs)
            results.append((model, state, outcomes, ledger))
        (model, state, outcomes, ledger), (ref_model, ref_state, ref_outcomes, ref_ledger) = results
        for a, b in zip(model.parameters, ref_model.parameters):
            assert_same_bits(a, b)
        assert_same_bits(state.m, ref_state.m)
        assert_same_bits(state.u, ref_state.u)
        assert state.t == ref_state.t
        assert ledger.step_count == ref_ledger.step_count == steps
        for o, r in zip(outcomes, ref_outcomes):
            np.testing.assert_equal(dataclasses.asdict(o), dataclasses.asdict(r))
        return outcomes

    @pytest.mark.parametrize("placement", ["after-mean", "on-sum"])
    @pytest.mark.parametrize("p", [1.0, 0.3])
    def test_plain_mlp(self, placement, p):
        self.run_both([6, 8, 8, 1], sigma=1.1, clip=0.5, p=p, placement=placement, seed=4)

    @pytest.mark.parametrize("placement", ["after-mean", "on-sum"])
    def test_group_norm_with_frozen_prefix(self, placement):
        self.run_both([6, 8, 8, 8, 1], norm="group:4", freeze=2, sigma=0.9, clip=1.0,
                      p=0.5, placement=placement, seed=5)

    def test_degenerate_settings(self):
        self.run_both([6, 8, 1], norm="group:2", sigma=0.0, clip=1e9, p=1.0)

    @pytest.mark.parametrize("freeze", [0, 1])
    @pytest.mark.parametrize("state_kwargs", UPDATE_RULES, ids=UPDATE_RULE_IDS)
    def test_update_rules(self, state_kwargs, freeze):
        self.run_both([6, 8, 8, 1], norm="group:2", freeze=freeze, steps=8,
                      state_kwargs=state_kwargs, sigma=0.8, clip=0.5, p=0.5, seed=6)

    @pytest.mark.parametrize("regime", ["below", "above", "median"])
    @pytest.mark.parametrize(
        "widths,norm,freeze",
        [([6, 8, 8, 1], "none", 0), ([6, 8, 8, 8, 1], "group:4", 1)],
        ids=["mlp", "group-norm-frozen"],
    )
    def test_clip_regimes(self, widths, norm, freeze, regime):
        # R below every pre-clip norm divides every row, R above every norm
        # divides none, and R at the first batch's median divides some.
        model = build_mlp(widths, norm=norm, seed=21)
        if freeze:
            model.set_freeze_prefix(freeze)
        _, rows = per_sample_gradients(model, *self.data(widths, 24))
        norms = np.linalg.norm(rows, axis=1)
        clip = {
            "below": 0.1 * norms.min(),
            "above": 10.0 * norms.max(),
            "median": float(np.median(norms)),
        }[regime]
        outcomes = self.run_both(widths, norm=norm, freeze=freeze, sigma=0.8, clip=clip,
                                 p=1.0, seed=9)
        if regime == "below":
            assert all(o.preclip_norm_min > clip for o in outcomes)
        elif regime == "above":
            assert all(o.preclip_norm_max < clip for o in outcomes)
        else:
            assert outcomes[0].preclip_norm_min < clip < outcomes[0].preclip_norm_max

    def test_empty_draws_and_single_member_batches(self):
        outcomes = self.run_both([4, 5, 1], n=6, steps=12, sigma=1.0, clip=1.0, p=0.15, seed=3)
        sizes = {o.batch_size for o in outcomes}
        assert 0 in sizes and 1 in sizes

    def test_wide_model_crosses_row_blocks(self):
        # ~72k parameters, ~67k trainable: the step builds 3 gradient rows at a time.
        model = build_mlp([20, 256, 256, 1], norm="group:8", seed=0)
        model.set_freeze_prefix(1)
        per_block = optim.ROW_BLOCK_BYTES // (8 * (model.num_parameters() - model.trainable_start))
        outcomes = self.run_both([20, 256, 256, 1], norm="group:8", freeze=1, n=40, steps=3,
                                 sigma=1.0, clip=1.0, p=0.5, seed=2)
        assert 1 < per_block < max(o.batch_size for o in outcomes)

    def test_small_row_blocks(self, monkeypatch):
        monkeypatch.setattr(optim, "ROW_BLOCK_BYTES", 1)
        self.run_both([6, 8, 8, 1], norm="group:2", sigma=0.7, clip=0.3, p=0.6,
                      placement="on-sum", seed=8)


class TestPrivateStepFailures:
    """Errors keep their type and charge the ledger exactly as the tape loop did."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.xs = rng.normal(size=(12, 3))
        self.ys = rng.integers(0, 2, size=12).astype(float)

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_non_finite_input_raises_after_one_charge(self, step):
        xs = self.xs.copy()
        xs[5, 1] = np.nan
        model = build_mlp([3, 4, 1], seed=1)
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(FloatingPointError):
            step(model, xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 NoiseSpec(1.0), 1.0, ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 1

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_non_finite_gradient_raises_after_one_charge(self, step):
        # Tiny first-layer weights keep the forward pass finite on huge
        # inputs, but the first layer's gradient norm overflows.
        model = build_mlp([3, 4, 1], seed=1)
        params = list(model.parameters)
        params[0] = params[0] * 1e-200
        model.set_parameters(params)
        xs = np.sign(self.xs) * 1e200
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="cannot clip a non-finite gradient"
        ):
            step(model, xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 NoiseSpec(1.0), 1.0, ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 1

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_empty_draw_skips_update_but_charges(self, step):
        model = build_mlp([3, 4, 1], seed=1)
        before = [a.copy() for a in model.parameters]
        state = DpAdamState.for_model(model, lr=0.05)
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.5))
        outcome = step(model, self.xs, self.ys, state, ClipSpec(1.0), NoiseSpec(1.0), 0.0,
                       ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert not outcome.applied and outcome.batch_size == 0
        assert math.isnan(outcome.mean_loss) and math.isnan(outcome.noisy_grad_norm)
        assert ledger.step_count == 1 and state.t == 0
        for a, b in zip(model.parameters, before):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_batch_coupled_model_refused_before_charge(self, step):
        from dptrain.model import ModelValidationError

        model = batch_coupled_mlp()
        xs = np.random.default_rng(0).normal(size=(12, 4))
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ModelValidationError):
            step(model, xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 NoiseSpec(1.0), 1.0, ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 0

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_unknown_placement_raises_after_one_charge(self, step):
        model = build_mlp([3, 4, 1], seed=1)
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ValueError, match="placement"):
            step(model, self.xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 NoiseSpec(1.0), 1.0, ledger, np.random.default_rng(0), np.random.default_rng(1),
                 noise_placement="on-mean")
        assert ledger.step_count == 1

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_unknown_placement_raises_on_empty_draw(self, step):
        model = build_mlp([3, 4, 1], seed=1)
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ValueError, match="placement"):
            step(model, self.xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 NoiseSpec(1.0), 0.0, ledger, np.random.default_rng(0), np.random.default_rng(1),
                 noise_placement="on-mean")
        assert ledger.step_count == 1
