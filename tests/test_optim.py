import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from dptrain.accountant import MechanismSpec, PrivacyLedger
from dptrain.mechanisms import ClipSpec, clip_rows
from dptrain.model import (
    DenseLayer,
    PerSampleBatch,
    ShapeMismatchError,
    accuracy,
    batch_gradient,
    build_mlp,
)
from dptrain import mechanisms
from dptrain import model as model_module
from dptrain import optim
from dptrain.optim import DpAdamState, adam_step, dp_adam_step, poisson_subsample
from oracles import (
    TapeStepOutcome,
    flat,
    mean_gradient_sets,
    per_sample_gradient,
    per_sample_gradients,
    per_slot_adam_step,
    slot_offsets,
    tape_dp_adam_step,
    trainable_mask,
)


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

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="population size must be >= 0, got -1"):
            poisson_subsample(-1, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_empty_population_draws_nothing(self, p):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        idx = poisson_subsample(0, p, rng)
        assert idx.dtype == np.int64 and idx.shape == (0,)
        assert rng.bit_generator.state == before


class TestReferenceAdam:
    def test_quadratic_bowl_converges(self):
        # Loss ||theta||^2 over the whole parameter vector: the gradient is 2 theta.
        model = build_mlp([2, 2, 1], seed=0)
        state = DpAdamState.for_model(model, lr=0.1)
        for _ in range(500):
            adam_step(model, 2.0 * model.parameter_vector, state)
        assert np.linalg.norm(model.parameter_vector) < 1e-3

    def test_zero_gradient_from_zero_moments_no_change(self):
        model = build_mlp([3, 4, 1], seed=1)
        state = DpAdamState.for_model(model, lr=0.1)
        before = model.parameter_vector.copy()
        adam_step(model, np.zeros(model.num_parameters()), state)
        assert_same_bits(model.parameter_vector, before)

    def test_first_step_closed_form(self):
        # From zero moments m = 0.1 g and u = 0.001 g^2, so the bias-corrected
        # m_hat = g and sqrt(u_hat) = |g|: each trainable parameter moves by
        # -lr * g / (|g| + 1e-8), and frozen ones stay.
        model = build_mlp([3, 4, 4, 1], seed=2, freeze_prefix=1)
        state = DpAdamState.for_model(model, lr=0.1)
        g = np.random.default_rng(3).normal(size=model.num_parameters())
        before = model.parameter_vector.copy()
        lo = model.trainable_start
        adam_step(model, g[lo:], state)
        expected = before[lo:] - 0.1 * g[lo:] / (np.abs(g[lo:]) + 1e-8)
        np.testing.assert_allclose(model.parameter_vector[lo:], expected, rtol=1e-12, atol=0)
        assert_same_bits(model.parameter_vector[:lo], before[:lo])

    @pytest.mark.parametrize("update", ["adam_step", "dp_adam_step", "parameter_vector"])
    def test_updates_write_the_trainable_tail_in_place(self, update):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(16, 5))
        ys = rng.integers(0, 2, size=16).astype(float)
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10, freeze_prefix=1)
        state = DpAdamState.for_model(model, lr=0.05)
        vector, views = model.parameter_vector, model.parameters
        lo = model.trainable_start
        head, tail = vector[:lo].copy(), vector[lo:].copy()
        if update == "adam_step":
            adam_step(model, batch_gradient(model, xs, ys)[1], state)
        elif update == "dp_adam_step":
            run_dp(model, xs, ys, 1, sigma=1.0, clip=1.0, p=1.0, seed=3, state=state)
        else:
            model.parameter_vector[model.trainable_start:] += 1.0
        assert model.parameter_vector is vector
        assert model.parameters is views
        assert all(np.shares_memory(p, vector) for p in views)
        assert_same_bits(vector[:lo], head)
        assert not np.array_equal(vector[lo:], tail)

    def test_shape_mismatch_rejected(self):
        model = build_mlp([2, 2, 1], seed=4)
        size = model.num_parameters()
        state = DpAdamState.for_model(model, lr=0.1)
        grad = np.linspace(-1.0, 1.0, size)
        adam_step(model, grad, state)  # non-zero moments to compare
        params, m, u = model.parameter_vector, state.m.copy(), state.u.copy()
        kept = params.copy()
        for bad in (
            np.ones(size + 1),
            np.ones((1, size)),
            np.ones(size, dtype=np.float32),
            (np.ones(size),),
            [1.0] * size,
        ):
            with pytest.raises(ShapeMismatchError):
                adam_step(model, bad, state)
            assert state.t == 1
            assert_same_bits(state.m, m)
            assert_same_bits(state.u, u)
            assert model.parameter_vector is params
            assert_same_bits(params, kept)
        for name in ("m", "u"):
            moment = getattr(state, name)
            setattr(state, name, np.zeros(size + 1))  # mis-sized after construction
            with pytest.raises(ShapeMismatchError):
                adam_step(model, grad, state)
            setattr(state, name, moment)
            assert state.t == 1
            assert_same_bits(state.m, m)
            assert_same_bits(state.u, u)
            assert model.parameter_vector is params
            assert_same_bits(params, kept)

    def test_frozen_model_refuses_a_full_width_gradient(self):
        model = build_mlp([3, 4, 4, 1], seed=2, freeze_prefix=1)
        state = DpAdamState.for_model(model, lr=0.1)
        lo = model.trainable_start
        g = np.random.default_rng(3).normal(size=model.num_parameters())
        adam_step(model, g[lo:], state)  # non-zero moments to compare
        params, m, u = model.parameter_vector, state.m.copy(), state.u.copy()
        kept = params.copy()
        with pytest.raises(ShapeMismatchError, match="trainable tail"):
            adam_step(model, g, state)
        assert state.t == 1
        assert_same_bits(state.m, m)
        assert_same_bits(state.u, u)
        assert model.parameter_vector is params
        assert_same_bits(params, kept)

    def test_refuses_a_state_made_for_another_layout(self):
        # The same widths unfrozen and frozen: [P] moments on the frozen
        # model and [T] moments on the unfrozen one are both refused.
        unfrozen = build_mlp([3, 4, 4, 1], seed=2)
        frozen = build_mlp([3, 4, 4, 1], seed=2, freeze_prefix=1)
        for made_for, model in ((unfrozen, frozen), (frozen, unfrozen)):
            state = DpAdamState.for_model(made_for, lr=0.1)
            size = made_for.num_parameters() - made_for.trainable_start
            adam_step(made_for, np.linspace(-1.0, 1.0, size), state)  # non-zero moments
            params, m, u = model.parameter_vector, state.m.copy(), state.u.copy()
            kept = params.copy()
            grad = np.ones(model.num_parameters() - model.trainable_start)
            with pytest.raises(ShapeMismatchError, match="moments"):
                adam_step(model, grad, state)
            assert state.t == 1
            assert_same_bits(state.m, m)
            assert_same_bits(state.u, u)
            assert model.parameter_vector is params
            assert_same_bits(params, kept)

    def test_moments_replaced_by_another_length_still_update(self):
        # The scratch buffer follows the moments: a state whose moments were
        # swapped for another model's updates that model as a fresh state does.
        unfrozen = build_mlp([3, 4, 4, 1], seed=2)
        frozen = build_mlp([3, 4, 4, 1], seed=2, freeze_prefix=1)
        size = frozen.num_parameters() - frozen.trainable_start
        grad = np.linspace(-1.0, 1.0, size)
        fresh = DpAdamState.for_model(frozen, lr=0.1)
        adam_step(frozen, grad, fresh)
        expected = frozen.parameter_vector.copy()
        frozen.parameter_vector[:] = flat(build_mlp([3, 4, 4, 1], seed=2).parameters)
        swapped = DpAdamState.for_model(unfrozen, lr=0.1)
        swapped.m, swapped.u = np.zeros(size), np.zeros(size)
        adam_step(frozen, grad, swapped)
        assert_same_bits(frozen.parameter_vector, expected)
        assert_same_bits(swapped.m, fresh.m)
        assert_same_bits(swapped.u, fresh.u)

    def test_state_holds_moments_for_the_trainable_tail_alone(self):
        # dp-wide's model: 72,449 parameters, of which the 66,561 past the first block train.
        model = build_mlp([20, 256, 256, 1], norm="group:8", seed=0, freeze_prefix=1)
        state = DpAdamState.for_model(model, lr=0.01)
        assert model.num_parameters() == 72_449
        assert state.m.shape == state.u.shape == (66_561,)
        assert not state.m.any() and not state.u.any()

    def test_state_fields_are_the_moments_rate_and_step(self):
        assert [f.name for f in dataclasses.fields(DpAdamState)] == ["m", "u", "lr", "t"]
        with pytest.raises(ShapeMismatchError):
            DpAdamState(m=np.zeros(2), u=np.zeros(3), lr=0.1)

    @pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_learning_rate(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            DpAdamState(m=np.zeros(1), u=np.zeros(1), lr=value)


# A sampling rate at which every Poisson draw in these tests comes up empty
# (the empty-draw tests assert it).
EMPTY_DRAW_Q = 1e-12


def run_dp(model, xs, ys, steps, *, sigma=0.0, clip=1e9, p=1.0, seed=0,
           placement="after-mean", lr=0.05, ledger=None, step=dp_adam_step,
           state=None):
    state = state or DpAdamState.for_model(model, lr=lr)
    ledger = ledger or PrivacyLedger(MechanismSpec(sigma, p))
    poisson_rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(seed + 1)
    outcomes = []
    for _ in range(steps):
        outcomes.append(
            step(
                model, xs, ys, state, ClipSpec(clip), ledger, poisson_rng, noise_rng,
                noise_placement=placement,
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
        model.parameter_vector[:] = flat([np.zeros_like(p) for p in model.parameters])
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
        outcomes, ledger = run_dp(model, self.xs, self.ys, 3, sigma=1.0, clip=1.0, p=EMPTY_DRAW_Q)
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
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10, freeze_prefix=1)
        outcomes, _ = run_dp(model, self.xs, self.ys, 12, sigma=1.3, clip=0.7, p=0.1, seed=4)
        applied = sum(o.applied for o in outcomes)
        assert 0 < applied < len(outcomes)
        assert calls == [(model.num_parameters(), 1.3 * 0.7)] * applied

    @pytest.mark.parametrize("placement", ["after-mean", "on-sum"])
    def test_adam_step_receives_exactly_the_release(self, placement, monkeypatch):
        # On a frozen model the update reads the [T] release and nothing of
        # the frozen columns' unreleased noise. The release is rebuilt from
        # the same generator states: the full-width clipped row loop and the
        # tail of the [P] draw.
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10, freeze_prefix=1)
        start = model.trainable_start
        sigma, clip, q = 1.3, 0.7, 0.5
        indices = poisson_subsample(16, q, np.random.default_rng(4))
        assert indices.size > 1
        _, rows = per_sample_gradients(model, self.xs[indices], self.ys[indices])
        clip_rows(rows[:, start:], model.trainable_spans(), ClipSpec(clip))
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        noise = mechanisms.gaussian_noise(
            model.num_parameters(), sigma * clip, np.random.default_rng(5)
        )
        if placement == "after-mean":
            expected = noise[start:] + total[start:] / indices.size
        else:
            expected = (noise[start:] + total[start:]) / indices.size

        recorded = []
        update = optim.adam_step

        def record(model, grad, state):
            recorded.append(grad.copy())
            update(model, grad, state)

        monkeypatch.setattr(optim, "adam_step", record)
        outcomes, _ = run_dp(model, self.xs, self.ys, 1, sigma=sigma, clip=clip, p=q, seed=4,
                             placement=placement)
        assert outcomes[0].batch_size == indices.size
        assert len(recorded) == 1
        assert recorded[0].shape == (model.num_parameters() - start,)
        assert_same_bits(recorded[0], expected)

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
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10, freeze_prefix=1)
        frozen_before = [
            p.copy() for p, keep in zip(model.parameters, trainable_mask(model)) if not keep
        ]
        run_dp(model, self.xs, self.ys, 10, sigma=1.0, clip=1.0, p=0.8, seed=3)
        frozen_after = [
            p for p, keep in zip(model.parameters, trainable_mask(model)) if not keep
        ]
        assert frozen_before and all(
            np.array_equal(a, b) for a, b in zip(frozen_before, frozen_after)
        )
        trainable_pairs = [
            (p, keep) for p, keep in zip(model.parameters, trainable_mask(model)) if keep
        ]
        assert any(np.abs(p).sum() > 0 for p, _ in trainable_pairs)

    def test_outcome_statistics_are_coherent(self):
        model = build_mlp([5, 6, 1], seed=12)
        outcomes, _ = run_dp(model, self.xs, self.ys, 1, sigma=0.5, clip=1.0, p=1.0)
        o = outcomes[0]
        assert o.batch_size == 16
        assert o.preclip_norm_min <= o.preclip_norm_mean <= o.preclip_norm_max
        assert math.isfinite(o.mean_loss) and o.mean_loss > 0

    def test_outcome_reads_the_same_after_the_next_step(self):
        # The statistics are computed when read, from arrays the outcome
        # keeps; no later step writes them or the memory under them.
        model = build_mlp([5, 6, 6, 1], norm="group:2", seed=10, freeze_prefix=1)
        state = DpAdamState.for_model(model, lr=0.05)
        ledger = PrivacyLedger(MechanismSpec(0.8, 0.5))
        rngs = np.random.default_rng(4), np.random.default_rng(5)

        def step():
            return dp_adam_step(model, self.xs, self.ys, state, ClipSpec(0.7), ledger, *rngs)

        first = step()
        kept = (first.norms, first.losses, first.released)
        copies = [a.copy() for a in kept]
        read = outcome_statistics(first)
        second = step()
        assert first.applied and second.applied
        np.testing.assert_equal(outcome_statistics(first), read)
        for a, b in zip(kept, copies):
            assert_same_bits(a, b)
        buffers = (second.norms, second.losses, second.released,
                   model.parameter_vector, state.m, state.u)
        assert not any(np.shares_memory(a, b) for a in kept for b in buffers)

    def test_step_checks_its_inputs_once(self, monkeypatch):
        # The step checks the full data before the draw; the batch it builds
        # from those rows is not checked again.
        calls = []
        for name in ("_input_rows", "_binary_labels"):
            check = getattr(model_module, name)

            def counting(*args, _check=check, _name=name):
                calls.append(_name)
                return _check(*args)

            monkeypatch.setattr(model_module, name, counting)
        model = build_mlp([5, 6, 1], seed=12)
        outcomes, _ = run_dp(model, self.xs, self.ys, 3, sigma=0.5, clip=1.0, p=1.0)
        assert [o.batch_size for o in outcomes] == [16] * 3
        assert calls == []
        PerSampleBatch(model, self.xs, self.ys)
        assert sorted(calls) == ["_binary_labels", "_input_rows"]


def outcome_statistics(outcome):
    """The seven statistics a step outcome reads, by name, as ``TapeStepOutcome`` holds them."""
    return {name: getattr(outcome, name) for name in TapeStepOutcome._fields}


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def oracle_state(model, lr):
    """Zero ``[P]`` moments for the per-slot oracles, which update every slot."""
    size = model.num_parameters()
    return DpAdamState(m=np.zeros(size), u=np.zeros(size), lr=lr)


def assert_same_moments(model, state, ref_state):
    """The optimizer's ``[T]`` moments are the oracle's tail; its frozen moments stay 0.0."""
    start = model.trainable_start
    assert state.m.shape == (model.num_parameters() - start,)
    for moment, ref in ((state.m, ref_state.m), (state.u, ref_state.u)):
        assert_same_bits(moment, ref[start:])
        assert_same_bits(ref[:start], np.zeros(start))


class TestFlatAdamEqualsPerSlotOracle:
    """adam_step on flat vectors reproduces the per-slot update bit for bit."""

    @pytest.mark.parametrize("freeze", [0, 1, 2])
    def test_adam_step(self, freeze):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(40, 6))
        ys = rng.integers(0, 2, size=40).astype(float)
        results = []
        for step in (adam_step, per_slot_adam_step):
            model = build_mlp([6, 8, 8, 8, 1], norm="group:4", seed=23, freeze_prefix=freeze)
            make_state = oracle_state if step is per_slot_adam_step else DpAdamState.for_model
            state = make_state(model, lr=0.05)
            for lo in range(0, 40, 5):
                _, grad = batch_gradient(model, xs[lo:lo + 5], ys[lo:lo + 5])
                step(model, grad, state)
            results.append((model, state))
        (model, state), (ref_model, ref_state) = results
        assert_same_bits(model.parameter_vector, ref_model.parameter_vector)
        for a, b in zip(model.parameters, ref_model.parameters):
            assert_same_bits(a, b)
        assert_same_moments(model, state, ref_state)
        assert state.t == ref_state.t == 8


class TestClippedSum:
    """The clipped sum adds the clipped rows in sample order from +0.0, like a row loop."""

    @staticmethod
    def record_row_writes(monkeypatch):
        """``(lo, hi, shape, nbytes)`` of every buffer ``PerSampleBatch._write_rows`` receives.

        ``nbytes`` is that of the whole allocation the buffer views.
        """
        received = []
        write_rows = PerSampleBatch._write_rows

        def recording(batch, lo, hi, rows, *chain):
            received.append((lo, hi, rows.shape, (rows if rows.base is None else rows.base).nbytes))
            write_rows(batch, lo, hi, rows, *chain)

        monkeypatch.setattr(PerSampleBatch, "_write_rows", recording)
        return received

    @staticmethod
    def row_loop_sum(rows):
        """+0.0 plus each row in sample order, column by column, as ``np.add.reduce`` adds."""
        total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
        return total

    @staticmethod
    def narrow_width(model):
        """Trainable columns outside the wide weights, those whose one-sample block is larger
        than ``ROW_BLOCK_BYTES // 8`` bytes: the width of every block the row writer receives."""
        limit = model_module.ROW_BLOCK_BYTES // 8
        offsets, start = slot_offsets(model), model.trainable_start
        wide = [layer.in_dim * layer.out_dim for layer in model.layers
                if isinstance(layer, DenseLayer) and offsets[layer.weight_slot] >= start
                and 8 * layer.in_dim * layer.out_dim > limit]
        return model.num_parameters() - start - sum(wide)

    @staticmethod
    def row_blocks(size, width):
        """The ``(lo, hi)`` blocks of ``width``-column rows that fit ``ROW_BLOCK_BYTES``."""
        per_block = max(1, min(size, model_module.ROW_BLOCK_BYTES // (8 * width)))
        return [(lo, min(lo + per_block, size)) for lo in range(0, size, per_block)]

    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    @pytest.mark.parametrize("widths", [[6, 8, 8, 1], [1, 1]], ids=["mlp", "two-parameters"])
    def test_equals_row_loop(self, widths, rows_per_block, monkeypatch):
        size = build_mlp(widths, seed=4).num_parameters()
        if rows_per_block is not None:
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * size * rows_per_block)
        model = build_mlp(widths, seed=4)  # built under the patched block size
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(37, widths[0]))
        ys = rng.integers(0, 2, size=37).astype(float)
        offsets = slot_offsets(model)
        spans = list(zip(offsets[:-1], offsets[1:]))
        clip = ClipSpec(0.3)

        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows, spans, clip)
        ref = self.row_loop_sum(rows)
        total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
        assert_same_bits(total, ref)
        assert_same_bits(norms, ref_norms)
        assert np.count_nonzero(ref_norms > clip.max_norm) > 0

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, None], ids=["1", "2", "3", "batch"])
    @pytest.mark.parametrize("freeze", [0, 1, 2])
    def test_trainable_tail_equals_full_width_row_loop(self, freeze, rows_per_block, monkeypatch):
        # Blocks cover only the trainable columns; the full-width matrix
        # (frozen columns zero) is checked against the tape in test_model.
        # The smaller block sizes make some weights wide.
        model = build_mlp([6, 8, 8, 8, 1], norm="group:4", seed=4, freeze_prefix=freeze)
        start = model.trainable_start
        width = model.num_parameters() - start
        assert (start > 0) == (freeze > 0)
        if rows_per_block is not None:
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * width * rows_per_block)
            model = build_mlp([6, 8, 8, 8, 1], norm="group:4", seed=4, freeze_prefix=freeze)
        rng = np.random.default_rng(10 + freeze)
        xs = rng.normal(size=(23, 6))
        ys = rng.integers(0, 2, size=23).astype(float)
        clip = ClipSpec(0.3)

        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows[:, start:], model.trainable_spans(), clip)
        ref = self.row_loop_sum(rows)
        received = self.record_row_writes(monkeypatch)
        total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
        assert_same_bits(total, ref[start:])
        assert_same_bits(norms, ref_norms)
        assert not ref[:start].any()
        assert np.count_nonzero(ref_norms > clip.max_norm) > 0
        narrow = self.narrow_width(model)
        assert [(lo, hi) for lo, hi, _, _ in received] == self.row_blocks(23, narrow)
        assert all(shape[1] == narrow and nbytes <= model_module.ROW_BLOCK_BYTES
                   for _, _, shape, nbytes in received)

    @staticmethod
    def wide_batch(size=10):
        """dp-wide's model (freeze 1) and ``size`` samples."""
        model = build_mlp([20, 256, 256, 1], norm="group:8", seed=0, freeze_prefix=1)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(size, 20))
        ys = rng.integers(0, 2, size=size).astype(float)
        return model, xs, ys

    def test_wide_blocks_fit_the_block_bytes(self, monkeypatch):
        # dp-wide's model: the row writer receives only blocks of the 1,025
        # narrow columns within ROW_BLOCK_BYTES, and the 256 x 256 weight
        # goes one sample at a time, unless the block size makes it narrow
        # (4 MB: its 512 KB are not above 4 MB // 8). Every layout gives the
        # full-width row loop's total and norms bit for bit.
        model, xs, ys = self.wide_batch()
        start = model.trainable_start
        width = model.num_parameters() - start
        clip = ClipSpec(12.0)  # 5 of the 10 rows clip
        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows[:, start:], model.trainable_spans(), clip)
        ref = self.row_loop_sum(rows)
        assert np.count_nonzero(ref_norms > clip.max_norm) == 5
        received = self.record_row_writes(monkeypatch)
        for block_bytes, narrow, blocks in [
            (None, 1025, [(0, 10)]),
            (8 * 1025 * 3, 1025, [(0, 3), (3, 6), (6, 9), (9, 10)]),
            (4 << 20, width, [(0, 7), (7, 10)]),
        ]:
            if block_bytes is not None:
                monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", block_bytes)
                model = self.wide_batch()[0]  # the split is fixed when the model is built
            received.clear()
            total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
            assert_same_bits(total, ref[start:])
            assert_same_bits(norms, ref_norms)
            assert self.narrow_width(model) == narrow
            assert [(lo, hi) for lo, hi, _, _ in received] == blocks
            assert all(shape[1] == narrow and nbytes <= model_module.ROW_BLOCK_BYTES
                       for _, _, shape, nbytes in received)

    def test_backward_chain_runs_once_per_batch(self, monkeypatch):
        # Blocks only write rows: the loss and group-norm pullbacks run once
        # for the batch, not once per block (4 narrow blocks of at most 3
        # rows here, and 10 one-sample blocks of the wide weight).
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * 1025 * 3)
        model, xs, ys = self.wide_batch()
        calls = {"_bce_pullback": 0, "_group_norm_pullback": 0}
        for name in calls:
            pullback = getattr(model_module, name)

            def counting(*args, name=name, pullback=pullback):
                calls[name] += 1
                return pullback(*args)

            monkeypatch.setattr(model_module, name, counting)
        received = self.record_row_writes(monkeypatch)
        PerSampleBatch(model, xs, ys).clipped_sum(ClipSpec(1.0))
        assert len(received) == 4
        assert calls == {"_bce_pullback": 1, "_group_norm_pullback": 1}

    def test_a_built_model_keeps_its_split(self, monkeypatch):
        # The split and the row blocks are fixed when the model is built:
        # patching ROW_BLOCK_BYTES afterwards changes neither, nor any bit.
        model, xs, ys = self.wide_batch(size=300)
        plan = model._plan
        split = (plan.wide, plan.narrow, plan.writes, plan.slots, plan.moves, plan.rows_cap)
        assert (len(plan.wide), plan.narrow, plan.rows_cap) == (1, 1025, 255)
        clip = ClipSpec(12.0)
        received = self.record_row_writes(monkeypatch)
        total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
        blocks = [(lo, hi, shape) for lo, hi, shape, _ in received]
        assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 255), (255, 300)]
        for block_bytes in (1, 8 * 1025 * 3, 8 << 20):
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", block_bytes)
            received.clear()
            again, again_norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
            assert (plan.wide, plan.narrow, plan.writes, plan.slots, plan.moves,
                    plan.rows_cap) == split
            assert [(lo, hi, shape) for lo, hi, shape, _ in received] == blocks
            assert_same_bits(again, total)
            assert_same_bits(again_norms, norms)

    @pytest.mark.parametrize("freeze", [0, 1])
    def test_a_narrow_only_model_writes_its_chain_columns(self, freeze):
        # Packing with nothing wide is the identity: the block covers all T
        # columns as the chain lays them out, and nothing moves.
        model = build_mlp([20, 16, 16, 1], norm="group:4", seed=1, freeze_prefix=freeze)
        plan = model._plan
        rng = np.random.default_rng(5)
        batch = PerSampleBatch(model, rng.normal(size=(4, 20)), [0.0, 1.0, 1.0, 0.0])
        assert plan.wide == () and plan.moves == ()
        assert plan.narrow == plan.width == model.num_parameters() - model.trainable_start
        assert plan.writes == tuple((cols, bias_cols) for cols, bias_cols, *_ in batch._chain)
        assert plan.slots == tuple(model.trainable_spans())

    @pytest.mark.parametrize("freeze", [0, 1])
    def test_empty_batch_sums_to_zeros(self, freeze):
        # The sum of no rows: +0.0 in every trainable column, and no norms.
        model = build_mlp([4, 6, 6, 1], norm="group:2", seed=1, freeze_prefix=freeze)
        width = model.num_parameters() - model.trainable_start
        assert (width < model.num_parameters()) == (freeze > 0)
        batch = PerSampleBatch(model, np.empty((0, 4)), [])
        total, norms = batch.clipped_sum(ClipSpec(1.0))
        assert_same_bits(total, np.zeros(width))
        assert_same_bits(norms, np.empty(0))
        assert total.dtype == norms.dtype == np.float64

    # Block sizes that force each layout: the rule's (2 MB), none wide (8 MB),
    # and every weight above 8 KB wide with the narrow rows in several blocks.
    LAYOUTS = {"rule": None, "none-wide": 8 << 20, "narrow-blocks": 1 << 16}

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("size", [0, 1, 29])
    @pytest.mark.parametrize(
        "widths,norm,freeze",
        [
            ([20, 256, 256, 256, 1], "none", 0),
            ([20, 256, 256, 256, 1], "group:8", 0),
            ([20, 256, 256, 256, 1], "none", 1),
            ([20, 256, 256, 256, 1], "group:8", 1),
            ([20, 512, 128, 1], "none", 0),
        ],
        ids=["256x3", "256x3-gn", "256x3-frozen", "256x3-gn-frozen", "512-128"],
    )
    def test_each_layout_equals_full_width_row_loop(self, widths, norm, freeze, size, layout,
                                                    monkeypatch):
        # Two wide spans between narrow ones ([20, 256, 256, 256, 1]), one
        # ([20, 512, 128, 1]), or none; with no, some and every row clipped.
        if self.LAYOUTS[layout] is not None:
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", self.LAYOUTS[layout])
        model = build_mlp(widths, norm=norm, seed=7, freeze_prefix=freeze)
        start = model.trainable_start
        width = model.num_parameters() - start
        narrow = self.narrow_width(model)
        assert (narrow == width) == (layout == "none-wide")
        rng = np.random.default_rng(size)
        xs = rng.normal(size=(size, widths[0]))
        ys = rng.integers(0, 2, size=size).astype(float)
        _, rows = per_sample_gradients(model, xs, ys)
        row_norms = np.linalg.norm(rows, axis=1)
        bounds = [1.0] if size == 0 else [2.0 * row_norms.max(), float(np.median(row_norms)),
                                          0.5 * row_norms.min()]
        for bound in bounds:
            clip = ClipSpec(bound)
            clipped = rows.copy()
            ref_norms = clip_rows(clipped[:, start:], model.trainable_spans(), clip)
            ref = self.row_loop_sum(clipped)
            total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
            assert_same_bits(total, ref[start:])
            assert_same_bits(norms, ref_norms)
        if size == 29:
            assert [np.count_nonzero(row_norms > b) for b in bounds] == [0, 14, 29]

    @pytest.mark.parametrize("layout", ["rule", "none-wide"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_a_column_of_negative_zeros_sums_to_positive_zero(self, size, layout, monkeypatch):
        # dp-wide's model. One sample: where a dead ReLU input meets a
        # negative cotangent, its shift (and some scale) entries are -0.0.
        # Two samples: unit 1 of the last norm layer is dead for both (its
        # shift is -1000) and both are labelled 1, so its shift column holds
        # -0.0 twice. The sum starts at +0.0, as np.add.reduce does.
        if self.LAYOUTS[layout] is not None:
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", self.LAYOUTS[layout])
        model, xs, ys = self.wide_batch(size)
        if size == 2:
            beta, w_out = model.parameters[7], model.parameters[8]
            assert w_out[1, 0] > 0.0  # the dead unit passes back a negative cotangent
            beta[1] = -1000.0
            ys[:] = 1.0
        start = model.trainable_start
        clip = ClipSpec(1.0)
        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows[:, start:], model.trainable_spans(), clip)
        ref = self.row_loop_sum(rows)
        total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
        assert_same_bits(total, ref[start:])
        assert_same_bits(norms, ref_norms)
        negative_zeros = ((rows == 0.0) & np.signbit(rows)).all(axis=0)[start:]
        assert np.count_nonzero(negative_zeros) > 0
        assert not np.signbit(total[negative_zeros]).any()
        if size == 2:
            shift_column = slot_offsets(model)[7] + 1 - start
            assert negative_zeros[shift_column]

    def test_one_narrow_column_is_added_row_by_row(self, monkeypatch):
        # The output weight made wide leaves only the output bias narrow: a
        # one-column reduce would sum it pairwise, not in sample order.
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * 63)
        model = build_mlp([6, 8, 1], seed=2, freeze_prefix=1)
        assert self.narrow_width(model) == 1
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(37, 6)) * 10.0 ** rng.integers(-3, 4, size=(37, 1))
        ys = rng.integers(0, 2, size=37).astype(float)
        clip = ClipSpec(0.5)
        start = model.trainable_start
        _, rows = per_sample_gradients(model, xs, ys)
        ref_norms = clip_rows(rows[:, start:], model.trainable_spans(), clip)
        ref = self.row_loop_sum(rows)
        total, norms = PerSampleBatch(model, xs, ys).clipped_sum(clip)
        assert_same_bits(total, ref[start:])
        assert_same_bits(norms, ref_norms)

    def test_memory_does_not_grow_with_the_wide_weight(self):
        # dp-wide's model at 116 samples needs no more memory inside
        # clipped_sum than at 29, beyond 87 more rows of the 1,025 narrow
        # columns (and a few small per-sample lists): no [B, 65536] block.
        peaks = []
        for size in (29, 116):
            model, xs, ys = self.wide_batch(size)
            batch = PerSampleBatch(model, xs, ys)
            tracemalloc.start()
            try:
                batch.clipped_sum(ClipSpec(1.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 87 * 1025 * 8 + (64 << 10)


class TestBatchedStepEqualsTapeLoop:
    """dp_adam_step must reproduce the one-tape-per-sample step bit for bit."""

    @staticmethod
    def data(widths, n):
        rng = np.random.default_rng(len(widths) * 100 + n)
        return rng.normal(size=(n, widths[0])), rng.integers(0, 2, size=n).astype(float)

    def run_both(self, widths, norm="none", freeze=0, n=24, steps=6, **kwargs):
        xs, ys = self.data(widths, n)
        results = []
        for step in (dp_adam_step, tape_dp_adam_step):
            model = build_mlp(widths, norm=norm, seed=21, freeze_prefix=freeze)
            make_state = oracle_state if step is tape_dp_adam_step else DpAdamState.for_model
            state = make_state(model, lr=0.05)
            outcomes, ledger = run_dp(model, xs, ys, steps, step=step, state=state, **kwargs)
            results.append((model, state, outcomes, ledger))
        (model, state, outcomes, ledger), (ref_model, ref_state, ref_outcomes, ref_ledger) = results
        for a, b in zip(model.parameters, ref_model.parameters):
            assert_same_bits(a, b)
        assert_same_moments(model, state, ref_state)
        assert state.t == ref_state.t
        assert ledger.step_count == ref_ledger.step_count == steps
        for o, r in zip(outcomes, ref_outcomes):
            np.testing.assert_equal(outcome_statistics(o), r._asdict())
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
    def test_adam_update(self, freeze):
        self.run_both([6, 8, 8, 1], norm="group:2", freeze=freeze, steps=8,
                      sigma=0.8, clip=0.5, p=0.5, seed=6)

    @pytest.mark.parametrize("regime", ["below", "above", "median"])
    @pytest.mark.parametrize(
        "widths,norm,freeze",
        [([6, 8, 8, 1], "none", 0), ([6, 8, 8, 8, 1], "group:4", 1)],
        ids=["mlp", "group-norm-frozen"],
    )
    def test_clip_regimes(self, widths, norm, freeze, regime):
        # R below every pre-clip norm divides every row, R above every norm
        # divides none, and R at the first batch's median divides some.
        model = build_mlp(widths, norm=norm, seed=21, freeze_prefix=freeze)
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

    def test_wide_model_crosses_row_blocks(self, monkeypatch):
        # ~72k parameters, ~67k trainable: the 256 x 256 weight goes one
        # sample at a time, and the other 1,025 columns in 3-row blocks here.
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * 1025 * 3)
        model = build_mlp([20, 256, 256, 1], norm="group:8", seed=0, freeze_prefix=1)
        assert TestClippedSum.narrow_width(model) == 1025
        outcomes = self.run_both([20, 256, 256, 1], norm="group:8", freeze=1, n=40, steps=3,
                                 sigma=1.0, clip=1.0, p=0.5, seed=2)
        assert 3 < max(o.batch_size for o in outcomes)

    def test_small_row_blocks(self, monkeypatch):
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 1)
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
                 ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 1

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_non_finite_gradient_raises_after_one_charge(self, step):
        # Tiny first-layer weights keep the forward pass finite on huge
        # inputs, but the first layer's gradient norm overflows.
        model = build_mlp([3, 4, 1], seed=1)
        params = list(model.parameters)
        params[0] = params[0] * 1e-200
        model.parameter_vector[:] = flat(params)
        xs = np.sign(self.xs) * 1e200
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="cannot clip a non-finite gradient"
        ):
            step(model, xs, self.ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                 ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 1

    @pytest.mark.parametrize("layout", TestClippedSum.LAYOUTS)
    def test_nan_in_a_wide_span_raises_after_one_charge(self, layout, monkeypatch):
        # A NaN in the input the 256 x 256 weight's gradient reads, planted
        # after the batch's checks: only that weight's block holds it.
        if TestClippedSum.LAYOUTS[layout] is not None:
            monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", TestClippedSum.LAYOUTS[layout])
        model, xs, ys = TestClippedSum.wide_batch()
        checked = PerSampleBatch._checked.__func__

        def poisoned(cls, model, xa, ya):
            batch = checked(cls, model, xa, ya)
            _, _, h, _, shape = batch._chain[-1]
            assert shape == (256, 256)
            h[4, 0, 7] = np.nan
            return batch

        monkeypatch.setattr(PerSampleBatch, "_checked", classmethod(poisoned))
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ValueError, match="cannot clip a non-finite gradient"):
            dp_adam_step(model, xs, ys, DpAdamState.for_model(model, lr=0.05), ClipSpec(1.0),
                         ledger, np.random.default_rng(0), np.random.default_rng(1))
        assert ledger.step_count == 1

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_empty_draw_skips_update_but_charges(self, step):
        model = build_mlp([3, 4, 1], seed=1)
        before = [a.copy() for a in model.parameters]
        state = DpAdamState.for_model(model, lr=0.05)
        ledger = PrivacyLedger(MechanismSpec(1.0, EMPTY_DRAW_Q))
        outcome = step(model, self.xs, self.ys, state, ClipSpec(1.0), ledger,
                       np.random.default_rng(0), np.random.default_rng(1))
        assert not outcome.applied and outcome.batch_size == 0
        assert math.isnan(outcome.mean_loss) and math.isnan(outcome.noisy_grad_norm)
        assert ledger.step_count == 1 and state.t == 0
        for a, b in zip(model.parameters, before):
            assert_same_bits(a, b)

    def assert_refused_before_charge(self, step, error, match, xs, q, ys=None, **kwargs):
        """The step raises ``error`` with the ledger and the Poisson stream untouched.

        The ledger charges each step at rate ``q``.
        """
        model = build_mlp([3, 4, 1], seed=1)
        ledger = PrivacyLedger(MechanismSpec(1.0, q))
        poisson_rng = np.random.default_rng(0)
        before = poisson_rng.bit_generator.state
        with pytest.raises(error, match=match):
            step(model, xs, self.ys if ys is None else ys, DpAdamState.for_model(model, lr=0.05),
                 ClipSpec(1.0), ledger, poisson_rng, np.random.default_rng(1), **kwargs)
        assert ledger.step_count == 0
        assert poisson_rng.bit_generator.state == before

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_unknown_placement_refused_before_charge(self, step):
        self.assert_refused_before_charge(
            step, ValueError, "placement", self.xs, 1.0, noise_placement="on-mean"
        )

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_unknown_placement_raises_on_empty_draw(self, step):
        self.assert_refused_before_charge(
            step, ValueError, "placement", self.xs, EMPTY_DRAW_Q, noise_placement="on-mean"
        )

    @pytest.mark.parametrize("q", [1.0, EMPTY_DRAW_Q])
    @pytest.mark.parametrize(
        "xs",
        [np.zeros((12, 4)), np.zeros((12, 2)), np.zeros(12), np.zeros((12, 3, 1))],
        ids=["wide", "narrow", "1-d", "3-d"],
    )
    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_wrong_input_width_refused_before_charge(self, step, xs, q):
        # An empty draw must not let such inputs pass as a skipped step.
        self.assert_refused_before_charge(step, ShapeMismatchError, "input", xs, q)

    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_label_count_refused_before_charge(self, step):
        self.assert_refused_before_charge(step, ShapeMismatchError, "labels", self.xs[:11], 1.0)

    @pytest.mark.parametrize("label", [2.0, -1.0, 0.5, math.nan])
    @pytest.mark.parametrize("step", [dp_adam_step, tape_dp_adam_step])
    def test_bad_label_refused_before_charge(self, step, label):
        # At q = 0.1 most draws miss row 5, so only a check of every label
        # refuses the step before it trains on the others and charges.
        ys = self.ys.copy()
        ys[5] = label
        self.assert_refused_before_charge(step, ValueError, "label must be 0 or 1", self.xs, 0.1,
                                          ys=ys)


class TestInputWidthCheck:
    """Every entry point that reads a batch refuses a wrong width with one message."""

    @pytest.mark.parametrize(
        "call,xs,shape",
        [
            ("forward", np.zeros((2, 5)), (2, 5)),
            ("forward", np.zeros(5), (1, 5)),  # a 1-D sample is promoted to a row first
            ("accuracy", np.zeros((2, 5)), (2, 5)),
            ("batch_gradient", np.zeros((2, 5)), (2, 5)),
            ("PerSampleBatch", np.zeros((2, 5)), (2, 5)),
            ("dp_adam_step", np.zeros((2, 5)), (2, 5)),
            ("dp_adam_step", np.zeros((2, 4, 1)), (2, 4, 1)),
        ],
        ids=["forward", "forward-1d", "accuracy", "batch_gradient", "PerSampleBatch",
             "dp_adam_step", "dp_adam_step-3d"],
    )
    def test_same_message_before_the_draw_and_the_charge(self, call, xs, shape):
        model = build_mlp([4, 8, 1], seed=0)
        ys = np.array([0.0, 1.0])
        state = DpAdamState.for_model(model, lr=0.05)
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        poisson_rng, noise_rng = np.random.default_rng(0), np.random.default_rng(1)
        before = (poisson_rng.bit_generator.state, noise_rng.bit_generator.state)
        calls = {
            "forward": lambda: model.forward(xs),
            "accuracy": lambda: accuracy(model, xs, ys),
            "batch_gradient": lambda: batch_gradient(model, xs, ys),
            "PerSampleBatch": lambda: PerSampleBatch(model, xs, ys),
            "dp_adam_step": lambda: dp_adam_step(
                model, xs, ys, state, ClipSpec(1.0), ledger, poisson_rng, noise_rng
            ),
        }
        message = f"input of shape {shape} does not match input layer width 4"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            calls[call]()
        assert ledger.step_count == 0 and state.t == 0
        assert (poisson_rng.bit_generator.state, noise_rng.bit_generator.state) == before
