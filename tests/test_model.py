import numpy as np
import pytest

from dptrain.model import (
    ActivationLayer,
    BatchCoupledNormLayer,
    DenseLayer,
    Model,
    ModelValidationError,
    PerSampleBatch,
    accuracy,
    batch_gradient,
    build_mlp,
    load_checkpoint,
    per_sample_gradient,
    per_sample_gradients,
    save_checkpoint,
    validate_model,
)
from dptrain.tensor import (
    ShapeMismatchError,
    Tape,
    fd_gradient,
    mean_gradient_sets,
    mul,
    reduce_mean,
    tensor,
)


def batch_coupled_mlp(seed=0):
    """[4, 8, 1] MLP with a deliberately batch-coupled norm after the hidden layer."""
    rng = np.random.default_rng(seed)
    params = [
        rng.normal(size=(4, 8)),
        np.zeros(8),
        np.ones(8),
        np.zeros(8),
        rng.normal(size=(8, 1)),
        np.zeros(1),
    ]
    layers = [
        DenseLayer(4, 8, 0, 1),
        BatchCoupledNormLayer(8, 2, 3),
        ActivationLayer("relu"),
        DenseLayer(8, 1, 4, 5),
    ]
    return Model(layers, params)


def test_build_is_deterministic():
    a = build_mlp([4, 8, 1], seed=7)
    b = build_mlp([4, 8, 1], seed=7)
    for pa, pb in zip(a.parameters, b.parameters):
        assert np.array_equal(pa, pb)
    c = build_mlp([4, 8, 1], seed=8)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.parameters, c.parameters))


def test_parameter_counts():
    assert build_mlp([4, 8, 1], seed=7).num_parameters() == 49
    assert build_mlp([4, 8, 1], norm="group:2", seed=7).num_parameters() == 65


def test_parameter_offsets_survive_set_parameters():
    model = build_mlp([4, 8, 1], norm="group:2", seed=7)
    offsets = model.parameter_offsets()
    assert offsets == (0, 32, 40, 48, 56, 64, 65)
    model.set_parameters([p + 1.0 for p in model.parameters])
    assert model.parameter_offsets() == offsets
    assert model.num_parameters() == offsets[-1] == 65
    with pytest.raises(ShapeMismatchError):
        model.set_parameters(model.parameters[:-1])
    assert model.parameter_offsets() == offsets


def test_parameters_are_views_over_one_replaced_vector():
    model = build_mlp([4, 8, 1], norm="group:2", seed=7)
    vector = model.parameter_vector
    offsets = model.parameter_offsets()
    assert vector.shape == (offsets[-1],)
    for s, p in enumerate(model.parameters):
        assert np.shares_memory(p, vector)
        np.testing.assert_array_equal(p.reshape(-1), vector[offsets[s]:offsets[s + 1]])
    held, kept = model.parameters[0], vector.copy()
    model.set_parameter_vector(vector + 1.0)
    np.testing.assert_array_equal(vector, kept)
    np.testing.assert_array_equal(model.parameters[0], held + 1.0)
    with pytest.raises(ShapeMismatchError):
        model.set_parameter_vector(np.zeros(offsets[-1] + 1))


def test_initialization_bounds():
    model = build_mlp([10, 6, 1], seed=3)
    w = model.parameters[0]
    bound = np.sqrt(6.0 / 16.0)
    assert np.all(np.abs(w) <= bound)


def test_invalid_widths():
    with pytest.raises(ValueError):
        build_mlp([4], seed=0)
    with pytest.raises(ValueError):
        build_mlp([4, 8, 2], seed=0)


def test_num_groups_must_divide():
    with pytest.raises(ValueError):
        build_mlp([4, 6, 1], norm="group:4", seed=0)


def test_zero_model_loss_is_ln2():
    model = build_mlp([4, 8, 1], seed=0)
    model.set_parameters([np.zeros_like(p) for p in model.parameters])
    loss, grad = per_sample_gradient(model, np.ones(4), 1)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert grad.shapes == model.parameter_shapes()


def test_per_sample_gradient_is_pure():
    model = build_mlp([4, 8, 1], norm="group:2", seed=1)
    x = np.linspace(-1, 1, 4)
    l1, g1 = per_sample_gradient(model, x, 0)
    l2, g2 = per_sample_gradient(model, x, 0)
    assert l1 == l2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_per_sample_gradient_rejects_bad_input():
    model = build_mlp([4, 8, 1], seed=1)
    with pytest.raises(ShapeMismatchError):
        per_sample_gradient(model, np.ones(5), 1)
    with pytest.raises(ValueError):
        per_sample_gradient(model, np.ones(4), 0.5)


@pytest.mark.parametrize("norm", ["none", "group:2"])
def test_per_sample_gradient_matches_fd(norm):
    model = build_mlp([3, 4, 1], norm=norm, seed=11)
    x = np.array([0.3, -1.2, 0.8])
    _, grad = per_sample_gradient(model, x, 1)

    def loss(params):
        probe = Model(model.layers, params)
        with Tape() as tape:
            logits = probe.forward(x.reshape(1, -1), tape=tape)
        from dptrain.tensor import binary_cross_entropy, sigmoid

        return reduce_mean(binary_cross_entropy(sigmoid(logits), tensor([1.0]))).item()

    ref = fd_gradient(loss, model.parameters, step=1e-5)
    for g, r in zip(grad, ref):
        denom = np.maximum(np.abs(r), 1e-3)
        assert np.max(np.abs(g - r) / denom) < 1e-4


def test_batch_gradient_is_mean_of_per_sample():
    model = build_mlp([5, 6, 1], norm="group:3", seed=2)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(8, 5))
    ys = rng.integers(0, 2, size=8).astype(float)
    _, batch_g = batch_gradient(model, xs, ys)
    per = [per_sample_gradient(model, xs[i], ys[i])[1] for i in range(8)]
    mean_g = mean_gradient_sets(per)
    for a, b in zip(batch_g, mean_g):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def test_per_sample_isolation_within_batch():
    # Gradient of sample i's loss inside a batch graph (selected with a
    # one-hot mask) must equal the gradient computed with the sample alone.
    model = build_mlp([4, 8, 1], norm="group:2", seed=13)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(6, 4))
    ys = rng.integers(0, 2, size=6).astype(float)
    from dptrain.tensor import backward, binary_cross_entropy, sigmoid

    for i in range(6):
        _, alone = per_sample_gradient(model, xs[i], ys[i])
        with Tape() as tape:
            logits = model.forward(xs, tape=tape)
            losses = binary_cross_entropy(sigmoid(logits), tensor(ys))
            onehot = np.zeros(6)
            onehot[i] = 6.0  # undo the 1/B of reduce_mean
            picked = reduce_mean(mul(losses, tensor(onehot)))
        within = backward(tape, picked)
        for a, b in zip(alone, within):
            assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a) + 1e-12)


def test_validate_group_norm_mlp_ok():
    assert validate_model(build_mlp([4, 8, 1], norm="group:2", seed=0)).ok


def test_validate_plain_mlp_ok():
    assert validate_model(build_mlp([4, 8, 1], seed=0)).ok


def test_validate_flags_batch_coupled_layer():
    report = validate_model(batch_coupled_mlp())
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.layer_kind == "batch_norm" and v.layer_index == 1


def test_batch_coupled_layer_refuses_tracing():
    model = batch_coupled_mlp()
    with pytest.raises(ModelValidationError):
        per_sample_gradient(model, np.ones(4), 1)


def test_batch_coupled_forward_works_untraced():
    model = batch_coupled_mlp()
    logits = model.forward(np.ones((3, 4)))
    assert logits.shape == (3,)


def test_freeze_prefix_masks_block_params():
    model = build_mlp([4, 8, 8, 1], norm="group:2", seed=0)
    model.set_freeze_prefix(1)
    # First dense (W, b) and its norm (gamma, beta) frozen; rest trainable.
    assert model.trainable == [False, False, False, False, True, True, True, True, True, True]
    model.set_freeze_prefix(0)
    assert all(model.trainable)
    with pytest.raises(ValueError):
        model.set_freeze_prefix(3)


def test_accuracy_on_separable_points():
    model = build_mlp([2, 4, 1], seed=0)
    xs = np.array([[5.0, 0.0], [-5.0, 0.0]])
    probs = accuracy(model, xs, np.array([1.0, 0.0]))
    assert 0.0 <= probs <= 1.0


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_mlp([4, 8, 1], norm="group:2", seed=42)
    model.set_freeze_prefix(1)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.seed == model.seed
    assert loaded.freeze_prefix == 1
    assert loaded.trainable == model.trainable
    assert len(loaded.layers) == len(model.layers)
    for a, b in zip(loaded.parameters, model.parameters):
        assert np.array_equal(a, b)
    x = np.linspace(-1, 1, 4)
    assert model.forward(x).data.tolist() == loaded.forward(x).data.tolist()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def tape_rows(model, xs, ys):
    """Tape losses and flattened per-sample gradients, frozen columns zeroed."""
    losses, rows = [], []
    for x, y in zip(xs, ys):
        loss, g = per_sample_gradient(model, x, y)
        losses.append(loss)
        rows.append(np.concatenate([
            a.reshape(-1) if keep else np.zeros(a.size)
            for a, keep in zip(g.arrays, model.trainable)
        ]))
    return np.array(losses), np.array(rows)


@pytest.mark.parametrize(
    "widths,norm,freeze,batch",
    [
        ([5, 8, 8, 1], "none", 0, 9),
        ([5, 8, 8, 1], "group:4", 0, 9),
        ([5, 6, 6, 6, 1], "group:2", 1, 7),
        ([5, 6, 6, 6, 1], "group:3", 2, 7),
        ([4, 3, 1], "none", 0, 1),
        ([3, 1], "none", 0, 5),
    ],
)
def test_batched_gradients_equal_tape(widths, norm, freeze, batch):
    model = build_mlp(widths, norm=norm, seed=31)
    if freeze:
        model.set_freeze_prefix(freeze)
    rng = np.random.default_rng(batch + len(widths))
    xs = rng.normal(scale=2.0, size=(batch, widths[0]))
    ys = rng.integers(0, 2, size=batch).astype(float)
    losses, grads = per_sample_gradients(model, xs, ys)
    ref_losses, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(losses, ref_losses)
    np.testing.assert_array_equal(grads, ref_rows)
    assert grads.shape == (batch, model.num_parameters())


def test_batched_gradients_equal_tape_at_saturation_and_degenerate_groups():
    # Saturated sigmoids hit the loss clamp (zero gradient) and constant
    # inputs hit the group-norm variance floor; both branches must match.
    model = build_mlp([3, 4, 1], norm="group:2", seed=2)
    model.set_parameters([p * 40.0 for p in model.parameters])
    xs = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0], [-5.0, 4.0, 1.0], [2.0, 2.0, 2.0]])
    ys = np.array([1.0, 0.0, 0.0, 1.0])
    losses, grads = per_sample_gradients(model, xs, ys)
    ref_losses, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(losses, ref_losses)
    np.testing.assert_array_equal(grads, ref_rows)


def test_row_blocks_assemble_the_full_matrix():
    model = build_mlp([20, 256, 256, 1], norm="group:8", seed=4)
    model.set_freeze_prefix(1)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(10, 20))
    ys = rng.integers(0, 2, size=10).astype(float)
    batch = PerSampleBatch(model, xs, ys)
    block = np.zeros((3, model.num_parameters()))
    rows = []
    for lo in range(0, 10, 3):
        hi = min(lo + 3, 10)
        batch.backward(lo, hi, block)
        rows.append(block[: hi - lo].copy())
    ref_losses, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(batch.losses, ref_losses)
    np.testing.assert_array_equal(np.concatenate(rows), ref_rows)


def test_batched_gradients_reject_bad_input():
    model = build_mlp([4, 8, 1], seed=0)
    with pytest.raises(ShapeMismatchError):
        per_sample_gradients(model, np.zeros((2, 5)), [0.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        per_sample_gradients(model, np.zeros((2, 4)), [0.0])
    with pytest.raises(ValueError):
        per_sample_gradients(model, np.zeros((2, 4)), [0.0, 0.5])
    with pytest.raises(FloatingPointError):
        per_sample_gradients(model, np.array([[0.0, 1.0, np.nan, 0.0]]), [1.0])
    with pytest.raises(ModelValidationError):
        per_sample_gradients(batch_coupled_mlp(), np.ones((2, 4)), [0.0, 1.0])
    batch = PerSampleBatch(model, np.zeros((2, 4)), [0.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        batch.backward(0, 2, np.zeros((2, model.num_parameters()), order="F"))
    with pytest.raises(ShapeMismatchError):
        batch.backward(0, 2, np.zeros((2, model.num_parameters() + 1)))
