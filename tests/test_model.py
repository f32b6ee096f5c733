import dataclasses
import json
import math
import re

import numpy as np
import pytest

from dptrain.model import (
    ActivationLayer,
    DenseLayer,
    GroupNormLayer,
    Model,
    PerSampleBatch,
    ShapeMismatchError,
    _binary_labels,
    accuracy,
    batch_gradient,
    build_mlp,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
)
from dptrain.mechanisms import ClipSpec
from dptrain.optim import DpAdamState, adam_step
from autodiff import (
    Tape,
    backward,
    binary_cross_entropy,
    fd_gradient,
    mul,
    reduce_mean,
    sigmoid,
    tensor,
)
from oracles import (
    BatchCoupledNormLayer,
    LayerStack,
    block_freeze_mask,
    broadcast_outer,
    flat,
    mean_gradient_sets,
    per_sample_gradient,
    per_sample_gradients,
    shapes,
    slot_views,
    tape_batch_gradient,
    traced_forward,
)


def batch_coupled_mlp(seed=0):
    """[4, 8, 1] MLP with a batch-coupled norm after the hidden layer, as a ``LayerStack``.

    No ``Model`` admits the norm, so the tape oracle runs the stack itself.
    """
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
    return LayerStack(layers, params, 4)


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


def test_parameters_are_views_over_one_lasting_vector():
    model = build_mlp([4, 8, 1], norm="group:2", seed=7)
    vector, views = model.parameter_vector, model.parameters
    offsets = model.parameter_offsets()
    assert vector.shape == (offsets[-1],)
    assert isinstance(views, tuple)
    for s, p in enumerate(views):
        assert np.shares_memory(p, vector)
        np.testing.assert_array_equal(p.reshape(-1), vector[offsets[s]:offsets[s + 1]])
    kept = vector.copy()
    model.set_parameters(views)  # the model's own views: nothing changes
    assert vector.tobytes() == kept.tobytes()
    held = views[0]
    model.set_parameters([p + 1.0 for p in views])
    assert model.parameter_vector is vector and model.parameters is views
    np.testing.assert_array_equal(vector, kept + 1.0)
    np.testing.assert_array_equal(held, kept[offsets[0]:offsets[1]].reshape(held.shape) + 1.0)
    kept = vector.copy()
    for bad in (
        views[:-1],
        [*views[:-1], np.zeros(2)],
        [np.zeros(offsets[-1])],
    ):
        with pytest.raises(ShapeMismatchError):
            model.set_parameters(bad)
        assert model.parameter_vector is vector and model.parameters is views
        assert vector.tobytes() == kept.tobytes()


def test_recorded_tape_survives_an_update():
    # Two hidden layers: every layer's gradient below the output reads a later weight.
    model = build_mlp([4, 8, 8, 1], norm="group:2", seed=5)
    x = np.random.default_rng(3).normal(size=(1, 4))
    _, before = per_sample_gradient(model, x, 1.0)
    with Tape() as tape:
        probs = sigmoid(traced_forward(model, x, tape))
        loss = reduce_mean(binary_cross_entropy(probs, tensor([1.0])))
    state = DpAdamState.for_model(model, lr=0.1)
    adam_step(model, flat(before), state)
    _, moved = per_sample_gradient(model, x, 1.0)
    assert all(not np.array_equal(a, b) for a, b in zip(moved[:-1], before[:-1]))
    after = backward(tape, loss)
    assert len(after) == len(before)
    for a, b in zip(after, before):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_initialization_bounds():
    model = build_mlp([10, 6, 1], seed=3)
    w = model.parameters[0]
    bound = np.sqrt(6.0 / 16.0)
    assert np.all(np.abs(w) <= bound)


@pytest.mark.parametrize("norm", ["none", "group:4"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_initialization_equals_uniform_formula(norm, seed):
    widths = [12, 256, 8, 1]
    model = build_mlp(widths, norm=norm, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    expected = []
    for li in range(len(widths) - 1):
        fan_in, fan_out = widths[li], widths[li + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        expected += [rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)]
        if norm != "none" and li < len(widths) - 2:
            expected += [np.ones(fan_out), np.zeros(fan_out)]
    assert len(model.parameters) == len(expected)
    for got, want in zip(model.parameters, expected):
        np.testing.assert_array_equal(got, want)


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
    assert shapes(grad) == model.parameter_shapes()


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
            logits = traced_forward(probe, x.reshape(1, -1), tape)
        from autodiff import binary_cross_entropy, sigmoid

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
    for a, b in zip(slot_views(model, batch_g), mean_g):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def gradient_within(model, xs, ys, i):
    """Gradient of sample i's loss inside the batch graph of ``xs``, picked with a one-hot mask."""
    with Tape() as tape:
        logits = traced_forward(model, xs, tape)
        losses = binary_cross_entropy(sigmoid(logits), tensor(ys))
        onehot = np.zeros(len(xs))
        onehot[i] = len(xs)  # undo the 1/B of reduce_mean
        picked = reduce_mean(mul(losses, tensor(onehot)))
    return backward(tape, picked)


def test_per_sample_isolation_within_batch():
    # Gradient of sample i's loss inside a batch graph (selected with a
    # one-hot mask) must equal the gradient computed with the sample alone.
    model = build_mlp([4, 8, 1], norm="group:2", seed=13)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(6, 4))
    ys = rng.integers(0, 2, size=6).astype(float)
    for i in range(6):
        _, alone = per_sample_gradient(model, xs[i], ys[i])
        for a, b in zip(alone, gradient_within(model, xs, ys, i)):
            assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a) + 1e-12)


def test_batch_coupled_layer_mixes_samples():
    # The isolation above fails for the test-only batch-coupled layer: on the
    # tape, sample 0's gradient within the batch differs from its gradient
    # alone and moves when another sample's features do.
    stack = batch_coupled_mlp()
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(6, 4))
    ys = rng.integers(0, 2, size=6).astype(float)
    moved = xs.copy()
    moved[5] += 1.0
    _, alone = per_sample_gradient(stack, xs[0], ys[0])
    within = gradient_within(stack, xs, ys, 0)
    beside_moved = gradient_within(stack, moved, ys, 0)
    assert max(np.abs(a - b).max() for a, b in zip(alone, within)) > 1e-3
    assert max(np.abs(a - b).max() for a, b in zip(within, beside_moved)) > 1e-3


def test_the_layer_set_is_closed(tmp_path):
    # Model admits dense, activation and group-norm layers only: the
    # batch-coupled layer is refused when the model is built, in the frozen
    # prefix (freeze_prefix 1) and in the trainable tail (0), and a
    # checkpoint that names one is refused when it is loaded.
    stack = batch_coupled_mlp()
    for freeze_prefix in (0, 1):
        with pytest.raises(TypeError, match=r"^unknown layer BatchCoupledNormLayer\("):
            Model(stack.layers, stack.parameters, freeze_prefix=freeze_prefix)
    path = tmp_path / "batch_norm.json"
    write_batch_norm_checkpoint(path)
    with pytest.raises(ValueError, match="^unknown layer kind 'batch_norm' in checkpoint$"):
        load_checkpoint(path)


def test_freeze_prefix_masks_block_params():
    model = build_mlp([4, 8, 8, 1], norm="group:2", seed=0, freeze_prefix=1)
    # First dense (W, b) and its norm (gamma, beta) frozen; rest trainable.
    assert model.trainable == [False, False, False, False, True, True, True, True, True, True]
    model = build_mlp([4, 8, 8, 1], norm="group:2", seed=0, freeze_prefix=0)
    assert all(model.trainable)
    with pytest.raises(ValueError):
        build_mlp([4, 8, 8, 1], norm="group:2", seed=0, freeze_prefix=3)


@pytest.mark.parametrize("norm", ["none", "group:2"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_freeze_prefix_matches_the_block_rule(norm, depth):
    for k in range(depth):
        model = build_mlp([4] + [8] * (depth - 1) + [1], norm=norm, seed=0, freeze_prefix=k)
        offsets = model.parameter_offsets()
        mask = block_freeze_mask(model, k)
        assert model.trainable == mask
        assert model.frozen_slots == mask.count(False)
        start = model.trainable_start
        assert model.trainable_spans() == [
            (offsets[s] - start, offsets[s + 1] - start) for s, keep in enumerate(mask) if keep
        ]


def test_freeze_prefix_on_hand_built_models():
    # A norm layer before the first dense layer freezes whenever k >= 1.
    layers = [
        GroupNormLayer(4, 2, 0, 1),
        DenseLayer(4, 8, 2, 3),
        ActivationLayer("relu"),
        DenseLayer(8, 1, 4, 5),
    ]
    params = [np.ones(4), np.zeros(4), np.ones((4, 8)), np.zeros(8), np.ones((8, 1)), np.zeros(1)]
    model = Model(layers, params, freeze_prefix=1)
    assert model.trainable == [False] * 4 + [True] * 2
    model = Model(layers, params, freeze_prefix=0)
    assert model.trainable == [True] * 6
    assert model.trainable_spans() == [(0, 4), (4, 8), (8, 40), (40, 48), (48, 56), (56, 57)]


def test_trainable_is_read_only():
    model = build_mlp([4, 8, 1], seed=0)
    with pytest.raises(AttributeError):
        model.trainable = [False, False, True, True]
    with pytest.raises(AttributeError):  # the boundary is fixed when the model is built
        model.freeze_prefix = 1
    model.trainable[0] = False  # a fresh list on each read
    assert model.trainable == [True] * 4


@pytest.mark.parametrize(
    "layers",
    [
        [DenseLayer(4, 8, 1, 0), DenseLayer(8, 1, 2, 3)],  # swapped within a layer
        [DenseLayer(8, 1, 2, 3), DenseLayer(4, 8, 0, 1)],  # layers out of slot order
        [DenseLayer(4, 8, 0, 2), DenseLayer(8, 1, 3, 4)],  # a gap
        [DenseLayer(4, 8, 0, 1), DenseLayer(8, 1, 2, 3), DenseLayer(1, 1, 4, 5)],  # past the end
        [DenseLayer(4, 8, 0, 1), DenseLayer(8, 1, 2, 3)],  # the last parameter unnamed
        [],  # a parameter holder without layers
    ],
    ids=["swapped", "out-of-order", "gap", "missing-parameters", "unnamed-parameter", "no-layers"],
)
def test_model_rejects_slots_out_of_layer_order(layers):
    params = [np.zeros((4, 8)), np.zeros(8), np.zeros((8, 1)), np.zeros(1), np.zeros((1, 1))]
    with pytest.raises(ValueError, match="must run 0, 1, 2"):
        Model(layers, params)


def test_model_needs_a_dense_layer():
    # So ``input_dim``, the first dense layer's input width, always exists.
    with pytest.raises(ValueError, match="0 dense layers"):
        Model([GroupNormLayer(4, 2, 0, 1)], [np.ones(4), np.zeros(4)])


def test_forward_refuses_a_layer_without_a_kernel():
    # Only the three layer classes have kernels; any other object, even one
    # with a layer's fields and kind, is refused when the model is built,
    # so no forward pass can reach it.
    @dataclasses.dataclass(frozen=True)
    class Lookalike:
        channels: int = 8
        kind = "activation"

    params = [np.zeros((4, 8)), np.zeros(8), np.zeros((8, 1)), np.zeros(1)]
    for layer in (object(), Lookalike()):
        with pytest.raises(TypeError, match="unknown layer"):
            Model([DenseLayer(4, 8, 0, 1), layer, DenseLayer(8, 1, 2, 3)], params)


def test_gradient_paths_refuse_a_layer_without_a_kernel():
    # Refused at build whether the layer sits in the trainable tail or in the
    # frozen prefix, where the backward chain would never reach it.
    layers = [DenseLayer(4, 8, 0, 1), object(), DenseLayer(8, 1, 2, 3)]
    params = [np.zeros((4, 8)), np.zeros(8), np.zeros((8, 1)), np.zeros(1)]
    for freeze_prefix in (0, 1):
        with pytest.raises(TypeError, match="unknown layer"):
            Model(layers, params, freeze_prefix=freeze_prefix)


def test_layers_are_read_only():
    # The spans, offsets, freeze boundary and layer plan are derived from the
    # layers when the model is built, so the layers cannot be replaced.
    model = build_mlp([4, 8, 1], seed=0)
    layers = model.layers
    with pytest.raises(AttributeError):
        model.layers = [DenseLayer(4, 1, 0, 1)]
    assert model.layers is layers and type(layers) is tuple


def test_parameters_are_read_only():
    # A new tuple would split the attribute from the vector the passes read,
    # so a checkpoint would write values the model never runs.
    model = build_mlp([3, 4, 1], seed=0)
    views = model.parameters
    with pytest.raises(AttributeError):
        model.parameters = tuple(np.zeros_like(p) for p in views)
    assert model.parameters is views and type(views) is tuple
    assert views[0].base is model.parameter_vector


def test_model_rejects_slot_shapes_its_layers_do_not_imply():
    layers = [DenseLayer(4, 8, 0, 1), GroupNormLayer(8, 2, 2, 3), DenseLayer(8, 1, 4, 5)]
    good = [np.zeros((4, 8)), np.zeros(8), np.ones(8), np.zeros(8), np.zeros((8, 1)), np.zeros(1)]
    Model(layers, good)
    for slot, shape in [(0, (8, 4)), (1, (1,)), (2, (4,)), (4, (8,))]:
        bad = list(good)
        bad[slot] = np.zeros(shape)
        with pytest.raises(ShapeMismatchError, match=f"slot {slot}"):
            Model(layers, bad)


def test_accuracy_on_separable_points():
    model = build_mlp([2, 4, 1], seed=0)
    xs = np.array([[5.0, 0.0], [-5.0, 0.0]])
    probs = accuracy(model, xs, np.array([1.0, 0.0]))
    assert 0.0 <= probs <= 1.0


def test_accuracy_rejects_a_label_count_that_differs_from_the_samples():
    model = build_mlp([2, 4, 1], seed=0)
    xs = np.random.default_rng(1).normal(size=(10, 2))
    for labels in ([1.0], np.zeros(9), np.zeros(11)):
        with pytest.raises(ShapeMismatchError):
            accuracy(model, xs, labels)


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0, np.nan])
def test_accuracy_rejects_labels_outside_zero_and_one(bad):
    model = build_mlp([2, 4, 1], seed=0)
    xs = np.random.default_rng(1).normal(size=(4, 2))
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        accuracy(model, xs, [0.0, 1.0, bad, 1.0])


@pytest.mark.parametrize(
    "bad, shown", [(2.0, "2.0"), (2, "2.0"), (-1.0, "-1.0"), (0.5, "0.5"), (np.nan, "nan")]
)
def test_label_error_shows_the_label_as_a_plain_float(bad, shown):
    # The message prints the float, not numpy's scalar repr (np.float64(2.0)).
    model = build_mlp([2, 4, 1], seed=0)
    xs = np.random.default_rng(1).normal(size=(4, 2))
    message = f"^label must be 0 or 1, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        accuracy(model, xs, [0, 1, bad, 1])
    with pytest.raises(ValueError, match=message):
        batch_gradient(model, xs, [0, 1, bad, 1])


@pytest.mark.parametrize("good", [0.0, 1.0, -0.0])
def test_binary_labels_accept_zero_one_and_negative_zero(good):
    ys = [1.0, good, 0.0]
    assert _binary_labels(ys, 3).tobytes() == np.array(ys).tobytes()


@pytest.mark.parametrize(
    "bad, shown",
    [(2.0, "2.0"), (0.5, "0.5"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
     (1e-320, "1e-320")],
)
def test_binary_labels_refuse_everything_else(bad, shown):
    # A subnormal is nonzero and not 1, NaN is nonzero and not 1: each is named.
    with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {re.escape(shown)}$"):
        _binary_labels([0.0, 1.0, bad, -0.0, 1.0], 5)


def test_accuracy_rejects_zero_samples():
    model = build_mlp([2, 4, 1], seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        accuracy(model, np.zeros((0, 2)), [])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_mlp([4, 8, 1], norm="group:2", seed=42, freeze_prefix=1)
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
    assert model.forward(x).tolist() == loaded.forward(x).tolist()


@pytest.mark.parametrize("value", [1.7, True, "2", 2.0])
def test_checkpoint_rejects_a_freeze_prefix_that_is_not_an_integer(tmp_path, value):
    # Three dense layers, so 1 and 2 are both valid prefixes once truncated.
    path = tmp_path / "model.json"
    save_checkpoint(build_mlp([3, 4, 4, 1], seed=0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["freeze_prefix"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="freeze_prefix must be an integer"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


# One layer of each kind, as the per-kind serializer of format version 1 wrote it.
VERSION_1_CHECKPOINT = (
    '{"format": "dptrain-model", "version": 1, "seed": 9, "freeze_prefix": 1, "layers": ['
    '{"kind": "dense", "in_dim": 2, "out_dim": 2, "weight_slot": 0, "bias_slot": 1}, '
    '{"kind": "group_norm", "channels": 2, "num_groups": 1, "gamma_slot": 2, "beta_slot": 3}, '
    '{"kind": "activation", "activation": "relu"}, '
    '{"kind": "dense", "in_dim": 2, "out_dim": 1, "weight_slot": 4, "bias_slot": 5}], '
    '"param_shapes": [[2, 2], [2], [2], [2], [2, 1], [1]], '
    '"params": [[0.1, -0.25, 1e-300, 0.30000000000000004], [0.0, -0.0], [1.0, 2.5], '
    '[0.5, -1.5], [3.0, -2.0], [0.125]]}'
)


def write_batch_norm_checkpoint(path):
    """Write ``VERSION_1_CHECKPOINT`` with a ``batch_norm`` layer before its output layer.

    Earlier versions saved such a layer; every other field is well formed,
    so the layer's kind is the one thing a load can refuse.
    """
    doc = json.loads(VERSION_1_CHECKPOINT)
    doc["layers"].insert(3, {"kind": "batch_norm", "channels": 2, "gamma_slot": 4,
                             "beta_slot": 5, "eps": 0.001})
    doc["layers"][4].update(weight_slot=6, bias_slot=7)
    doc["param_shapes"][4:4] = [[2], [2]]
    doc["params"][4:4] = [[1.0, 1.0], [0.0, 0.0]]
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_version_1_checkpoint_loads_and_resaves_to_the_same_bytes(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(VERSION_1_CHECKPOINT, encoding="utf-8")
    model = load_checkpoint(old)
    assert [l.kind for l in model.layers] == ["dense", "group_norm", "activation", "dense"]
    assert model.trainable == [False] * 4 + [True] * 2  # the group_norm follows the frozen dense
    save_checkpoint(model, new)
    assert new.read_bytes() == VERSION_1_CHECKPOINT.encode("utf-8")


@pytest.mark.parametrize(
    "layer,edit",
    [
        (0, {"bias_slot": None}),  # None deletes the field
        (1, {"momentum": 0.9}),
        (2, {"kind": "layer_norm"}),
        (2, {"activation": "tanh"}),  # only relu has a kernel
    ],
    ids=["missing-field", "extra-field", "unknown-kind", "tanh"],
)
def test_checkpoint_rejects_malformed_layers(tmp_path, layer, edit):
    doc = json.loads(VERSION_1_CHECKPOINT)
    for key, value in edit.items():
        if value is None:
            del doc["layers"][layer][key]
        else:
            doc["layers"][layer][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_with_a_misshapen_slot_fails_at_load(tmp_path):
    doc = json.loads(VERSION_1_CHECKPOINT)
    doc["param_shapes"][1], doc["params"][1] = [1], [0.0]  # the first dense bias is [2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ShapeMismatchError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["params"].pop(),
        lambda doc: doc["param_shapes"].pop(),
        lambda doc: doc["params"].append([1.0]),  # one value more than the shapes name
        lambda doc: (doc["params"].append([1.0]), doc["param_shapes"].append([1])),  # unnamed
    ],
    ids=["truncated-params", "truncated-shapes", "extra-params", "unnamed-parameter"],
)
def test_checkpoint_with_unpaired_parameters_fails_at_load(tmp_path, edit):
    doc = json.loads(VERSION_1_CHECKPOINT)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["params"][1].__setitem__(0, math.nan), "slot 1"),
        (lambda doc: doc["params"][4].__setitem__(1, -math.inf), "slot 4"),
        (lambda doc: doc.__delitem__("layers"), "layers"),
        (lambda doc: doc.__delitem__("params"), "params"),
        (lambda doc: doc.__delitem__("param_shapes"), "param_shapes"),
        (lambda doc: doc.__setitem__("version", 2), "version"),
        (lambda doc: doc.__setitem__("version", True), "version"),  # True == 1 in Python
        (lambda doc: [doc], "checkpoint"),  # the edit returns the document to write
        (lambda doc: doc.__setitem__("layers", 5), "layers"),
        (lambda doc: doc.__setitem__("layers", [1, 2]), "layers"),
        (lambda doc: doc.__setitem__("param_shapes", "ab"), "param_shapes"),
        (lambda doc: doc["param_shapes"].__setitem__(0, ["a", 2]), "param_shapes"),
        (lambda doc: doc["params"].__setitem__(0, {"x": 1}), "params"),
        (lambda doc: doc.__setitem__("seed", "x"), "seed"),
    ],
    ids=[
        "nan", "infinity", "no-layers", "no-params", "no-param-shapes", "version",
        "version-true", "top-level-array", "layers-number", "layers-of-numbers",
        "param-shapes-string", "shape-of-strings", "params-object", "seed-string",
    ],
)
def test_checkpoint_with_unusable_fields_fails_at_load(tmp_path, edit, message):
    doc = json.loads(VERSION_1_CHECKPOINT)
    doc = edit(doc) or doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # json writes NaN and -Infinity
    with pytest.raises(ValueError, match=rf"\b{message}\b"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["tanh", "sigmoid", "RELU", ""])
def test_activation_layer_refuses_what_it_cannot_run(name):
    with pytest.raises(ValueError, match="activation"):
        ActivationLayer(name)


def tape_rows(model, xs, ys):
    """Tape losses and flattened per-sample gradients, frozen columns zeroed."""
    losses, rows = [], []
    for x, y in zip(xs, ys):
        loss, g = per_sample_gradient(model, x, y)
        losses.append(loss)
        rows.append(np.concatenate([
            a.reshape(-1) if keep else np.zeros(a.size)
            for a, keep in zip(g, model.trainable)
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
    model = build_mlp(widths, norm=norm, seed=31, freeze_prefix=freeze)
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


@pytest.mark.parametrize("seed", range(6))
def test_weight_rows_are_broadcast_outer_products(seed):
    # Random widths; inputs with signed zeros, subnormals and saturating
    # magnitudes, whose cotangents include zeros of both signs.
    rng = np.random.default_rng(seed)
    in_dim, hidden = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    model = build_mlp([in_dim, hidden, 1], seed=seed)
    xs = rng.normal(size=(9, in_dim))
    picks = rng.choice(xs.size, size=min(xs.size, 8), replace=False)
    xs.flat[picks] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e6, -1e6], size=picks.size)
    ys = rng.integers(0, 2, size=9).astype(float)
    _, rows = per_sample_gradients(model, xs, ys)
    _, ref_rows = tape_rows(model, xs, ys)
    w0, b0 = model.parameters[:2]
    h1 = np.maximum(xs[:, None, :] @ w0 + b0, 0.0)[:, 0]  # the kernels' forward pass
    o = model.parameter_offsets()
    negative_zeros = 0
    for h, w_slot in ((xs, 0), (h1, 2)):
        got = rows[:, o[w_slot]:o[w_slot + 1]]
        g = rows[:, o[w_slot + 1]:o[w_slot + 2]]  # the bias row is the output cotangent
        want = broadcast_outer(h, g).reshape(got.shape)
        negative_zeros += np.count_nonzero(np.signbit(want[want == 0.0]))
        # Each entry is one product, added to +0.0: a -0.0 product reads +0.0,
        # as in the tape's one-row matmul, whose bits it matches.
        assert got.tobytes() == (want + 0.0).tobytes()
        assert got.tobytes() == ref_rows[:, o[w_slot]:o[w_slot + 1]].tobytes()
    assert negative_zeros > 0


def test_row_blocks_assemble_the_full_matrix():
    model = build_mlp([20, 256, 256, 1], norm="group:8", seed=4, freeze_prefix=1)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(10, 20))
    ys = rng.integers(0, 2, size=10).astype(float)
    batch = PerSampleBatch(model, xs, ys)
    start = model.trainable_start
    assert start > 0
    block = np.full((3, model.num_parameters() - start), np.nan)  # every entry is written
    rows = []
    for lo in range(0, 10, 3):
        hi = min(lo + 3, 10)
        batch._write_rows(lo, hi, block[: hi - lo])
        rows.append(block[: hi - lo].copy())
    ref_losses, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(batch.losses, ref_losses)
    np.testing.assert_array_equal(np.concatenate(rows), ref_rows[:, start:])
    assert not ref_rows[:, :start].any()


def test_backward_sets_every_entry_of_an_unzeroed_buffer():
    # Row buffers are not zeroed beforehand: the layers name every column, so
    # the row writer sets each one, norm parameters included.
    model = build_mlp([4, 6, 1], norm="group:2", seed=1)
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(5, 4))
    ys = rng.integers(0, 2, size=5).astype(float)
    block = np.full((5, model.num_parameters()), np.nan)
    PerSampleBatch(model, xs, ys)._write_rows(0, 5, block)
    _, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(block, ref_rows)


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


def assert_batch_gradient_equals_tape(model, xs, ys):
    """A flat float64 [T] gradient, equal to the tape's trainable entries."""
    loss, vector = batch_gradient(model, xs, ys)
    ref_loss, ref = tape_batch_gradient(model, xs, ys)
    assert loss == ref_loss
    assert isinstance(vector, np.ndarray) and vector.dtype == np.float64
    start = model.trainable_start
    assert vector.shape == (model.num_parameters() - start,)
    assert shapes(ref) == model.parameter_shapes()
    np.testing.assert_array_equal(vector, flat(ref)[start:])


@pytest.mark.parametrize("batch", [1, 2, 7, 32])
@pytest.mark.parametrize("freeze", [0, 1, 2])
@pytest.mark.parametrize("norm", ["none", "group:4"])
def test_batch_gradient_equals_tape(norm, freeze, batch):
    model = build_mlp([5, 8, 8, 1], norm=norm, seed=3 * batch + freeze, freeze_prefix=freeze)
    rng = np.random.default_rng(batch + 10 * freeze)
    xs = rng.normal(scale=2.0, size=(batch, 5))
    ys = rng.integers(0, 2, size=batch).astype(float)
    assert_batch_gradient_equals_tape(model, xs, ys)


def test_batch_gradient_equals_tape_at_saturation_and_degenerate_groups():
    # The inputs of the per-sample test of the loss clamp and the variance floor.
    model = build_mlp([3, 4, 1], norm="group:2", seed=2)
    model.set_parameters([p * 40.0 for p in model.parameters])
    xs = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0], [-5.0, 4.0, 1.0], [2.0, 2.0, 2.0]])
    ys = np.array([1.0, 0.0, 0.0, 1.0])
    assert_batch_gradient_equals_tape(model, xs, ys)
    for i in range(4):
        assert_batch_gradient_equals_tape(model, xs[i:i + 1], ys[i:i + 1])


def test_gradients_of_a_model_that_starts_with_a_norm_layer_equal_tape():
    # The backward chain stops at the norm layer that owns the first trainable slot.
    layers = [
        GroupNormLayer(4, 2, 0, 1),
        DenseLayer(4, 8, 2, 3),
        ActivationLayer("relu"),
        DenseLayer(8, 1, 4, 5),
    ]
    rng = np.random.default_rng(8)
    params = [rng.normal(size=s) for s in [(4,), (4,), (4, 8), (8,), (8, 1), (1,)]]
    model = Model(layers, params)
    xs = rng.normal(scale=2.0, size=(6, 4))
    ys = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    assert_batch_gradient_equals_tape(model, xs, ys)
    losses, grads = per_sample_gradients(model, xs, ys)
    ref_losses, ref_rows = tape_rows(model, xs, ys)
    np.testing.assert_array_equal(losses, ref_losses)
    np.testing.assert_array_equal(grads, ref_rows)


def test_batch_gradient_rejects_bad_input():
    model = build_mlp([4, 8, 1], seed=0)
    with pytest.raises(ValueError):
        batch_gradient(model, np.zeros((2, 4)), [0.0, 0.5])
    with pytest.raises(ValueError):
        batch_gradient(model, np.zeros((2, 4)), [2.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        batch_gradient(model, np.zeros((2, 4)), [0.0])
    with pytest.raises(ShapeMismatchError):
        batch_gradient(model, np.zeros((2, 5)), [0.0, 1.0])
    with pytest.raises(ValueError):
        batch_gradient(model, np.zeros((0, 4)), [])
    with pytest.raises(FloatingPointError):
        batch_gradient(model, np.array([[0.0, 1.0, np.nan, 0.0]]), [1.0])


@pytest.mark.parametrize("norm", ["none", "group:4"])
def test_predictions_equal_traced_forward(norm):
    model = build_mlp([5, 8, 8, 1], norm=norm, seed=6)
    rng = np.random.default_rng(6)
    xs = rng.normal(scale=2.0, size=(50, 5))
    ys = rng.integers(0, 2, size=50).astype(float)
    with Tape() as tape:
        logits = traced_forward(model, xs, tape)
        probs = sigmoid(logits).data
    untraced = model.forward(xs)
    assert type(untraced) is np.ndarray
    assert untraced.dtype == np.float64 and untraced.shape == (50,)
    assert untraced.tobytes() == logits.data.tobytes()
    np.testing.assert_array_equal(predict_proba(model, xs), probs)
    assert accuracy(model, xs, ys) == float(np.mean((probs > 0.5) == ys))
    with pytest.raises(FloatingPointError):
        model.forward(np.array([0.0, np.nan, 0.0, 0.0, 0.0]))


def assert_same_passes(model, xs, ys):
    """``model``'s forward pass, batch gradient and clipped sum equal a fresh build's bits."""
    fresh = Model(model.layers, [p.copy() for p in model.parameters], seed=model.seed,
                  freeze_prefix=model.freeze_prefix)
    assert model.forward(xs).tobytes() == fresh.forward(xs).tobytes()
    loss, grad = batch_gradient(model, xs, ys)
    fresh_loss, fresh_grad = batch_gradient(fresh, xs, ys)
    assert loss == fresh_loss and grad.tobytes() == fresh_grad.tobytes()
    clip = ClipSpec(0.5)
    for a, b in zip(PerSampleBatch(model, xs, ys).clipped_sum(clip),
                    PerSampleBatch(fresh, xs, ys).clipped_sum(clip)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("freeze", [0, 1])
@pytest.mark.parametrize("norm", ["none", "group:2"])
def test_layer_plan_reads_the_current_parameters(norm, freeze, tmp_path):
    # The plan holds views of the one parameter vector, so a model whose
    # parameters were replaced, updated or loaded runs as one built with them.
    model = build_mlp([3, 4, 4, 1], norm=norm, seed=5, freeze_prefix=freeze)
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(9, 3))
    ys = rng.integers(0, 2, size=9).astype(float)
    model.set_parameters([rng.normal(size=p.shape) for p in model.parameters])
    assert_same_passes(model, xs, ys)
    state = DpAdamState.for_model(model, lr=0.1)
    adam_step(model, batch_gradient(model, xs, ys)[1], state)
    assert_same_passes(model, xs, ys)
    save_checkpoint(model, tmp_path / "model.json")
    loaded = load_checkpoint(tmp_path / "model.json")
    assert loaded.parameter_vector.tobytes() == model.parameter_vector.tobytes()
    assert_same_passes(loaded, xs, ys)
    loaded.set_parameters([p + 0.5 for p in loaded.parameters])
    assert_same_passes(loaded, xs, ys)
