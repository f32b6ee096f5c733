import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autodiff import (
    IncompleteTapeError,
    NonScalarLossError,
    ShapeMismatchError,
    Tape,
    backward,
    batch_norm,
    binary_cross_entropy,
    fd_gradient,
    group_norm,
    matmul,
    mul,
    add,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
    tensor,
)
from dptrain.model import (
    BCE_PROB_FLOOR,
    GROUP_NORM_VAR_FLOOR,
    _bce,
    _group_norm,
    _group_norm_pullback,
    _sigmoid,
)
from oracles import (
    clip_clamp,
    global_norm,
    masked_sigmoid,
    mean_gradient_sets,
    mean_group_norm,
    mean_group_norm_pullback,
)


def test_matmul_identity():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = tensor(np.eye(2))
    out = matmul(a, eye)
    np.testing.assert_array_equal(out.data, a.data)


def test_relu_definition():
    out = relu(tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert sigmoid(tensor([0.0])).data[0] == 0.5


def test_sigmoid_saturation_is_finite():
    out = sigmoid(tensor([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg


def test_add_broadcasts_leading_batch_axis_only():
    batch = tensor(np.ones((4, 3)))
    bias = tensor(np.ones(3))
    assert add(batch, bias).shape == (4, 3)
    with pytest.raises(ShapeMismatchError):
        add(tensor(np.ones((4, 3))), tensor(np.ones(4)))


def test_backward_square():
    theta = tensor([3.0])
    with Tape() as tape:
        tape.watch(theta)
        out = reduce_mean(mul(theta, theta))
    grad = backward(tape, out)
    assert grad[0][0] == pytest.approx(6.0, abs=1e-12)


def test_backward_constant_gives_zero():
    theta = tensor([1.5, -2.0])
    const = tensor([7.0])
    with Tape() as tape:
        tape.watch(theta)
        out = reduce_mean(mul(const, const))
    grad = backward(tape, out)
    np.testing.assert_array_equal(grad[0], [0.0, 0.0])


def test_backward_rejects_non_scalar():
    theta = tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(theta)
        out = mul(theta, theta)
    with pytest.raises(NonScalarLossError):
        backward(tape, out)


def test_backward_rejects_foreign_output():
    theta = tensor([1.0])
    with Tape() as tape:
        tape.watch(theta)
        mul(theta, theta)
    stray = mul(theta, theta)  # built outside the tape
    with pytest.raises(IncompleteTapeError):
        backward(tape, stray)


def test_tape_replay_is_deterministic():
    rng = np.random.default_rng(0)
    w = tensor(rng.normal(size=(3, 3)))
    x = tensor(rng.normal(size=(1, 3)))
    with Tape() as tape:
        tape.watch(w)
        out = reduce_mean(sigmoid(matmul(x, w)))
    g1 = backward(tape, out)
    g2 = backward(tape, out)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_backward_linearity():
    rng = np.random.default_rng(1)
    theta = tensor(rng.normal(size=(2, 2)))
    x = tensor(rng.normal(size=(1, 2)))
    a_coef, b_coef = 2.5, -1.25

    def trace(scale_f, scale_g):
        with Tape() as tape:
            tape.watch(theta)
            f = reduce_mean(sigmoid(matmul(x, theta)))
            g = reduce_mean(mul(matmul(x, theta), matmul(x, theta)))
            out = add(mul(f, tensor(scale_f)), mul(g, tensor(scale_g)))
        return backward(tape, out)

    combined = trace(a_coef, b_coef)
    f_only = trace(a_coef, 0.0)
    g_only = trace(0.0, b_coef)
    for c, fo, go in zip(combined, f_only, g_only):
        np.testing.assert_allclose(c, fo + go, atol=1e-12)


def _fd_check(build, params, rtol=1e-4, atol=1e-7):
    """Compare tape gradients of build(params)->scalar Tensor with central FD."""
    with Tape() as tape:
        tensors = [tensor(p) for p in params]
        for t in tensors:
            tape.watch(t)
        out = build(tensors)
    grad = backward(tape, out)

    def loss(arrs):
        return build([tensor(a) for a in arrs]).item()

    ref = fd_gradient(loss, params, step=1e-5)
    for g, r in zip(grad, ref):
        np.testing.assert_allclose(g, r, rtol=rtol, atol=atol)


@pytest.mark.parametrize("seed", range(4))
def test_fd_parity_matmul_add_mul(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-2, 2, size=(3, 2))
    b = rng.uniform(-2, 2, size=2)
    x = tensor(rng.uniform(-2, 2, size=(2, 3)))

    def build(params):
        wt, bt = params
        return reduce_mean(mul(add(matmul(x, wt), bt), add(matmul(x, wt), bt)))

    _fd_check(build, [w, b])


@pytest.mark.parametrize("seed", range(4))
def test_fd_parity_sigmoid_bce(seed):
    rng = np.random.default_rng(10 + seed)
    z = rng.uniform(-2, 2, size=4)
    y = tensor(rng.integers(0, 2, size=4).astype(float))

    def build(params):
        (zt,) = params
        return reduce_mean(binary_cross_entropy(sigmoid(zt), y))

    _fd_check(build, [z])


@pytest.mark.parametrize("seed", range(4))
def test_fd_parity_relu_away_from_kink(seed):
    rng = np.random.default_rng(20 + seed)
    z = rng.uniform(-2, 2, size=6)
    z[np.abs(z) < 1e-3] = 0.5  # keep FD off the subgradient kink

    def build(params):
        (zt,) = params
        return reduce_mean(mul(relu(zt), relu(zt)))

    _fd_check(build, [z])


@pytest.mark.parametrize("seed", range(4))
def test_fd_parity_group_norm(seed):
    rng = np.random.default_rng(30 + seed)
    z = rng.uniform(-2, 2, size=(2, 6))
    weights = tensor(rng.uniform(-1, 1, size=6))

    def build(params):
        (zt,) = params
        return reduce_mean(mul(group_norm(zt, 2), weights))

    _fd_check(build, [z])


def test_fd_parity_group_norm_variance_floor_branch():
    # Nearly-constant group: variance stays under the floor even when FD
    # probes, so this exercises the constant-denominator pullback branch.
    z = np.array([2.0, 2.00005, 1.99995, 2.00002])
    weights = tensor(np.array([0.3, -0.7, 0.2, 0.9]))

    def build(params):
        (zt,) = params
        return reduce_mean(mul(group_norm(zt, 1), weights))

    with Tape() as tape:
        zt = tensor(z)
        tape.watch(zt)
        out = build([zt])
    grad = backward(tape, out)
    ref = fd_gradient(lambda arrs: build([tensor(arrs[0])]).item(), [z], step=1e-7)
    np.testing.assert_allclose(grad[0], ref[0], rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("seed", range(2))
def test_fd_parity_batch_norm(seed):
    rng = np.random.default_rng(50 + seed)
    z = rng.uniform(-2, 2, size=(4, 3))
    weights = tensor(rng.uniform(-1, 1, size=(4, 3)))

    def build(params):
        (zt,) = params
        return reduce_mean(mul(batch_norm(zt), weights))

    _fd_check(build, [z])


def test_fd_parity_reshape():
    rng = np.random.default_rng(40)
    z = rng.uniform(-2, 2, size=(2, 3))

    def build(params):
        (zt,) = params
        flat = reshape(zt, (6,))
        return reduce_mean(mul(flat, flat))

    _fd_check(build, [z])


def test_fd_gradient_quadratic_exact():
    g = fd_gradient(lambda p: float(p[0][0] ** 2), [np.array([3.0])], step=1e-5)
    assert g[0][0] == pytest.approx(6.0, abs=1e-8)


def test_fd_gradient_exp_taylor_bound():
    g = fd_gradient(lambda p: float(np.exp(p[0][0])), [np.array([0.0])], step=1e-5)
    assert g[0][0] == pytest.approx(1.0, abs=1e-9)


def test_fd_gradient_abs_kink_midpoint():
    g = fd_gradient(lambda p: float(abs(p[0][0])), [np.array([0.0])], step=1e-5)
    assert g[0][0] == 0.0


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient(lambda p: 0.0, [np.zeros(1)], step=0.0)


def test_group_norm_stats_before_scale_shift():
    rng = np.random.default_rng(5)
    x = tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 8)))
    out = group_norm(x, 2).data.reshape(4, 2, 4)
    mean = out.mean(axis=2)
    var = out.var(axis=2)
    assert np.abs(mean).max() < 1e-9
    assert np.abs(var - 1.0).max() < 1e-9


def test_group_norm_constant_group_is_bounded():
    out = group_norm(tensor([5.0, 5.0, 5.0, 5.0]), 2)
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_group_norm_rejects_indivisible():
    with pytest.raises(ShapeMismatchError):
        group_norm(tensor(np.ones(6)), 4)


@pytest.mark.parametrize("width", [1, 3, 32])
def test_group_norm_kernels_equal_np_mean_formulas_bitwise(width):
    # Sums then a divide by the group width, as np.mean runs them. Rows of
    # constant groups, and of ramps whose variance sits just below, near and
    # just above the floor, take the floored branch or its neighbours.
    groups = 4
    rng = np.random.default_rng(width)
    rows = [
        rng.normal(loc=3.0, scale=2.0, size=(6, groups * width)),
        np.full((2, groups * width), 7.5),
        np.zeros((1, groups * width)),
    ]
    if width > 1:
        ramp = np.linspace(-1.0, 1.0, width)
        for scale in (1e-3, 0.99, 1.0, 1.01):
            a = scale * np.sqrt(GROUP_NORM_VAR_FLOOR / ramp.var())
            rows.append(np.tile(a * ramp, (1, groups)) + 0.25)
    x = np.concatenate(rows)[:, None, :]  # the per-sample layout, [B, 1, channels]
    got, want = _group_norm(x, groups), mean_group_norm(x, groups)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    floored = got[2]
    assert floored.any() and (width == 1 or not floored.all())
    gg = rng.normal(size=got[0].shape)
    assert _group_norm_pullback(gg, got).tobytes() == mean_group_norm_pullback(gg, want).tobytes()


def test_bce_at_half():
    loss = binary_cross_entropy(tensor([0.5]), tensor([1.0]))
    assert loss.data[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_clamps_saturated_probabilities():
    loss = binary_cross_entropy(tensor([0.0, 1.0]), tensor([1.0, 0.0]))
    assert np.all(np.isfinite(loss.data))


def with_neighbours(values):
    """``values`` and the floats just below and above each, as one array."""
    v = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # max's upper neighbour is inf
        return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def test_sigmoid_kernel_equals_masked_formula_bitwise():
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    edges = [0.0, 5e-324, tiny / 3.0, tiny, 0.5, 36.7, 709.7, 745.2, 1e6, big, np.inf]
    rng = np.random.default_rng(41)
    magnitudes = 10.0 ** rng.uniform(-320, 308, size=3000)
    z = np.concatenate([
        with_neighbours(edges + [-e for e in edges]),
        rng.normal(scale=30.0, size=3000),
        magnitudes * rng.choice([-1.0, 1.0], size=3000),
    ])
    assert np.signbit(z).any() and (z == 0.0).sum() >= 2
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
    grid = z[:3000].reshape(60, 50)
    assert _sigmoid(grid).tobytes() == masked_sigmoid(grid).tobytes()
    scalar = np.array(-36.7)
    assert _sigmoid(scalar).tobytes() == masked_sigmoid(scalar).tobytes()


def test_bce_clamp_equals_np_clip_bitwise():
    f = BCE_PROB_FLOOR
    rng = np.random.default_rng(43)
    p = np.concatenate([
        with_neighbours([0.0, 5e-324, f, 0.5, 1.0 - f, 1.0]),
        [-0.0],
        rng.uniform(size=500),
        10.0 ** rng.uniform(-320, -1, size=500),
        1.0 - 10.0 ** rng.uniform(-17, -1, size=500),
    ])
    p = p[(p >= 0.0) & (p <= 1.0)]
    want = clip_clamp(p)
    labels = rng.integers(0, 2, size=p.size).astype(float)
    # Labels 0 or 1, with 0 written as +0.0, as -0.0 or as either: the loss
    # selects a log, and that must be the product formula bit for bit.
    negative_zeros = np.where(labels == 0.0, -0.0, labels)
    mixed = np.where(rng.random(p.size) < 0.5, labels, negative_zeros)
    for y in (labels, negative_zeros, mixed):
        loss, (pc, _, unclamped) = _bce(p, y)
        assert pc.tobytes() == want.tobytes()
        ref_loss = -(y * np.log(want) + (1.0 - y) * np.log1p(-want))
        assert loss.tobytes() == ref_loss.tobytes()
        assert unclamped.any() and not unclamped.all()
    assert np.signbit(y).any() and (y == 1.0).any()


def test_non_finite_inputs_rejected():
    with pytest.raises(FloatingPointError):
        tensor([np.inf])


def test_gradient_set_norm_and_ops():
    gs = (np.array([3.0]), np.array([4.0]))
    assert global_norm(gs) == pytest.approx(5.0)


def test_mean_gradient_sets_fixed_order():
    sets = [(np.array([float(i)]),) for i in range(5)]
    out = mean_gradient_sets(sets)
    assert out[0][0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mean_gradient_sets([])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=2, max_size=6),
    st.floats(0.1, 3.0),
)
def test_fd_parity_property_sigmoid_chain(values, scale):
    z = np.asarray(values)

    def build(params):
        (zt,) = params
        return reduce_mean(sigmoid(mul(zt, tensor(np.full(z.shape, scale)))))

    with Tape() as tape:
        zt = tensor(z)
        tape.watch(zt)
        out = build([zt])
    grad = backward(tape, out)
    ref = fd_gradient(lambda arrs: build([tensor(arrs[0])]).item(), [z], step=1e-5)
    denom = np.maximum(np.abs(ref[0]), 1e-3)
    assert np.max(np.abs(grad[0] - ref[0]) / denom) < 1e-4
