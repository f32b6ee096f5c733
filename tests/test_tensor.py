import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dptrain.tensor import (
    GradientSet,
    IncompleteTapeError,
    NonScalarLossError,
    ShapeMismatchError,
    Tape,
    backward,
    binary_cross_entropy,
    fd_gradient,
    forward_primitive,
    group_norm,
    matmul,
    mean_gradient_sets,
    mul,
    add,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
    tensor,
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


def test_forward_primitive_dispatch():
    out = forward_primitive("relu", tensor([-2.0, 5.0]))
    np.testing.assert_array_equal(out.data, [0.0, 5.0])
    with pytest.raises(ValueError):
        forward_primitive("convolve", tensor([1.0]))


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


def test_bce_at_half():
    loss = binary_cross_entropy(tensor([0.5]), tensor([1.0]))
    assert loss.data[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_clamps_saturated_probabilities():
    loss = binary_cross_entropy(tensor([0.0, 1.0]), tensor([1.0, 0.0]))
    assert np.all(np.isfinite(loss.data))


def test_non_finite_inputs_rejected():
    with pytest.raises(FloatingPointError):
        tensor([np.inf])


def test_gradient_set_norm_and_ops():
    gs = GradientSet([np.array([3.0]), np.array([4.0])])
    assert gs.global_norm() == pytest.approx(5.0)


def test_mean_gradient_sets_fixed_order():
    sets = [GradientSet([np.array([float(i)])]) for i in range(5)]
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
