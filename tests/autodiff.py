"""Dense float64 tensors with tape-based reverse-mode differentiation.

The gradient oracle of the test suite: ``dptrain`` trains and evaluates
through the numpy layer kernels in :mod:`dptrain.model`, and the tests check
those kernels against this tape and against :func:`fd_gradient`.

The execution model is deliberately small: a :class:`Tensor` is an immutable
value wrapping a C-contiguous float64 array, and every primitive operation
optionally records itself on the active :class:`Tape`. Replaying the tape in
reverse yields exact gradients with respect to the watched parameters.

Tensors are safe to share across threads; a tape must stay confined to the
thread that created it (the active-tape stack is thread-local). Parallelism
belongs above this layer, e.g. one tape per sample.

The sigmoid, binary cross-entropy and group-norm primitives run the forward
and pullback kernels of :mod:`dptrain.model`, so the model's layer kernels
match the tape bit for bit by construction; ``batch_norm`` runs the
group-norm kernels down the batch axis.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

from dptrain.model import (
    ShapeMismatchError,
    _bce,
    _bce_pullback,
    _ensure_finite,
    _group_norm,
    _group_norm_pullback,
    _sigmoid,
    _sigmoid_pullback,
)

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "NonScalarLossError",
    "IncompleteTapeError",
    "tensor",
    "matmul",
    "add",
    "mul",
    "relu",
    "sigmoid",
    "group_norm",
    "batch_norm",
    "reshape",
    "reduce_mean",
    "binary_cross_entropy",
    "backward",
    "fd_gradient",
]


class NonScalarLossError(RuntimeError):
    """backward() was asked to differentiate a non-scalar output."""


class IncompleteTapeError(RuntimeError):
    """The requested output was not produced under the given tape."""


class Tensor:
    """Immutable dense n-dimensional array of float64 values.

    The flat data is stored row-major; ``prod(shape) == data.size`` always
    holds. Public operations reject non-finite results so NaN/Inf cannot
    propagate silently.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def tensor(data) -> Tensor:
    """Build a Tensor from any array-like of finite floats."""
    t = Tensor(data)
    _ensure_finite(t.data, "tensor")
    return t


class _Record:
    """One primitive application: inputs, produced output, and its pullback."""

    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs, output, grad_fn):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


_tape_stack = threading.local()


def _active_tape() -> "Tape | None":
    stack = getattr(_tape_stack, "stack", None)
    if not stack:
        return None
    return stack[-1]


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Use as a context manager; operations executed inside the ``with`` block
    are recorded. ``watch`` registers a parameter; :func:`backward` returns
    gradients for the watched parameters in registration order.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._watched: list[Tensor] = []
        self._known_ids: set[int] = set()

    def watch(self, param: Tensor) -> None:
        if id(param) not in self._known_ids:
            self._watched.append(param)
            self._known_ids.add(id(param))

    @property
    def watched(self) -> tuple[Tensor, ...]:
        return tuple(self._watched)

    def __enter__(self) -> "Tape":
        stack = getattr(_tape_stack, "stack", None)
        if stack is None:
            stack = []
            _tape_stack.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack.stack.pop()

    def _record(self, inputs, output, grad_fn) -> None:
        self._records.append(_Record(inputs, output, grad_fn))
        self._known_ids.add(id(output))


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, grad_fn) -> Tensor:
    _ensure_finite(out_data, op)
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._record(inputs, out, grad_fn)
    return out


def _broadcast_check(op: str, a: Tensor, b: Tensor) -> None:
    # Elementwise ops broadcast only over leading axes: the smaller shape must
    # be a suffix of the larger one.
    sa, sb = a.shape, b.shape
    small, large = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if large[len(large) - len(small):] != small:
        raise ShapeMismatchError(f"{op}: shapes {sa} and {sb} do not conform")


def _reduce_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo leading-axis broadcasting by summing the extra axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _emit("matmul", (a, b), out, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("add", a, b)
    out = a.data + b.data

    def grad_fn(g):
        return _reduce_to_shape(g, a.shape), _reduce_to_shape(g, b.shape)

    return _emit("add", (a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("mul", a, b)
    out = a.data * b.data

    def grad_fn(g):
        return (
            _reduce_to_shape(g * b.data, a.shape),
            _reduce_to_shape(g * a.data, b.shape),
        )

    return _emit("mul", (a, b), out, grad_fn)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    # Subgradient at 0 is fixed to 0 for reproducibility.
    mask = x.data > 0.0

    def grad_fn(g):
        return (g * mask,)

    return _emit("relu", (x,), out, grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def grad_fn(g):
        return (_sigmoid_pullback(g, out),)

    return _emit("sigmoid", (x,), out, grad_fn)


def group_norm(x: Tensor, num_groups: int) -> Tensor:
    """Normalize contiguous channel groups within each sample.

    Accepts ``[channels]`` or ``[batch, channels]``; statistics never cross
    the batch axis. Output has zero mean and, for non-degenerate groups, unit
    variance per group. Scale/shift is a separate affine op.
    """
    if x.ndim not in (1, 2):
        raise ShapeMismatchError(f"group_norm: expected 1-D or 2-D input, got {x.shape}")
    channels = x.shape[-1]
    if num_groups < 1 or channels % num_groups != 0:
        raise ShapeMismatchError(
            f"group_norm: {num_groups} groups do not divide {channels} channels"
        )
    saved = _group_norm(x.data, num_groups)
    y = saved[0]

    def grad_fn(g):
        gx = _group_norm_pullback(g.reshape(y.shape), saved)
        return (gx.reshape(x.shape),)

    return _emit("group_norm", (x,), y.reshape(x.shape), grad_fn)


def batch_norm(x: Tensor) -> Tensor:
    """Normalize each channel of a ``[batch, channels]`` input over the whole batch.

    The one primitive whose output for a sample reads the other samples:
    group norm taken down the batch axis, one group per channel (the same
    kernels on the transposed input, variance floor included). Only the
    test-only batch-coupled layer in ``oracles`` runs it.
    """
    if x.ndim != 2:
        raise ShapeMismatchError(f"batch_norm: expected 2-D input, got {x.shape}")
    saved = _group_norm(x.data.T, 1)  # [channels, 1, batch]

    def grad_fn(g):
        gx = _group_norm_pullback(g.T.reshape(saved[0].shape), saved)
        return (np.ascontiguousarray(gx.reshape(x.shape[::-1]).T),)

    return _emit("batch_norm", (x,), np.ascontiguousarray(saved[0].reshape(x.shape[::-1]).T),
                 grad_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeMismatchError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _emit("reshape", (x,), out, grad_fn)


def reduce_mean(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean())
    inv = 1.0 / x.size

    def grad_fn(g):
        return (np.full(x.shape, float(g) * inv),)

    return _emit("reduce_mean", (x,), out, grad_fn)


def binary_cross_entropy(p: Tensor, y: Tensor) -> Tensor:
    """Elementwise BCE of predicted probabilities against 0/1 targets.

    Probabilities are clamped to ``[BCE_PROB_FLOOR, 1 - BCE_PROB_FLOOR]``
    before the logs (documented saturation); the gradient is zero where the
    clamp is active. Targets are constants and receive no gradient.
    """
    _broadcast_check("binary_cross_entropy", p, y)
    out, saved = _bce(p.data, y.data)

    def grad_fn(g):
        return (_reduce_to_shape(g * _bce_pullback(*saved), p.shape), None)

    return _emit("binary_cross_entropy", (p, y), out, grad_fn)


def backward(tape: Tape, output: Tensor) -> tuple[np.ndarray, ...]:
    """Reverse-mode gradient of a scalar output w.r.t. the watched parameters.

    Returns one float64 array per watched parameter, in watch order. Each
    recorded operation is visited exactly once, in reverse order of
    recording, so repeated calls over the same tape are bit-identical.
    Watched parameters unreachable from the output get zero gradients.
    """
    if output.size != 1:
        raise NonScalarLossError(f"backward needs a scalar output, got shape {output.shape}")
    if id(output) not in tape._known_ids:
        raise IncompleteTapeError("output was not produced under this tape")

    grads: dict[int, np.ndarray] = {id(output): np.ones(output.shape)}
    for rec in reversed(tape._records):
        g_out = grads.pop(id(rec.output), None)
        if g_out is None:
            continue
        for inp, g in zip(rec.inputs, rec.grad_fn(g_out)):
            if g is None:
                continue
            key = id(inp)
            acc = grads.get(key)
            grads[key] = g if acc is None else acc + g

    out = []
    for p in tape._watched:
        g = grads.get(id(p))
        out.append(np.zeros(p.shape) if g is None else np.asarray(g, dtype=np.float64))
    return tuple(out)


def fd_gradient(
    loss_fn: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    step: float = 1e-5,
) -> tuple[np.ndarray, ...]:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    ``loss_fn`` must be deterministic and side-effect free; it receives the
    full parameter list with one coordinate perturbed at a time. Exact for
    quadratics up to rounding; at kinks (e.g. |x| at 0) it returns the
    subgradient midpoint, which is a documented limitation of the oracle.
    """
    if step <= 0:
        raise ValueError("fd_gradient step must be positive")
    work = [np.array(p, dtype=np.float64, copy=True) for p in params]
    grads = []
    for arr in work:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(loss_fn(work))
            flat[i] = orig - step
            f_minus = float(loss_fn(work))
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return tuple(grads)
