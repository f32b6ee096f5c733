"""Small feedforward binary classifiers with privacy-compatible layers.

Models here are built so the gradient of one sample's loss never depends on
other samples in a batch: dense layers, activations and group normalization
all operate strictly within a sample. A deliberately batch-coupled
normalization layer is included as a negative example; ``validate_model``
flags it and the DP optimizer refuses to step such a model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import (
    BCE_PROB_FLOOR,
    GROUP_NORM_VAR_FLOOR,
    GradientSet,
    ShapeMismatchError,
    Tape,
    Tensor,
    _ensure_finite,
    add,
    backward,
    binary_cross_entropy,
    group_norm,
    matmul,
    mul,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
)

__all__ = [
    "DenseLayer",
    "ActivationLayer",
    "GroupNormLayer",
    "BatchCoupledNormLayer",
    "Model",
    "ValidationReport",
    "Violation",
    "ModelValidationError",
    "build_mlp",
    "per_sample_gradient",
    "PerSampleBatch",
    "per_sample_gradients",
    "batch_gradient",
    "predict_proba",
    "accuracy",
    "validate_model",
    "save_checkpoint",
    "load_checkpoint",
]


class ModelValidationError(RuntimeError):
    """A model failed the per-sample isolation validation."""


@dataclass(frozen=True)
class DenseLayer:
    in_dim: int
    out_dim: int
    weight_slot: int
    bias_slot: int

    kind = "dense"
    mixes_samples = False


@dataclass(frozen=True)
class ActivationLayer:
    activation: str  # currently "relu"

    kind = "activation"
    mixes_samples = False


@dataclass(frozen=True)
class GroupNormLayer:
    channels: int
    num_groups: int
    gamma_slot: int
    beta_slot: int

    kind = "group_norm"
    mixes_samples = False


@dataclass(frozen=True)
class BatchCoupledNormLayer:
    """Normalizes each feature using statistics of the whole batch.

    Exists as the canonical example of a layer that breaks per-sample
    gradient isolation: sample i's output reads the mean and variance of
    every other sample. It cannot be traced for gradients and any model
    containing it is rejected by ``validate_model``.
    """

    channels: int
    gamma_slot: int
    beta_slot: int
    eps: float = 1e-5

    kind = "batch_norm"
    mixes_samples = True


class Model:
    """Layer sequence plus its parameter store.

    The parameters live in one flat float64 vector (``parameter_vector``)
    that concatenates them raveled in slot order; ``parameters`` is the
    ordered list of shaped views over it, and every
    :class:`~dptrain.tensor.GradientSet` produced for this model aligns with
    that list index-for-index. ``trainable`` masks parameters frozen by
    ``set_freeze_prefix``. Parameters are replaced, never mutated in place
    (each replacement is a new vector), so tensors handed out during a
    forward pass stay valid; replacements keep the shapes, so the flat
    layout is computed once.
    """

    def __init__(self, layers, parameters, seed: int | None = None):
        self.layers = tuple(layers)
        arrays = [np.asarray(p, dtype=np.float64) for p in parameters]
        self._shapes = tuple(a.shape for a in arrays)
        offsets = [0]
        for a in arrays:
            offsets.append(offsets[-1] + a.size)
        self._offsets = tuple(offsets)
        self.trainable: list[bool] = [True] * len(arrays)
        self.seed = seed
        self.freeze_prefix = 0
        self.set_parameters(arrays)

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                return layer.in_dim
        raise ValueError("model has no dense layer")

    def parameter_shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._shapes

    def num_parameters(self) -> int:
        return self._offsets[-1]

    def parameter_offsets(self) -> tuple[int, ...]:
        """Start of each parameter in the flat parameter vector, then its length.

        The flat vector concatenates the raveled parameters in slot order;
        each row of a per-sample gradient matrix is laid out the same way.
        """
        return self._offsets

    def set_freeze_prefix(self, k: int) -> None:
        """Freeze the first ``k`` dense blocks (dense + attached norm).

        Mirrors fine-tuning depth experiments: ``k = 0`` trains everything,
        larger ``k`` leaves only the later blocks trainable. The output layer
        can never be frozen.
        """
        n_dense = sum(1 for l in self.layers if isinstance(l, DenseLayer))
        if not 0 <= k <= n_dense - 1:
            raise ValueError(f"freeze prefix {k} out of range for {n_dense} dense layers")
        self.freeze_prefix = k
        frozen_slots: set[int] = set()
        seen_dense = 0
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                seen_dense += 1
                if seen_dense <= k:
                    frozen_slots.update((layer.weight_slot, layer.bias_slot))
                    # Norm directly after the dense layer belongs to the block.
                    for later in self.layers[i + 1:]:
                        if isinstance(later, GroupNormLayer):
                            frozen_slots.update((later.gamma_slot, later.beta_slot))
                        if isinstance(later, DenseLayer):
                            break
        self.trainable = [s not in frozen_slots for s in range(len(self.parameters))]

    def forward(self, x, tape: Tape | None = None) -> Tensor:
        """Run a batch through the network, returning logits of shape [B].

        When ``tape`` is given it must already be entered (active); parameter
        tensors are watched on it in index order.
        """
        data = np.asarray(x, dtype=np.float64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.ndim != 2 or data.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"input of shape {np.asarray(x).shape} does not match "
                f"input layer width {self.input_dim}"
            )
        params = [Tensor(p) for p in self.parameters]
        if tape is not None:
            for p in params:
                tape.watch(p)
        h = Tensor(data)
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                h = add(matmul(h, params[layer.weight_slot]), params[layer.bias_slot])
            elif isinstance(layer, ActivationLayer):
                h = relu(h)
            elif isinstance(layer, GroupNormLayer):
                normed = group_norm(h, layer.num_groups)
                h = add(mul(normed, params[layer.gamma_slot]), params[layer.beta_slot])
            elif isinstance(layer, BatchCoupledNormLayer):
                if tape is not None:
                    raise ModelValidationError(
                        "batch-coupled normalization cannot be traced for "
                        "per-sample gradients"
                    )
                mean = h.data.mean(axis=0)
                var = h.data.var(axis=0)
                normed_np = (h.data - mean) / np.sqrt(var + layer.eps)
                gamma = self.parameters[layer.gamma_slot]
                beta = self.parameters[layer.beta_slot]
                h = Tensor(normed_np * gamma + beta)
            else:
                raise TypeError(f"unknown layer {layer!r}")
        return reshape(h, (data.shape[0],))

    @property
    def parameter_vector(self) -> np.ndarray:
        """The flat ``[P]`` parameter vector laid out by ``parameter_offsets``."""
        return self._vector

    def set_parameter_vector(self, vector: np.ndarray) -> None:
        """Replace every parameter with the slices of a new flat ``[P]`` vector.

        A float64 ``vector`` is kept as it is, not copied: callers hand over
        a vector they will not write to again.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self._offsets[-1],):
            raise ShapeMismatchError(
                f"parameter vector of shape {vector.shape} does not match "
                f"{self._offsets[-1]} parameters"
            )
        self._vector = vector
        offsets = self._offsets
        self.parameters: list[np.ndarray] = [
            vector[offsets[s]:offsets[s + 1]].reshape(shape)
            for s, shape in enumerate(self._shapes)
        ]

    def set_parameters(self, new_params) -> None:
        new_params = [np.asarray(p, dtype=np.float64) for p in new_params]
        if tuple(p.shape for p in new_params) != self.parameter_shapes():
            raise ShapeMismatchError("replacement parameters are not shape-aligned")
        self.set_parameter_vector(np.concatenate([p.reshape(-1) for p in new_params]))


def build_mlp(widths, norm: str = "none", seed: int = 0) -> Model:
    """Construct a fully connected binary classifier.

    Args:
        widths: layer widths including input and output; at least two entries
            and the final width must be 1 (a single logit per sample).
        norm: "none", or "group:G" to insert a G-group normalization after
            every hidden dense layer. G must divide each normalized width.
        seed: initialization seed. Dense weights are drawn uniformly from
            +-sqrt(6 / (fan_in + fan_out)); biases start at zero, norm scale
            at one and shift at zero, so the same seed rebuilds the model
            bit-identically.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid widths {widths}: need >= 2 positive entries")
    if widths[-1] != 1:
        raise ValueError(f"invalid widths {widths}: final width must be 1")
    num_groups = 0
    if norm != "none":
        if not norm.startswith("group:"):
            raise ValueError(f"unknown norm kind {norm!r}")
        num_groups = int(norm.split(":", 1)[1])
        if num_groups < 1:
            raise ValueError("group norm needs at least one group")
        for w in widths[1:-1]:
            if w % num_groups != 0:
                raise ValueError(f"num_groups {num_groups} does not divide width {w}")

    rng = np.random.Generator(np.random.PCG64(seed))
    layers: list = []
    params: list[np.ndarray] = []
    for li in range(len(widths) - 1):
        fan_in, fan_out = widths[li], widths[li + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(DenseLayer(fan_in, fan_out, len(params), len(params) + 1))
        params.extend([w, b])
        is_hidden = li < len(widths) - 2
        if is_hidden:
            if num_groups:
                layers.append(GroupNormLayer(fan_out, num_groups, len(params), len(params) + 1))
                params.extend([np.ones(fan_out), np.zeros(fan_out)])
            layers.append(ActivationLayer("relu"))
    return Model(layers, params, seed=seed)


def _loss_graph(model: Model, x: np.ndarray, y: np.ndarray, tape: Tape) -> Tensor:
    logits = model.forward(x, tape=tape)
    probs = sigmoid(logits)
    losses = binary_cross_entropy(probs, Tensor(y))
    return reduce_mean(losses)


def per_sample_gradient(model: Model, x, y) -> tuple[float, GradientSet]:
    """Loss and exact gradient of one sample's BCE loss w.r.t. all parameters.

    ``x`` is a single sample (1-D of input_dim, or shape [1, input_dim]);
    ``y`` must be 0 or 1. Pure: repeated calls return identical values.
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
        loss = _loss_graph(model, xa, np.array([yv]), tape)
        grad = backward(tape, loss)
    return loss.item(), grad


def _layer_slots(layer) -> tuple[int, ...]:
    if isinstance(layer, DenseLayer):
        return (layer.weight_slot, layer.bias_slot)
    if isinstance(layer, GroupNormLayer):
        return (layer.gamma_slot, layer.beta_slot)
    return ()


class PerSampleBatch:
    """One batched forward pass, kept for per-sample backward passes over row blocks.

    Losses and gradients equal ``per_sample_gradient`` on each sample,
    because every sample runs through the numpy kernels the tape runs:
    stacked matmuls keep a unit row axis (``[B, 1, in] @ [in, out]``) so BLAS
    computes the same one-row product per sample, weight gradients are
    exact outer products, and the sigmoid, loss and group-norm expressions
    are the tape primitives' own. The only difference is the sign of some
    zero entries (the tape's one-row matmul adds its product to +0.0); the
    private step's norms and Adam update absorb it, so its parameters,
    moments and outcomes are bit-identical. The tape remains the oracle.

    Frozen parameters (``model.trainable``) get no gradient work, and the
    backward pass stops at the first layer that has a trainable parameter.
    Non-finite forward values raise ``FloatingPointError`` as the tape does.
    """

    def __init__(self, model: Model, xs, ys):
        xa = np.asarray(xs, dtype=np.float64)
        ya = np.asarray(ys, dtype=np.float64).reshape(-1)
        if xa.ndim != 2 or xa.shape[1] != model.input_dim:
            raise ShapeMismatchError(
                f"input of shape {xa.shape} does not match input layer width {model.input_dim}"
            )
        if xa.shape[0] != ya.shape[0]:
            raise ShapeMismatchError(f"{xa.shape[0]} samples but {ya.shape[0]} labels")
        bad = (ya != 0.0) & (ya != 1.0)
        if bad.any():
            raise ValueError(f"label must be 0 or 1, got {ya[bad][0]!r}")

        self.model = model
        self.size = xa.shape[0]
        self._first = next(
            (
                i
                for i, layer in enumerate(model.layers)
                if any(model.trainable[s] for s in _layer_slots(layer))
            ),
            len(model.layers),
        )
        params = model.parameters
        # What each layer's pullback needs, for all rows; sliced per block.
        self._saved: list = []
        h = xa[:, None, :]
        for layer in model.layers:
            if isinstance(layer, DenseLayer):
                self._saved.append(h)
                h = h @ params[layer.weight_slot] + params[layer.bias_slot]
                _ensure_finite(h, "dense")
            elif isinstance(layer, ActivationLayer):
                mask = h > 0.0
                self._saved.append(mask)
                h = np.maximum(h, 0.0)
            elif isinstance(layer, GroupNormLayer):
                m = layer.channels // layer.num_groups
                grouped = h.reshape(-1, layer.num_groups, m)
                mean = grouped.mean(axis=2, keepdims=True)
                centered = grouped - mean
                var = np.mean(centered * centered, axis=2, keepdims=True)
                inv_std = 1.0 / np.sqrt(np.maximum(var, GROUP_NORM_VAR_FLOOR))
                y = centered * inv_std
                normed = y.reshape(h.shape)
                self._saved.append((normed, y, inv_std, var <= GROUP_NORM_VAR_FLOOR))
                h = normed * params[layer.gamma_slot] + params[layer.beta_slot]
                _ensure_finite(h, "group_norm")
            elif isinstance(layer, BatchCoupledNormLayer):
                raise ModelValidationError(
                    "batch-coupled normalization cannot be traced for per-sample gradients"
                )
            else:
                raise TypeError(f"unknown layer {layer!r}")

        z = h.reshape(self.size)
        probs = np.empty_like(z)
        pos = z >= 0
        probs[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        probs[~pos] = ez / (1.0 + ez)
        pc = np.clip(probs, BCE_PROB_FLOOR, 1.0 - BCE_PROB_FLOOR)
        self.losses = -(ya * np.log(pc) + (1.0 - ya) * np.log1p(-pc))
        self._probs, self._clamped_probs, self._labels = probs, pc, ya
        self._unclamped = (probs > BCE_PROB_FLOOR) & (probs < 1.0 - BCE_PROB_FLOOR)

    def backward(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write the gradients of samples ``lo..hi-1`` into the first rows of ``out``.

        ``out`` is a float64 ``[>= hi - lo, P]`` matrix laid out by
        ``Model.parameter_offsets``; columns of frozen parameters are left
        as they are.
        """
        model = self.model
        offsets = model.parameter_offsets()
        trainable = model.trainable
        if out.dtype != np.float64 or not out.flags.c_contiguous or out.shape[1:] != offsets[-1:]:
            raise ShapeMismatchError(f"need a C-contiguous float64 [rows, {offsets[-1]}] matrix")
        rows = out[: hi - lo]
        r = rows.shape[0]

        def block(slot):
            return rows[:, offsets[slot]:offsets[slot + 1]]

        p, pc, yv = self._probs[lo:hi], self._clamped_probs[lo:hi], self._labels[lo:hi]
        # The tape's chain (loss, then sigmoid); the fused p - y rounds differently.
        dp = np.where(self._unclamped[lo:hi], (pc - yv) / (pc * (1.0 - pc)), 0.0)
        g = (dp * p * (1.0 - p)).reshape(r, 1, 1)
        for i in range(len(model.layers) - 1, self._first - 1, -1):
            layer, saved = model.layers[i], self._saved[i]
            needs_input_grad = i > self._first
            if isinstance(layer, DenseLayer):
                if trainable[layer.weight_slot]:
                    h_in = saved[lo:hi].reshape(r, layer.in_dim, 1)
                    np.multiply(
                        h_in, g, out=block(layer.weight_slot).reshape(r, layer.in_dim, layer.out_dim)
                    )
                if trainable[layer.bias_slot]:
                    block(layer.bias_slot)[...] = g[:, 0, :]
                if needs_input_grad:
                    g = g @ model.parameters[layer.weight_slot].T
            elif isinstance(layer, ActivationLayer):
                g = g * saved[lo:hi]
            else:
                normed, y, inv_std, floored = (a[lo:hi] for a in saved)
                if trainable[layer.gamma_slot]:
                    np.multiply(g[:, 0, :], normed[:, 0, :], out=block(layer.gamma_slot))
                if trainable[layer.beta_slot]:
                    block(layer.beta_slot)[...] = g[:, 0, :]
                if needs_input_grad:
                    gg = (g * model.parameters[layer.gamma_slot]).reshape(y.shape)
                    g_mean = gg.mean(axis=2, keepdims=True)
                    proj = np.where(floored, 0.0, np.mean(gg * y, axis=2, keepdims=True))
                    g = (inv_std * (gg - g_mean - y * proj)).reshape(r, 1, layer.channels)


def per_sample_gradients(model: Model, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses ``[B]`` and gradients ``[B, P]`` of a batch in one pass.

    Row i equals ``per_sample_gradient(model, xs[i], ys[i])`` flattened in
    slot order (see ``PerSampleBatch``), with zero columns for frozen
    parameters. Builds the whole matrix; the private step works through
    ``PerSampleBatch`` in row blocks instead.
    """
    batch = PerSampleBatch(model, xs, ys)
    grads = np.zeros((batch.size, model.num_parameters()))
    batch.backward(0, batch.size, grads)
    return batch.losses, grads


def batch_gradient(model: Model, xs, ys) -> tuple[float, GradientSet]:
    """Mean loss over a batch and its gradient (the full-batch gradient)."""
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64).reshape(-1)
    with Tape() as tape:
        loss = _loss_graph(model, xa, ya, tape)
        grad = backward(tape, loss)
    return loss.item(), grad


def predict_proba(model: Model, xs) -> np.ndarray:
    logits = model.forward(xs)
    return sigmoid(logits).data


def accuracy(model: Model, xs, ys) -> float:
    probs = predict_proba(model, xs)
    preds = (probs > 0.5).astype(np.float64)
    return float(np.mean(preds == np.asarray(ys, dtype=np.float64).reshape(-1)))


@dataclass(frozen=True)
class Violation:
    layer_index: int
    layer_kind: str
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: Model) -> ValidationReport:
    """Flag layers whose forward pass mixes information across samples.

    An empty report means per-sample gradient isolation holds by
    construction: every layer computes sample i's output from sample i
    alone, so per-sample gradients are exact.
    """
    violations = []
    for i, layer in enumerate(model.layers):
        if layer.mixes_samples:
            violations.append(
                Violation(
                    layer_index=i,
                    layer_kind=layer.kind,
                    reason=(
                        f"layer {i} ({layer.kind}) normalizes sample i with "
                        "statistics of other samples in the batch"
                    ),
                )
            )
    return ValidationReport(tuple(violations))


_CHECKPOINT_FORMAT = "dptrain-model"
_CHECKPOINT_VERSION = 1


def _layer_to_doc(layer) -> dict:
    if isinstance(layer, DenseLayer):
        return {
            "kind": "dense",
            "in_dim": layer.in_dim,
            "out_dim": layer.out_dim,
            "weight_slot": layer.weight_slot,
            "bias_slot": layer.bias_slot,
        }
    if isinstance(layer, ActivationLayer):
        return {"kind": "activation", "activation": layer.activation}
    if isinstance(layer, GroupNormLayer):
        return {
            "kind": "group_norm",
            "channels": layer.channels,
            "num_groups": layer.num_groups,
            "gamma_slot": layer.gamma_slot,
            "beta_slot": layer.beta_slot,
        }
    if isinstance(layer, BatchCoupledNormLayer):
        return {
            "kind": "batch_norm",
            "channels": layer.channels,
            "gamma_slot": layer.gamma_slot,
            "beta_slot": layer.beta_slot,
            "eps": layer.eps,
        }
    raise TypeError(f"cannot serialize layer {layer!r}")


def _layer_from_doc(doc: dict):
    kind = doc["kind"]
    if kind == "dense":
        return DenseLayer(doc["in_dim"], doc["out_dim"], doc["weight_slot"], doc["bias_slot"])
    if kind == "activation":
        return ActivationLayer(doc["activation"])
    if kind == "group_norm":
        return GroupNormLayer(
            doc["channels"], doc["num_groups"], doc["gamma_slot"], doc["beta_slot"]
        )
    if kind == "batch_norm":
        return BatchCoupledNormLayer(
            doc["channels"], doc["gamma_slot"], doc["beta_slot"], doc["eps"]
        )
    raise ValueError(f"unknown layer kind {kind!r} in checkpoint")


def save_checkpoint(model: Model, path) -> None:
    """Write a JSON checkpoint that round-trips parameters bit-exactly.

    Python's float repr is shortest-round-trip, so dumping raw float64
    values through json preserves them exactly.
    """
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "seed": model.seed,
        "freeze_prefix": model.freeze_prefix,
        "layers": [_layer_to_doc(l) for l in model.layers],
        "param_shapes": [list(p.shape) for p in model.parameters],
        "params": [p.reshape(-1).tolist() for p in model.parameters],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> Model:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a model checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    layers = [_layer_from_doc(d) for d in doc["layers"]]
    params = [
        np.array(flat, dtype=np.float64).reshape(shape)
        for flat, shape in zip(doc["params"], doc["param_shapes"])
    ]
    model = Model(layers, params, seed=doc.get("seed"))
    if doc.get("freeze_prefix"):
        model.set_freeze_prefix(int(doc["freeze_prefix"]))
    return model
