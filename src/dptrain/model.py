"""Small feedforward binary classifiers with privacy-compatible layers.

Models here are built so the gradient of one sample's loss never depends on
other samples in a batch: dense layers, activations and group normalization
all operate strictly within a sample. A deliberately batch-coupled
normalization layer is included as a negative example; ``validate_model``
flags it and the DP optimizer refuses to step such a model.

Every training and evaluation path runs the layer kernels: one forward
pass, and one backward chain over the whole batch whose per-layer input and
cotangent pairs are written per sample or reduced per batch. The
autodiff tape is only the gradient oracle they are tested against. A
``Model`` owns its parameter layout, and freezing is one boundary in it:
the trainable parameters are always one tail of the flat vector.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .tensor import (
    ShapeMismatchError,
    Tape,
    Tensor,
    _bce,
    _bce_pullback,
    _ensure_finite,
    _group_norm,
    _group_norm_pullback,
    _sigmoid,
    _sigmoid_pullback,
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
    tuple of shaped views over it. Both are made once, in the constructor,
    and last the model's life: updates write new values into the vector, so
    the views always read the current parameters. A caller that wants a
    snapshot copies. A gradient of this model is a flat ``[P]`` vector in
    the same layout; the tape oracle's tuple of per-parameter arrays aligns
    with ``parameters`` index-for-index. The constructor checks that the
    layers name slots ``0, 1, 2, ...`` in layer order with the shapes they
    imply; later slots belong to no layer. Freezing is one boundary: the
    first ``frozen_slots`` slots are frozen.
    """

    def __init__(self, layers, parameters, seed: int | None = None):
        self.layers = tuple(layers)
        arrays = [np.asarray(p, dtype=np.float64) for p in parameters]
        named = [pair for layer in self.layers for pair in _layer_slots(layer)]
        slots = [s for s, _ in named]
        if slots != list(range(len(slots))) or len(slots) > len(arrays):
            raise ValueError(
                f"layer slots {slots} must run 0, 1, 2, ... within {len(arrays)} parameters"
            )
        for s, shape in named:
            if arrays[s].shape != shape:
                raise ShapeMismatchError(f"slot {s} has shape {arrays[s].shape}, not {shape}")
        self._shapes = tuple(a.shape for a in arrays)
        offsets = [0]
        for a in arrays:
            offsets.append(offsets[-1] + a.size)
        self._offsets = tuple(offsets)
        self._layer_end = offsets[len(slots)]  # later slots belong to no layer
        self._frozen = 0
        self.seed = seed
        self.freeze_prefix = 0
        self._vector = np.concatenate([a.reshape(-1) for a in arrays])
        self.parameters: tuple[np.ndarray, ...] = tuple(
            self._vector[offsets[s]:offsets[s + 1]].reshape(shape)
            for s, shape in enumerate(self._shapes)
        )

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
        """Freeze every slot of the layers before the ``(k + 1)``-th dense layer.

        Mirrors fine-tuning depth experiments: ``k = 0`` freezes nothing,
        larger ``k`` leaves only the later layers trainable. The output layer
        can never be frozen. A norm layer freezes with the dense layer before
        it, whatever its kind: a ``batch_norm`` after a frozen dense layer is
        frozen, as a ``group_norm`` is. A norm layer before the first dense
        layer is frozen whenever ``k >= 1``.
        """
        dense = [l for l in self.layers if isinstance(l, DenseLayer)]
        _check_freeze_prefix(k, len(dense))
        self.freeze_prefix = k
        # Slots run 0, 1, 2, ... in layer order: the layers before a dense
        # layer name exactly the slots below its weight slot.
        self._frozen = dense[k].weight_slot if k else 0

    @property
    def frozen_slots(self) -> int:
        """How many leading slots are frozen; every later slot trains."""
        return self._frozen

    @property
    def trainable(self) -> list[bool]:
        """Per slot, whether it trains (a new list on each read)."""
        return [s >= self._frozen for s in range(len(self._shapes))]

    @property
    def trainable_start(self) -> int:
        """Index of the first trainable parameter: the trainable tail is ``[trainable_start:]``."""
        return self._offsets[self._frozen]

    def trainable_spans(self) -> list[tuple[int, int]]:
        """Column ranges of the trainable slots in the flat vector, one per slot, in slot order."""
        offsets = self._offsets
        return list(zip(offsets[self._frozen:-1], offsets[self._frozen + 1:]))

    def forward(self, x, tape: Tape | None = None) -> Tensor:
        """Run a batch through the network, returning logits of shape [B].

        Untraced, the layer kernels compute them. With ``tape`` (already
        entered) the tape primitives build the graph, watching the parameter
        tensors in index order. Those tensors wrap copies of the parameters,
        so a recorded tape keeps its values when the model is updated.
        """
        data = np.asarray(x, dtype=np.float64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.ndim != 2 or data.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"input of shape {np.asarray(x).shape} does not match "
                f"input layer width {self.input_dim}"
            )
        if tape is None:
            return Tensor(_kernel_forward(self, data, []))  # nothing to differentiate
        params = [Tensor(p.copy()) for p in self.parameters]
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
                raise ModelValidationError("batch-coupled normalization cannot be traced")
            else:
                raise TypeError(f"unknown layer {layer!r}")
        return reshape(h, (data.shape[0],))

    @property
    def parameter_vector(self) -> np.ndarray:
        """The flat ``[P]`` parameter vector laid out by ``parameter_offsets``."""
        return self._vector

    def set_parameters(self, new_params) -> None:
        """Write new values of every parameter into the parameter vector.

        The shapes are checked before anything is written; the vector and
        the views in ``parameters`` stay the same objects.
        """
        new_params = [np.asarray(p, dtype=np.float64) for p in new_params]
        if tuple(p.shape for p in new_params) != self.parameter_shapes():
            raise ShapeMismatchError("replacement parameters are not shape-aligned")
        self._vector[:] = np.concatenate([p.reshape(-1) for p in new_params])


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
            bit-identically. Each weight block is drawn straight into its
            view of the flat parameter vector, with the same numbers as
            ``Generator.uniform(-bound, bound)``.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid widths {widths}: need >= 2 positive entries")
    if widths[-1] != 1:
        raise ValueError(f"invalid widths {widths}: final width must be 1")
    num_groups = _norm_groups(norm, widths[1:-1])

    layers: list = []
    params: list[np.ndarray] = []
    for li in range(len(widths) - 1):
        fan_in, fan_out = widths[li], widths[li + 1]
        # A zero-stride placeholder: the weights are drawn below, into the model's vector.
        w = np.broadcast_to(0.0, (fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(DenseLayer(fan_in, fan_out, len(params), len(params) + 1))
        params.extend([w, b])
        is_hidden = li < len(widths) - 2
        if is_hidden:
            if num_groups:
                layers.append(GroupNormLayer(fan_out, num_groups, len(params), len(params) + 1))
                params.extend([np.ones(fan_out), np.zeros(fan_out)])
            layers.append(ActivationLayer("relu"))
    model = Model(layers, params, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for layer in layers:
        if isinstance(layer, DenseLayer):
            # uniform(-bound, bound) is -bound + (2 * bound) * random(), elementwise.
            w = model.parameters[layer.weight_slot]
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            rng.random(out=w)
            w *= 2.0 * bound
            w -= bound
    return model


def _check_freeze_prefix(k: int, dense_layers: int) -> None:
    """Raise ``ValueError`` unless ``0 <= k`` and the last of ``dense_layers`` stays trainable."""
    if not 0 <= k <= dense_layers - 1:
        raise ValueError(f"freeze_prefix {k} out of range for {dense_layers} dense layers")


def _norm_groups(norm: str, hidden_widths) -> int:
    """Groups per norm layer that ``norm`` names (0 for "none"); ``ValueError`` if invalid.

    Every hidden width is normalized, so the group count must divide each one.
    """
    if norm == "none":
        return 0
    if not norm.startswith("group:"):
        raise ValueError(f"unknown norm kind {norm!r}")
    try:
        num_groups = int(norm.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"norm {norm!r} needs an integer group count") from None
    if num_groups < 1:
        raise ValueError(f"norm {norm!r} needs at least one group")
    for w in hidden_widths:
        if w % num_groups != 0:
            raise ValueError(f"norm {norm!r}: {num_groups} groups do not divide width {w}")
    return num_groups


def per_sample_gradient(model: Model, x, y) -> tuple[float, tuple[np.ndarray, ...]]:
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
        probs = sigmoid(model.forward(xa, tape=tape))
        loss = reduce_mean(binary_cross_entropy(probs, Tensor(np.array([yv]))))
        grad = backward(tape, loss)
    return loss.item(), grad


def _layer_slots(layer) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``(slot, shape)`` pairs a layer names, in slot order."""
    if isinstance(layer, DenseLayer):
        w, b = layer.weight_slot, layer.bias_slot
        return ((w, (layer.in_dim, layer.out_dim)), (b, (layer.out_dim,)))
    if isinstance(layer, (GroupNormLayer, BatchCoupledNormLayer)):
        return ((layer.gamma_slot, (layer.channels,)), (layer.beta_slot, (layer.channels,)))
    return ()


def _kernel_forward(model: Model, h: np.ndarray, saved: list) -> np.ndarray:
    """Logits ``[B]`` of rows ``[B, 1, in]`` or ``[B, in]`` through the layer kernels.

    Each layer runs the numpy operations of the tape primitives it stands
    for and appends to ``saved`` what its pullback needs.
    """
    params = model.parameters
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            saved.append(h)
            h = h @ params[layer.weight_slot] + params[layer.bias_slot]
            _ensure_finite(h, "dense")
        elif isinstance(layer, ActivationLayer):
            saved.append(h > 0.0)
            h = np.maximum(h, 0.0)
        elif isinstance(layer, GroupNormLayer):
            norm_saved = _group_norm(h, layer.num_groups)
            normed = norm_saved[0].reshape(h.shape)
            saved.append((normed, *norm_saved))
            h = normed * params[layer.gamma_slot] + params[layer.beta_slot]
            _ensure_finite(h, "group_norm")
        elif isinstance(layer, BatchCoupledNormLayer):
            normed = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + layer.eps)
            h = normed * params[layer.gamma_slot] + params[layer.beta_slot]
        else:
            raise TypeError(f"unknown layer {layer!r}")
    return h.reshape(h.shape[0])


def _binary_labels(ys, size: int) -> np.ndarray:
    """``ys`` as a flat float64 vector of ``size`` labels, each 0 or 1."""
    ya = np.asarray(ys, dtype=np.float64).reshape(-1)
    if ya.shape[0] != size:
        raise ShapeMismatchError(f"{size} samples but {ya.shape[0]} labels")
    bad = (ya != 0.0) & (ya != 1.0)
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {ya[bad][0]!r}")
    return ya


class _LayerPass:
    """One forward pass through the layer kernels and its backward chain, run once.

    Rows are ``[B, in]`` here and the chain is that of the mean loss, as a
    batch tape runs it; ``PerSampleBatch`` keeps a unit row axis instead.
    The chain walks all rows through the pullbacks once (loss, sigmoid,
    ``g @ W.T``, the ReLU mask, group norm) and keeps, for each trainable
    layer from the last, its ``(cols, bias_cols, h, g, shape)``: the
    tail-relative column slices of its weight (or scale) and its bias (or
    shift), its saved input ``h`` (the normalized input for a norm layer),
    its output cotangent ``g`` and its weight shape (``None`` for a norm
    layer). A backward pass then only writes those pairs into the flat
    layout. Frozen parameters get no gradient work and no columns: the chain
    stops at the layer whose first slot is ``Model.frozen_slots``, and
    gradients cover the trainable tail ``[Model.trainable_start:]``, T
    columns, of the model as it was frozen when the pass was built.
    Non-finite forward values raise ``FloatingPointError`` as the tape does.
    """

    _rowwise = False

    def __init__(self, model: Model, xs, ys):
        xa = np.asarray(xs, dtype=np.float64)
        if xa.ndim != 2 or xa.shape[1] != model.input_dim:
            raise ShapeMismatchError(
                f"input of shape {xa.shape} does not match input layer width {model.input_dim}"
            )
        ya = _binary_labels(ys, xa.shape[0])
        if any(layer.mixes_samples for layer in model.layers):
            raise ModelValidationError("batch-coupled normalization cannot be traced")
        if not self._rowwise and xa.shape[0] == 0:
            raise ValueError("batch_gradient needs at least one sample")  # the mean has none

        self.model = model
        self.size = xa.shape[0]
        saved: list = []  # what each layer's pullback needs, for all rows
        probs = _sigmoid(_kernel_forward(model, xa[:, None, :] if self._rowwise else xa, saved))
        self.losses, bce_saved = _bce(probs, ya)

        offsets = model.parameter_offsets()
        frozen = model.frozen_slots
        start = offsets[frozen]  # Model.trainable_start
        self._width = offsets[-1] - start
        self._unnamed = model._layer_end - start  # first tail column no layer names

        def cols(slot):
            return slice(offsets[slot] - start, offsets[slot + 1] - start)

        # The tape's chain (loss, then sigmoid); the fused p - y rounds differently.
        dp = _bce_pullback(*bce_saved)
        if not self._rowwise:
            dp = (1.0 / self.size) * dp  # reduce_mean's pullback comes first
        g = _sigmoid_pullback(dp, probs)
        g = g.reshape((self.size, 1, 1) if self._rowwise else (self.size, 1))
        self._chain: list = []
        for layer, kept in zip(reversed(model.layers), reversed(saved)):
            if isinstance(layer, DenseLayer):
                shape = (layer.in_dim, layer.out_dim)
                self._chain.append((cols(layer.weight_slot), cols(layer.bias_slot), kept, g, shape))
                if layer.weight_slot == frozen:
                    break
                g = g @ model.parameters[layer.weight_slot].T
            elif isinstance(layer, ActivationLayer):
                g = g * kept
            else:
                normed, *norm_saved = kept
                self._chain.append((cols(layer.gamma_slot), cols(layer.beta_slot), normed, g, None))
                if layer.gamma_slot == frozen:
                    break
                gg = (g * model.parameters[layer.gamma_slot]).reshape(norm_saved[0].shape)
                g = _group_norm_pullback(gg, norm_saved).reshape(g.shape)


class PerSampleBatch(_LayerPass):
    """One batched forward pass and backward chain, kept to write per-sample rows in blocks.

    Losses and gradients equal ``per_sample_gradient`` on each sample,
    because every sample runs through the numpy kernels the tape runs:
    stacked matmuls keep a unit row axis (``[B, 1, in] @ [in, out]``) so BLAS
    computes the same one-row product per sample, and the sigmoid, loss and
    group-norm kernels are the tape primitives' own helpers from
    :mod:`dptrain.tensor`. The chain runs once for the whole batch, at
    construction; ``backward`` only writes rows from it, so a block of rows
    costs its outer products and copies alone. Weight gradients are exact
    outer products from one ``np.einsum("bi,bj->bij")`` per layer: each
    entry is one product added to +0.0, as the tape's one-row matmul adds
    it, so weight rows carry the tape's bits, signed zeros included. The
    only difference is the sign of some zero entries in the bias, scale and
    shift rows (copies of the cotangent, where the tape sums over a one-row
    axis from +0.0); the private step's norms and Adam update absorb it, so
    its parameters, moments and outcomes are bit-identical. The tape remains
    the oracle. Rows cover the trainable tail only (see ``backward``);
    ``per_sample_gradients`` widens them to ``[B, P]``.
    """

    _rowwise = True

    def backward(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write the gradients of samples ``lo..hi-1`` into the first rows of ``out``.

        Requires ``0 <= lo <= hi <= size``. ``out`` is a C-contiguous
        float64 ``[>= hi - lo, T]`` matrix over the trainable tail: column j
        holds flat parameter ``Model.trainable_start + j``, and T = P when
        nothing is frozen. Frozen parameters have no columns. Every entry of
        the first ``hi - lo`` rows is set, so ``out`` need not be zeroed:
        slots that no layer names get zeros. Both checks run before any
        write.
        """
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"rows {lo}..{hi} are not a range within the {self.size} samples")
        r = hi - lo
        if (
            out.dtype != np.float64
            or not out.flags.c_contiguous
            or out.shape[1:] != (self._width,)
            or out.shape[0] < r
        ):
            raise ShapeMismatchError(f"need a C-contiguous float64 [>= {r}, {self._width}] matrix")
        rows = out[:r]
        rows[:, self._unnamed:] = 0.0
        for cols, bias_cols, h, g, shape in self._chain:
            g = g[lo:hi, 0]
            if shape is None:
                np.multiply(g, h[lo:hi, 0], out=rows[:, cols])
            else:
                np.einsum("bi,bj->bij", h[lo:hi, 0], g, out=rows[:, cols].reshape(r, *shape))
            rows[:, bias_cols] = g


def per_sample_gradients(model: Model, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses ``[B]`` and gradients ``[B, P]`` of a batch in one pass.

    Row i equals ``per_sample_gradient(model, xs[i], ys[i])`` flattened in
    slot order (see ``PerSampleBatch``), with zero columns for frozen
    parameters. Builds the whole matrix; the private step works through
    ``PerSampleBatch`` in row blocks over the trainable columns instead.
    """
    batch = PerSampleBatch(model, xs, ys)
    start = model.trainable_start
    tail = np.empty((batch.size, model.num_parameters() - start))
    batch.backward(0, batch.size, tail)
    grads = np.zeros((batch.size, model.num_parameters()))
    grads[:, start:] = tail
    return batch.losses, grads


def batch_gradient(model: Model, xs, ys) -> tuple[float, np.ndarray]:
    """Mean loss over a non-empty batch and its gradient, a flat float64 ``[P]`` vector.

    The gradient is laid out like ``Model.parameter_vector``. Loss and
    trainable entries equal a tape over the batch graph bit for bit; frozen
    parameters get zeros. Labels must be 0 or 1, one per sample.
    """
    kernels = _LayerPass(model, xs, ys)
    flat = np.zeros(model.num_parameters())
    tail = flat[model.trainable_start:]
    # Reduced over the batch as its tape reduces: h.T @ g for weights, sums for the rest.
    for cols, bias_cols, h, g, shape in kernels._chain:
        if shape is None:
            tail[cols] = (g * h).sum(axis=0)
        else:
            np.matmul(h.T, g, out=tail[cols].reshape(shape))
        tail[bias_cols] = g.sum(axis=0)
    return float(kernels.losses.mean()), flat


def predict_proba(model: Model, xs) -> np.ndarray:
    return _sigmoid(model.forward(xs).data)


def accuracy(model: Model, xs, ys) -> float:
    """Share of samples whose predicted class matches their label (one 0/1 label per sample)."""
    probs = predict_proba(model, xs)
    labels = _binary_labels(ys, probs.shape[0])
    if probs.shape[0] == 0:
        raise ValueError("accuracy needs at least one sample")
    preds = (probs > 0.5).astype(np.float64)
    return float(np.mean(preds == labels))


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


_LAYER_CLASSES = {
    cls.kind: cls for cls in (DenseLayer, ActivationLayer, GroupNormLayer, BatchCoupledNormLayer)
}


def _layer_from_doc(doc: dict):
    values = dict(doc)
    cls = _LAYER_CLASSES.get(values.pop("kind", None))
    if cls is None:
        raise ValueError(f"unknown layer kind {doc.get('kind')!r} in checkpoint")
    names = {f.name for f in fields(cls)}
    if values.keys() != names:
        raise ValueError(f"{cls.kind} layer fields {sorted(values)} are not {sorted(names)}")
    return cls(**values)


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
        "layers": [{"kind": l.kind, **asdict(l)} for l in model.layers],
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
        for flat, shape in zip(doc["params"], doc["param_shapes"], strict=True)
    ]
    model = Model(layers, params, seed=doc.get("seed"))
    if doc.get("freeze_prefix"):
        model.set_freeze_prefix(int(doc["freeze_prefix"]))
    return model
