"""Small feedforward binary classifiers with privacy-compatible layers.

Models here are built so the gradient of one sample's loss never depends on
other samples in a batch. The layer set is closed: ``Model`` admits only
dense layers, activations and group normalization, and each computes sample
i's output from sample i alone. A layer that mixes samples, such as batch
normalization, cannot be built into a model or loaded from a checkpoint, so
per-sample isolation holds by construction and no pass checks for it.

Every training and evaluation path runs the layer kernels: one forward
pass, and one backward chain over the whole batch whose per-layer input and
cotangent pairs are written per sample or reduced per batch. The test
suite checks them against an autodiff oracle and finite differences; the
numpy kernels they share with that oracle (sigmoid, loss, group norm and
their pullbacks) live here. A ``Model`` owns its parameter layout, and
freezing is one boundary in it, fixed when the model is built: the
trainable parameters are always one tail of the flat vector.

Each model derives its layer plan once, when it is built, from its fixed
layers and freeze boundary: each layer's forward kernel with the views of
the parameter vector it reads, the backward chain down to the boundary
(each trainable layer's ``[T]`` columns, weight shape and pullback view),
the clipped sum's column split and row-block size (from ``ROW_BLOCK_BYTES``
as it stands then). Every pass reads the plan instead of dispatching on
the layers again.

``PerSampleBatch.clipped_sum`` is the private step's one exact operation:
the sum, in sample order, of the per-sample gradients each clipped to R.
Its rows cover the trainable tail of the flat parameter vector, ``[B, T]``
for B samples and T trainable of P parameters; frozen columns are never
allocated, written, divided or summed. The backward chain (every
pullback, down to each trainable layer's input and output cotangent) runs
once for the whole batch. A wide weight span (see ``ROW_BLOCK_BYTES``) is
then written, normed, clipped and added one sample at a time in one reused
``[in, out]`` buffer; the other spans' rows are packed side by side,
written, clipped (``mechanisms.clip_rows``'s norms and divides) and summed
``ROW_BLOCK_BYTES`` at a time in another. So the step's memory is bounded
whatever the batch size, and no ``[B, in * out]`` weight block is built.
The kernels keep each element's IEEE operations, so the sum and norms are
those of a full-width row loop bit for bit, and spend few numpy calls on
them: one einsum per weight block, one BLAS dot per row and span for the
norms, and a divide only for the rows that clip.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .mechanisms import ClipSpec, clip_rows

__all__ = [
    "DenseLayer",
    "ActivationLayer",
    "GroupNormLayer",
    "Model",
    "ShapeMismatchError",
    "BCE_PROB_FLOOR",
    "GROUP_NORM_VAR_FLOOR",
    "build_mlp",
    "PerSampleBatch",
    "batch_gradient",
    "predict_proba",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

# Predicted probabilities are clamped to [floor, 1 - floor] before the logs in
# the loss so saturated sigmoids cannot produce infinities.
BCE_PROB_FLOOR = 1e-12

# Group norm divides by sqrt(max(var, floor)): the normalized output has unit
# variance whenever the group is not degenerate, and stays bounded otherwise.
GROUP_NORM_VAR_FLOOR = 1e-5

# The clipped sum's memory and cache bound. A trainable weight span is wide
# when its one-sample [in, out] block is larger than ROW_BLOCK_BYTES // 8
# (256 KB): it is written, clipped and added to the [T] sum one sample at a
# time, so that block and its columns of the sum stay in the 2 MB L2 cache
# per core of the x86-64 host this was measured on. The rows of every other
# span (the narrow ones, packed side by side) are written, clipped and summed
# in blocks of at most ROW_BLOCK_BYTES (one row when a row is larger): the
# whole batch for small models and for dp-wide's 1,025 narrow columns (blocks
# of all 66,561 columns, 3 rows or 1.6 MB, plus the 0.53 MB sum did not fit in
# L2). On that host (one BLAS thread, one pinned CPU, [20, n, n, 1] models at
# freeze 1, B = 8, 32 and 116) the one-sample layout's clipped sum against
# the block one took 14-63% longer for weights of 32-63 KB, -1% to +17% at
# 128 KB, -9% to +7% at 153 KB, 3-14% less at 200 KB, 4-9% less just under
# 256 KB and 12-16% less at dp-wide's 512 KB; the cut-off keeps every B on
# the winning side. A model reads it once, when it is built.
ROW_BLOCK_BYTES = 2 << 20


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform to the operation being applied."""


@dataclass(frozen=True)
class DenseLayer:
    in_dim: int
    out_dim: int
    weight_slot: int
    bias_slot: int

    kind = "dense"


@dataclass(frozen=True)
class ActivationLayer:
    activation: str  # "relu", the one kernel

    kind = "activation"

    def __post_init__(self):
        if self.activation != "relu":
            raise ValueError(f"unknown activation {self.activation!r}; only 'relu' runs")


@dataclass(frozen=True)
class GroupNormLayer:
    channels: int
    num_groups: int
    gamma_slot: int
    beta_slot: int

    kind = "group_norm"


class Model:
    """Layer sequence plus its parameter store.

    The parameters live in one flat float64 vector (``parameter_vector``)
    that concatenates them raveled in slot order; ``parameters`` is the
    tuple of shaped views over it. Both are made once, in the constructor,
    and last the model's life: updates write new values into the vector, so
    the views always read the current parameters. A caller that wants a
    snapshot copies. The constructor checks that the layers name every
    slot, ``0, 1, 2, ...`` in layer order, with the shapes they imply.

    ``freeze_prefix = k`` freezes the layers before the ``(k + 1)``-th
    dense layer for the model's life (the output layer never freezes; a
    norm layer freezes with the dense layer before it, whatever its kind,
    and one before the first dense layer whenever ``k >= 1``). So the first
    ``frozen_slots`` slots are frozen, and a gradient is a flat ``[T]``
    vector over the trainable tail ``parameter_vector[trainable_start:]``.

    ``layers`` and ``parameters`` are read-only: the layout, the boundary
    and the layer plan (see the module docstring) are derived from them in
    the constructor, which refuses with ``TypeError`` any layer that is not
    one of the three layer classes (so no model holds a layer that mixes
    samples).
    """

    def __init__(self, layers, parameters, seed: int | None = None, freeze_prefix: int = 0):
        self._layers = tuple(layers)
        arrays = [np.asarray(p, dtype=np.float64) for p in parameters]
        named = [pair for layer in self._layers for pair in _layer_slots(layer)]
        slots = [s for s, _ in named]
        if slots != list(range(len(arrays))):
            raise ValueError(
                f"layer slots {slots} must run 0, 1, 2, ... over all {len(arrays)} parameters"
            )
        for s, shape in named:
            if arrays[s].shape != shape:
                raise ShapeMismatchError(f"slot {s} has shape {arrays[s].shape}, not {shape}")
        dense = [l for l in self._layers if isinstance(l, DenseLayer)]
        _check_freeze_prefix(freeze_prefix, len(dense))
        self._input_dim = dense[0].in_dim
        self._shapes = tuple(a.shape for a in arrays)
        offsets = [0]
        for a in arrays:
            offsets.append(offsets[-1] + a.size)
        self._offsets = tuple(offsets)
        self.seed = seed
        self._freeze_prefix = freeze_prefix
        # Slots run 0, 1, 2, ... in layer order: the layers before a dense
        # layer name exactly the slots below its weight slot.
        self._frozen = dense[freeze_prefix].weight_slot if freeze_prefix else 0
        tail = offsets[self._frozen:]
        spans = tuple((lo - tail[0], hi - tail[0]) for lo, hi in zip(tail, tail[1:]))
        self._vector = np.concatenate([a.reshape(-1) for a in arrays])
        self._parameters = tuple(
            self._vector[offsets[s]:offsets[s + 1]].reshape(shape)
            for s, shape in enumerate(self._shapes)
        )
        self._plan = _LayerPlan(self._layers, self._parameters, spans, self._frozen)

    @property
    def layers(self) -> tuple:
        """The layer sequence, fixed when the model is built (its plan is derived from it)."""
        return self._layers

    @property
    def parameters(self) -> tuple[np.ndarray, ...]:
        """Shaped views of ``parameter_vector``, one per slot, made when the model is built."""
        return self._parameters

    @property
    def input_dim(self) -> int:
        """The first dense layer's input width; the constructor refuses a model without one."""
        return self._input_dim

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

    @property
    def freeze_prefix(self) -> int:
        """How many leading dense layers, with their norm layers, are frozen."""
        return self._freeze_prefix

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
        """Column ranges of the trainable slots in a ``[T]`` gradient (from 0), in slot order."""
        return list(self._plan.spans)

    def forward(self, x) -> np.ndarray:
        """Logits of a batch through the layer kernels, a float64 ``[B]`` vector.

        ``x`` is one sample (1-D) or a ``[B, input_dim]`` batch. Non-finite
        values raise ``FloatingPointError``.
        """
        data = np.asarray(x, dtype=np.float64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        return _kernel_forward(self, _input_rows(self, data), None)  # nothing to differentiate

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


def build_mlp(widths, norm: str = "none", seed: int = 0, freeze_prefix: int = 0) -> Model:
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
        freeze_prefix: how many leading dense layers (with their norm
            layers) stay frozen; see ``Model``.
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
    model = Model(layers, params, seed=seed, freeze_prefix=freeze_prefix)
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


def _layer_slots(layer) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``(slot, shape)`` pairs a layer names, in slot order; ``TypeError`` for a non-layer."""
    if isinstance(layer, DenseLayer):
        w, b = layer.weight_slot, layer.bias_slot
        return ((w, (layer.in_dim, layer.out_dim)), (b, (layer.out_dim,)))
    if isinstance(layer, GroupNormLayer):
        return ((layer.gamma_slot, (layer.channels,)), (layer.beta_slot, (layer.channels,)))
    if isinstance(layer, ActivationLayer):
        return ()
    raise TypeError(f"unknown layer {layer!r}")  # no kernel runs it


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    # One reduction on the fast path: any NaN/Inf propagates into the sum.
    # A finite array can only sum to non-finite via overflow, so the precise
    # elementwise check runs just on that rare slow path.
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only of non-positive arguments, so neither tail overflows: -|z| is
    # exactly -z where z >= 0 and z elsewhere. One divide serves both
    # branches: the numerator is 1.0 where z >= 0 and e elsewhere.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0, e) / d


def _sigmoid_pullback(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def _group_norm(x: np.ndarray, num_groups: int):
    """``(y, inv_std, floored)``: ``x`` normalized per group as ``[rows, groups, m]``.

    Each mean is ``np.mean``'s own sum and divide: ``np.add.reduce`` over
    the group, then a divide by its width m.
    """
    width = x.shape[-1] // num_groups
    grouped = x.reshape(-1, num_groups, width)
    mean = np.add.reduce(grouped, axis=2, keepdims=True) / width
    centered = grouped - mean
    var = np.add.reduce(centered * centered, axis=2, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(np.maximum(var, GROUP_NORM_VAR_FLOOR))
    return centered * inv_std, inv_std, var <= GROUP_NORM_VAR_FLOOR


def _group_norm_pullback(gg: np.ndarray, saved) -> np.ndarray:
    """Input cotangent from the ``[rows, groups, m]`` output cotangent ``gg``."""
    y, inv_std, floored = saved
    width = gg.shape[2]  # the means are np.mean's sum and divide, as in _group_norm
    g_mean = np.add.reduce(gg, axis=2, keepdims=True) / width
    # When the variance floor is active inv_std is constant w.r.t. x and
    # the projection onto y drops out of the pullback.
    proj = np.where(floored, 0.0, np.add.reduce(gg * y, axis=2, keepdims=True) / width)
    return inv_std * (gg - g_mean - y * proj)


def _bce(p: np.ndarray, y: np.ndarray):
    """``(loss, (clamped p, y, unclamped mask))``: elementwise BCE and what the pullback needs.

    Every label must be 0 or 1 (``-0.0`` counts as 0); each caller checks
    that with ``_binary_labels`` first. The loss then selects one log per
    sample, and that has the bits of ``-(y log pc + (1 - y) log1p(-pc))``:
    the clamp keeps both logs finite and below zero, so the unselected
    product is a signed zero and adding it leaves the other term unchanged.
    """
    pc = np.minimum(np.maximum(p, BCE_PROB_FLOOR), 1.0 - BCE_PROB_FLOOR)
    loss = np.where(y == 1.0, np.log(pc), np.log1p(-pc))
    np.negative(loss, out=loss)
    unclamped = (p > BCE_PROB_FLOOR) & (p < 1.0 - BCE_PROB_FLOOR)
    return loss, (pc, y, unclamped)


def _bce_pullback(pc: np.ndarray, y: np.ndarray, unclamped: np.ndarray) -> np.ndarray:
    """d loss / d p, zero where the clamp is active."""
    return np.where(unclamped, (pc - y) / (pc * (1.0 - pc)), 0.0)


def _dense_kernel(h: np.ndarray, saved: list | None, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if saved is not None:
        saved.append(h)
    h = h @ w
    h += b
    _ensure_finite(h, "dense")
    return h


def _relu_kernel(h: np.ndarray, saved: list | None) -> np.ndarray:
    if saved is not None:
        saved.append(h > 0.0)
    return np.maximum(h, 0.0)


def _group_norm_kernel(h: np.ndarray, saved: list | None, num_groups: int,
                       gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    norm_saved = _group_norm(h, num_groups)
    normed = norm_saved[0].reshape(h.shape)
    if saved is not None:
        saved.append((normed, *norm_saved))
    h = normed * gamma
    h += beta
    _ensure_finite(h, "group_norm")
    return h


def _forward_step(layer, params) -> tuple:
    """``(kernel, args)``: the kernel that runs ``layer`` and the parameter views it reads."""
    if isinstance(layer, DenseLayer):
        return _dense_kernel, (params[layer.weight_slot], params[layer.bias_slot])
    if isinstance(layer, GroupNormLayer):
        return _group_norm_kernel, (layer.num_groups, params[layer.gamma_slot],
                                    params[layer.beta_slot])
    # An ActivationLayer, the one class left: ``Model`` refuses any other object.
    return _relu_kernel, ()


class _LayerPlan:
    """What a model's passes read, derived once from its fixed layers and freeze boundary.

    ``forward`` holds each layer's ``(kernel, args)``; ``kernel(h, saved,
    *args)`` runs the layer, and ``args`` are the parameter views of the
    one parameter vector it reads, never copies, so every pass reads the
    current parameters. ``chain`` is the backward chain from the last layer
    down to the freeze boundary: ``None`` for a ReLU mask, and for each
    trainable layer its ``(cols, bias_cols, shape, pull, stop)``: the
    ``[T]`` columns of its weight (or scale) and bias (or shift), its weight
    shape (``None`` for a norm layer), the view its pullback multiplies by
    (``W.T``, or the scale) and whether the chain stops there. ``spans`` are
    ``Model.trainable_spans`` and ``width`` is T.

    The rest is ``PerSampleBatch.clipped_sum``'s column split, fixed from
    ``ROW_BLOCK_BYTES`` when the plan is made. ``wide`` holds, in slot
    order, the ``(index, cols, shape)`` of each weight span whose one-sample
    ``[in, out]`` block is larger than ``ROW_BLOCK_BYTES // 8`` bytes,
    ``index`` being its entry among the chain's trainable layers. The other
    spans are packed side by side in ``narrow`` columns: ``writes`` gives
    each trainable layer's packed ``(cols, bias_cols)``, ``None`` for a wide
    weight; ``slots`` gives, in slot order, each span's packed columns or
    ``None``; ``moves`` pairs each narrow span's ``[T]`` columns with its
    packed ones, and is empty when nothing is wide (packing is then the
    identity). ``rows_cap`` is how many packed rows fit ``ROW_BLOCK_BYTES``,
    at least one.
    """

    __slots__ = ("forward", "chain", "spans", "width",
                 "wide", "narrow", "writes", "slots", "moves", "rows_cap")

    def __init__(self, layers: tuple, params: tuple, spans: tuple, frozen: int):
        self.forward = tuple(_forward_step(layer, params) for layer in layers)
        self.spans = spans
        self.width = spans[-1][1]
        chain: list = []
        for layer in reversed(layers):
            if isinstance(layer, ActivationLayer):
                chain.append(None)
                continue
            if isinstance(layer, DenseLayer):
                first, last = layer.weight_slot, layer.bias_slot
                shape, pull = (layer.in_dim, layer.out_dim), params[first].T
            else:  # a GroupNormLayer, the one class left
                first, last = layer.gamma_slot, layer.beta_slot
                shape, pull = None, params[first]
            cols, bias_cols = slice(*spans[first - frozen]), slice(*spans[last - frozen])
            stop = first == frozen
            chain.append((cols, bias_cols, shape, pull, stop))
            if stop:
                break
        self.chain = tuple(chain)

        trainable = [step for step in self.chain if step is not None]
        limit = ROW_BLOCK_BYTES // 8
        self.wide = tuple((i, cols, shape) for i, (cols, _, shape, _, _) in enumerate(trainable)
                          if shape is not None and 8 * shape[0] * shape[1] > limit)[::-1]
        starts = {cols.start for _, cols, _ in self.wide}
        packed, slots, moves = {}, [], []
        narrow = 0
        for lo, hi in spans:
            if lo in starts:
                slots.append(None)
                continue
            packed[lo] = slice(narrow, narrow + hi - lo)
            slots.append((narrow, narrow + hi - lo))
            moves.append((slice(lo, hi), packed[lo]))
            narrow += hi - lo
        self.narrow = narrow
        self.writes = tuple((None if cols.start in starts else packed[cols.start],
                             packed[bias_cols.start]) for cols, bias_cols, *_ in trainable)
        self.slots = tuple(slots)
        self.moves = tuple(moves) if self.wide else ()
        self.rows_cap = max(1, ROW_BLOCK_BYTES // (8 * narrow))


def _kernel_forward(model: Model, h: np.ndarray, saved: list | None) -> np.ndarray:
    """Logits ``[B]`` of rows ``[B, 1, in]`` or ``[B, in]`` through the layer kernels.

    Each layer runs the numpy operations of the autodiff primitives it
    stands for and appends to ``saved`` what its pullback needs; with
    ``saved=None`` nothing is kept, so each layer's input is freed once
    the next layer has read it.
    """
    for kernel, args in model._plan.forward:
        h = kernel(h, saved, *args)
    return h.reshape(h.shape[0])


def _input_rows(model: Model, xs) -> np.ndarray:
    """``xs`` as a float64 ``[B, input_dim]`` batch; ``ShapeMismatchError`` for any other shape."""
    xa = np.asarray(xs, dtype=np.float64)
    if xa.ndim != 2 or xa.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"input of shape {xa.shape} does not match input layer width {model.input_dim}"
        )
    return xa


def _binary_labels(ys, size: int) -> np.ndarray:
    """``ys`` as a flat float64 vector of ``size`` labels, each 0 or 1."""
    ya = np.asarray(ys, dtype=np.float64).reshape(-1)
    if ya.shape[0] != size:
        raise ShapeMismatchError(f"{size} samples but {ya.shape[0]} labels")
    # Every nonzero label is a 1.0 (NaN is nonzero, -0.0 is not) exactly when
    # the counts agree; the mask is built only to name the first bad label.
    if np.count_nonzero(ya) != np.count_nonzero(ya == 1.0):
        bad = (ya != 0.0) & (ya != 1.0)
        raise ValueError(f"label must be 0 or 1, got {float(ya[bad][0])!r}")
    return ya


class _LayerPass:
    """One forward pass through the layer kernels and its backward chain, run once.

    Rows are ``[B, in]`` here and the chain is that of the mean loss, as
    reverse-mode autodiff over the batch graph runs it; ``PerSampleBatch``
    keeps a unit row axis instead. The chain walks all rows through the
    pullbacks once (loss, sigmoid, ``g @ W.T``, the ReLU mask, group norm),
    as the model plan's ``chain`` lays them out, and keeps, for each
    trainable layer from the last, its
    ``(cols, bias_cols, h, g, shape)``: the ``Model.trainable_spans`` of
    its weight (or scale) and its bias (or shift), its saved input ``h``
    (the normalized input for a norm layer), its output cotangent ``g`` and
    its weight shape (``None`` for a norm layer). A backward pass then only
    writes those pairs into ``[T]`` gradients over the model's trainable
    tail. Frozen parameters get no gradient work and no columns: the chain
    stops at the layer whose first slot is ``Model.frozen_slots``. Every
    layer a ``Model`` admits reads each sample alone, so a sample's gradient
    reads no other sample and no pass checks for one. Non-finite forward
    values raise ``FloatingPointError``.
    """

    _rowwise = False

    def __init__(self, model: Model, xs, ys):
        xa = _input_rows(model, xs)
        ya = _binary_labels(ys, xa.shape[0])
        if not self._rowwise and xa.shape[0] == 0:
            raise ValueError("batch_gradient needs at least one sample")  # the mean has none
        self._run(model, xa, ya)

    @classmethod
    def _checked(cls, model: Model, xa: np.ndarray, ya: np.ndarray):
        """The pass over rows and labels that already meet every check ``__init__`` makes.

        ``xa`` is a float64 ``[B, input_dim]`` matrix and ``ya`` a flat
        float64 vector of B labels, each 0 or 1; nothing here checks them
        again.
        """
        self = cls.__new__(cls)
        self._run(model, xa, ya)
        return self

    def _run(self, model: Model, xa: np.ndarray, ya: np.ndarray) -> None:
        self.model = model
        self.size = xa.shape[0]
        saved: list = []  # what each layer's pullback needs, for all rows
        probs = _sigmoid(_kernel_forward(model, xa[:, None, :] if self._rowwise else xa, saved))
        self.losses, bce_saved = _bce(probs, ya)

        plan = model._plan
        self._width = plan.width  # T
        # The autodiff chain (loss, then sigmoid); the fused p - y rounds differently.
        dp = _bce_pullback(*bce_saved)
        if not self._rowwise:
            dp = (1.0 / self.size) * dp  # reduce_mean's pullback comes first
        g = _sigmoid_pullback(dp, probs)
        g = g.reshape((self.size, 1, 1) if self._rowwise else (self.size, 1))
        self._chain: list = []
        for step, kept in zip(plan.chain, reversed(saved)):
            if step is None:  # a ReLU's mask
                g = g * kept
                continue
            cols, bias_cols, shape, pull, stop = step
            if shape is None:
                normed, *norm_saved = kept
                self._chain.append((cols, bias_cols, normed, g, None))
                if stop:
                    break
                gg = (g * pull).reshape(norm_saved[0].shape)
                g = _group_norm_pullback(gg, norm_saved).reshape(g.shape)
            else:
                self._chain.append((cols, bias_cols, kept, g, shape))
                if stop:
                    break
                g = g @ pull


class PerSampleBatch(_LayerPass):
    """One batched forward pass and backward chain, kept to write per-sample rows in blocks.

    Losses and gradients equal those of reverse-mode autodiff over each
    sample's own one-row graph, because every sample runs through the same
    numpy operations: stacked matmuls keep a unit row axis
    (``[B, 1, in] @ [in, out]``) so BLAS computes the same one-row product
    per sample, and the sigmoid, loss and group-norm kernels here are the
    ones the autodiff oracle's primitives call. The chain runs once for the whole batch, at
    construction; ``clipped_sum`` only writes rows from it, so a block of rows
    costs its outer products and copies alone. Weight gradients are exact
    outer products from one ``np.einsum("bi,bj->bij")`` per layer: each
    entry is one product added to +0.0, as a one-row matmul adds it, so
    weight rows carry the one-row graph's bits, signed zeros included. The
    only difference is the sign of some zero entries in the bias, scale and
    shift rows (copies of the cotangent, where the graph sums over a one-row
    axis from +0.0); the private step's norms and Adam update absorb it, so
    its parameters, moments and outcomes are bit-identical. Rows cover the
    trainable tail only.
    """

    _rowwise = True

    def clipped_sum(self, clip: ClipSpec) -> tuple[np.ndarray, np.ndarray]:
        """Sum of the clipped per-sample gradient rows in sample order, and the pre-clip norms.

        The sum is a ``[T]`` vector over the trainable tail
        ``[Model.trainable_start:]``, the norms a ``[B]`` vector; an empty
        batch sums to zeros. Every column's sum starts at +0.0 and adds the
        clipped rows one after another, as ``np.add.reduce`` does, so a
        column where every row holds -0.0 sums to +0.0.

        The columns are split as the model plan fixed them (see
        ``ROW_BLOCK_BYTES``). The narrow spans, packed side by side, are
        written ``rows_cap`` rows at a time into one reused buffer that is
        never zeroed (``_write_rows`` sets every entry), normed, clipped and
        reduced: ``np.add.reduce`` over axis 0 of a C-contiguous matrix with
        two or more columns adds the rows one after another, so the first
        block's reduce and ``+= row`` for every later row (for every row
        when one column is narrow) are a row loop's additions. Each wide
        span goes one sample at a time through its own reused ``[in, out]``
        buffer: its outer product, its dot, a divide if the sample clips,
        then an add into its columns of the sum. A sample's norm adds its
        span dots in slot order, the narrow ones from the block, so norms
        and divides are ``mechanisms.clip_rows``'s; with no wide span,
        ``clip_rows`` clips the block itself.
        """
        plan = self.model._plan
        cap = plan.rows_cap
        rows = np.empty((min(self.size, cap), plan.narrow))
        norms = np.empty(self.size)
        total = np.zeros(self._width)  # the sum of no rows
        narrow = np.zeros(plan.narrow) if plan.moves else total  # nothing wide: no packing
        wide = [(*self._chain[i][2:4], np.empty((1, *shape)), total[cols])
                for i, cols, shape in plan.wide]
        for lo in range(0, self.size, cap):
            hi = min(lo + cap, self.size)
            block = rows[:hi - lo]
            self._write_rows(lo, hi, block, plan.writes)
            if wide:
                norms[lo:hi] = _clip_one_by_one(lo, block, plan.slots, wide, clip)
            else:
                norms[lo:hi] = clip_rows(block, plan.slots, clip)
            if lo == 0 and plan.narrow > 1:  # one column would be summed pairwise
                np.add.reduce(block, axis=0, out=narrow)
            else:
                for row in block:
                    narrow += row
        for dst, src in plan.moves:
            total[dst] = narrow[src]
        return total, norms

    def _write_rows(self, lo: int, hi: int, rows: np.ndarray, writes=None) -> None:
        """Write the gradients of samples ``lo..hi-1`` into ``rows``, unchecked.

        ``rows`` is a C-contiguous float64 ``[hi - lo, T]`` matrix over the
        trainable tail: column j holds flat parameter
        ``Model.trainable_start + j``, and T = P when nothing is frozen.
        Every entry is set, so ``rows`` need not be zeroed. ``clipped_sum``
        passes the plan's ``writes`` (each trainable layer's ``(cols,
        bias_cols)``) for the chain's own: ``rows`` is then its packed
        narrow block, and a wide weight (``cols`` is ``None``) is left out.
        """
        if writes is None:
            writes = [step[:2] for step in self._chain]
        r = hi - lo
        for (cols, bias_cols), (_, _, h, g, shape) in zip(writes, self._chain):
            g = g[lo:hi, 0]
            if cols is None:
                pass  # a wide weight, written one sample at a time
            elif shape is None:
                np.multiply(g, h[lo:hi, 0], out=rows[:, cols])
            else:
                np.einsum("bi,bj->bij", h[lo:hi, 0], g, out=rows[:, cols].reshape(r, *shape))
            rows[:, bias_cols] = g


def _clip_one_by_one(lo: int, block: np.ndarray, slots, wide, clip: ClipSpec) -> np.ndarray:
    """Clip samples ``lo, lo + 1, ...`` of the narrow ``block`` and add their wide spans.

    ``slots`` is the model plan's; ``wide`` holds each wide
    span's ``(h, g, buffer, sum)``: its ``[1, in, out]`` buffer and its
    columns of the ``[T]`` sum. Each sample's wide blocks are written by the
    ``_write_rows`` einsum and normed by the BLAS dot ``clip_rows`` runs,
    and its squared norm adds the span dots in slot order (Python floats
    make the same IEEE operations), so every norm, divide and addition is
    that of the full-width row. Returns the block's pre-clip norms.
    """
    dots = [None if s is None else np.vecdot(block[:, s[0]:s[1]], block[:, s[0]:s[1]]).tolist()
            for s in slots]
    flats = [buf.reshape(-1) for _, _, buf, _ in wide]
    norms = np.empty(len(block))
    for i, row in enumerate(block):
        b = lo + i
        for h, g, buf, _ in wide:
            np.einsum("bi,bj->bij", h[b], g[b], out=buf)
        wide_dots = iter([np.vecdot(flat, flat).item() for flat in flats])
        square = 0.0
        for d in dots:
            square += next(wide_dots) if d is None else d[i]
        norm = norms[i] = math.sqrt(square)
        if not math.isfinite(norm):
            raise ValueError("cannot clip a non-finite gradient")
        factor = norm / clip.max_norm
        for flat, (_, _, _, dst) in zip(flats, wide):
            if factor > 1.0:
                flat /= factor
            dst += flat
        if factor > 1.0:
            row /= factor
    return norms


def batch_gradient(model: Model, xs, ys) -> tuple[float, np.ndarray]:
    """Mean loss over a non-empty batch and its gradient, a flat float64 ``[T]`` vector.

    The gradient covers the trainable tail: entry j is that of flat
    parameter ``Model.trainable_start + j``, and frozen parameters have no
    entries. Loss and gradient equal reverse-mode autodiff over the batch
    graph bit for bit. Labels must be 0 or 1, one per sample.
    """
    kernels = _LayerPass(model, xs, ys)
    tail = np.empty(kernels._width)  # the chain covers every trainable column
    # Reduced over the batch as the batch graph reduces: h.T @ g for weights, sums for the
    # rest, each written straight into its columns (``np.add.reduce`` is what ``sum`` runs).
    for cols, bias_cols, h, g, shape in kernels._chain:
        if shape is None:
            np.add.reduce(g * h, axis=0, out=tail[cols])
        else:
            np.matmul(h.T, g, out=tail[cols].reshape(shape))
        np.add.reduce(g, axis=0, out=tail[bias_cols])
    # np.mean's own sum and divide.
    return float(np.add.reduce(kernels.losses) / kernels.size), tail


def predict_proba(model: Model, xs) -> np.ndarray:
    return _sigmoid(model.forward(xs))


def accuracy(model: Model, xs, ys) -> float:
    """Share of samples whose predicted class matches their label (one 0/1 label per sample)."""
    probs = predict_proba(model, xs)
    labels = _binary_labels(ys, probs.shape[0])
    if probs.shape[0] == 0:
        raise ValueError("accuracy needs at least one sample")
    preds = (probs > 0.5).astype(np.float64)
    return float(np.mean(preds == labels))


_CHECKPOINT_FORMAT = "dptrain-model"
_CHECKPOINT_VERSION = 1


_LAYER_CLASSES = {cls.kind: cls for cls in (DenseLayer, ActivationLayer, GroupNormLayer)}


def _layer_from_doc(doc: dict):
    if type(doc) is not dict:
        raise ValueError(f"checkpoint field layers holds {doc!r}, not a layer object")
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
    if type(doc) is not dict or doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a model checkpoint")
    version = doc.get("version")
    if type(version) is not int or version != _CHECKPOINT_VERSION:  # JSON true is not 1
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for field in ("layers", "params", "param_shapes"):
        if field not in doc:
            raise ValueError(f"checkpoint has no {field} field")
        if type(doc[field]) is not list:
            raise ValueError(f"checkpoint field {field} must be a list, got {doc[field]!r}")
    layers = [_layer_from_doc(d) for d in doc["layers"]]
    try:
        params = [
            np.array(flat, dtype=np.float64).reshape(shape)
            for flat, shape in zip(doc["params"], doc["param_shapes"], strict=True)
        ]
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint fields params and param_shapes do not pair into arrays: {err}") from None
    for slot, p in enumerate(params):
        if not np.isfinite(p).all():
            raise ValueError(f"checkpoint slot {slot} holds a non-finite parameter")
    freeze_prefix = doc.get("freeze_prefix", 0)
    if type(freeze_prefix) is not int:  # excludes bool: JSON true and false are not integers
        raise ValueError(f"checkpoint field freeze_prefix must be an integer, got {freeze_prefix!r}")
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"checkpoint field seed must be an integer or null, got {seed!r}")
    return Model(layers, params, seed=seed, freeze_prefix=freeze_prefix)
