"""Dense feed-forward classifier with hand-derived backpropagation.

Networks are stacks of weight matrices (shape out x in) and bias vectors,
ReLU on hidden layers and softmax on the output. Training is plain
minibatch SGD with deterministic seeded shuffling. A pruning mask rides
along through every operation: masked weight positions contribute nothing
to the forward pass, receive zero gradient, and stay exactly 0.0 through
any number of update steps. Biases are never masked.

Masking is one branchless step: a float64 array's bits, viewed as
uint64, are multiplied by the bool mask layer itself. Multiplying by 1
keeps every bit and by 0 gives +0.0, so the result equals
`np.where(kept, a, 0.0)` in every bit, NaN, infinities, -0.0 and
subnormals included, at a cost that does not depend on how the kept
positions are scattered. No other form of the mask is built.

`train`, `forward`, `evaluate` and `loss_and_grads` each run under one
plan per call, which `_plan` works out from the mask alone. Per layer,
it holds the live input columns, the keep layer of the matrix the layer
runs on (the mask's own layer, or a copy of its live columns), and that
matrix's flat kept index. A layer whose kept weights sit in fewer than
`_COMPACT_BELOW` (half) of its input columns runs on those columns only:
on the contiguous copy `w[:, cols]` and on its input's `cols` columns,
gathered for layer 0 by (row, column) pairs of each batch. Its keep
layer and kept index are then those of `w[:, cols]`. A layer that keeps
every weight of its matrix has neither. One that keeps fewer than
`_INDEX_UPDATE_BELOW` of them has a kept index: `train` does not mask
its dW, and each step updates only `w.flat[kept] -= lr * g.flat[kept]`,
never writing a pruned position.

Only `_COMPACT_BELOW` changes result bits. A pruned column adds exact
zeros, but a shorter inner dimension rounds differently in BLAS, so
changing that rule needs a new checkpoint format version. The index
update computes the same `w - g*lr` at kept positions as the masked
dense update, and leaves pruned ones +0.0, so its threshold changes
speed only. Every unit stays in place: one with no incoming weights
emits relu(bias) and trains its bias, and one with no outgoing weights
gets an exact +0.0 delta, so its bias comes back unchanged. Fisher
scoring always runs on the whole matrices.

Training steps, Fisher scoring, `forward` and `evaluate` share one
forward pass, `_forward_arrays`, and run it on bounded blocks of rows (a
batch, `_SQ_GRAD_CHUNK_ROWS`, `_FORWARD_BLOCK_ROWS`), so their memory
does not grow with the test set. Each layer adds its bias and applies
ReLU in place: one activation array per layer, with the bits of
`relu(a @ w.T + b)`. `evaluate`, which `train` calls after every epoch,
counts correct argmaxes block by block. A block's matmul may round
unlike a whole-set one, so `forward` can differ from an unblocked pass
in its last bits, never between runs.

No function modifies its arguments. `train` and `sgd_step` update
private copies of the weights and biases in place and return them as a
new network; everything else returns new values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .errors import ShapeError, UsageError
from . import rng

if TYPE_CHECKING:
    from .masks import PruneMask

# Stream tags (see rng.derive): 1 = weight init, 2 = epoch shuffling.
_INIT_STREAM = 1
_SHUFFLE_STREAM = 2

# Rows per chunk of `_per_sample_sq_grad_sums`; bounds its intermediates
# (1024 rows of a 784-300-100-10 network hold ~6 MB in layer 0).
_SQ_GRAD_CHUNK_ROWS = 1024

# Kept fraction under which `_plan` gives a layer the flat kept index that
# `train` updates it by (see the module docstring). Without the index path, a
# `train` call on `lenet-l1-sweep`'s data and masks (seed 1; 2-core KVM guest,
# SkylakeX OpenBLAS kernels) was 5-13% slower at rounds 8-13 and 11-15% slower
# at rounds 18-23 (medians of 5 alternating calls).
_INDEX_UPDATE_BELOW = 0.15

# Fraction of a layer's input columns under which `_plan` runs the layer on
# its live columns only (see the module docstring). This changes result bits;
# the checkpoint format version pins it.
_COMPACT_BELOW = 0.5

# Rows per block of `Dataset`'s finiteness check; bounds its bool intermediate.
_FINITE_CHECK_ROWS = 1024

# Rows per block of `forward` and `evaluate` (~0.8 MB of LeNet activations).
_FORWARD_BLOCK_ROWS = 256


def check_int(value, what: str, minimum: Optional[int] = None) -> int:
    """`value` as an int >= `minimum`, else UsageError; 8.0 passes, 8.9, True and "8" do not.

    Text is refused: where the program reads text (flags, CSV cells), it
    converts it with `parse_int` first.
    """
    try:
        parsed = int(value)
        if isinstance(value, bool) or parsed != value:
            raise ValueError("non-integral")
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{what} must be an integer, got {value!r}") from exc
    if minimum is not None and parsed < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {parsed}")
    return parsed


def parse_int(text: str, what: str, minimum: Optional[int] = None) -> int:
    """The integer >= `minimum` that `text` spells, else UsageError naming `what`."""
    try:
        parsed = int(text)
    except ValueError as exc:
        raise UsageError(f"{what} must be an integer, got {text!r}") from exc
    return check_int(parsed, what, minimum)


def is_number(value) -> bool:
    """True for real numbers, numpy's included; False for bools and everything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_int_fields(cfg, **minimums: Optional[int]) -> None:
    """Replace each named field of the frozen dataclass `cfg` by `check_int` of its value."""
    for name, minimum in minimums.items():
        object.__setattr__(cfg, name, check_int(getattr(cfg, name), name, minimum))


def check_layer_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Validate an architecture: at least [input, output], all dims `check_int` >= 1."""
    try:
        parsed = tuple(check_int(s, f"layer size in {sizes!r}", 1) for s in sizes)
    except TypeError as exc:
        raise UsageError(f"layer sizes must be a sequence, got {sizes!r}") from exc
    if len(parsed) < 2:
        raise UsageError(f"architecture needs at least 2 layer sizes, got {sizes!r}")
    return parsed


@dataclass(eq=False)
class DenseNetwork:
    """Weight matrices and bias vectors of a dense classifier.

    weights[l] has shape (sizes[l+1], sizes[l]); biases[l] has length
    sizes[l+1]. Everything is float64.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("weights and biases must be non-empty lists of equal length")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {l}: weight shape {w.shape} does not match bias {b.shape}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ShapeError(
                    f"layer {l}: fan-in {w.shape[1]} does not chain with previous fan-out "
                    f"{self.weights[l - 1].shape[0]}"
                )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "DenseNetwork":
        return DenseNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch SGD schedule. Defaults: 10 epochs, lr 0.1, batch 128."""

    epochs: int = 10
    learning_rate: float = 0.1
    train_batch_size: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_fields(self, epochs=1, train_batch_size=1, seed=None)
        lr = self.learning_rate
        if not (is_number(lr) and lr > 0 and math.isfinite(lr)):
            raise UsageError(f"learning_rate must be a finite number > 0, got {lr!r}")


@dataclass(eq=False)
class Dataset:
    """Row-major inputs (N x dim, float64) and integer class labels (N,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iuf":
            # As `check_int`: bools and text are not class indices.
            raise UsageError(f"labels must be integral class indices, got {labels.dtype} values")
        with np.errstate(invalid="ignore"):
            self.labels = labels.astype(np.int64, copy=False)
        if labels.dtype.kind == "f" and not np.array_equal(self.labels, labels):
            raise UsageError("labels must be integral class indices")
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"row counts differ: {self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise UsageError("labels must be non-negative class indices")
        for start in range(0, self.inputs.shape[0], _FINITE_CHECK_ROWS):
            if not np.isfinite(self.inputs[start : start + _FINITE_CHECK_ROWS]).all():
                raise UsageError("inputs contain non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices])


def init_network(arch: Sequence[int], seed: int) -> DenseNetwork:
    """Seeded network: per-layer uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Layer l draws sizes[l+1]*sizes[l] uniforms in row-major order from the
    substream derive(seed, 1, l); identical seeds give bit-identical networks.
    """
    sizes = check_layer_sizes(arch)
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        bound = 1.0 / math.sqrt(fan_in)
        u = rng.uniforms(rng.derive(seed, _INIT_STREAM, l), fan_out * fan_in)
        weights.append(((2.0 * u - 1.0) * bound).reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(weights, biases)


def _keep(m: np.ndarray) -> Optional[np.ndarray]:
    """The bool mask layer `m` itself, None if it keeps every weight."""
    return None if m.all() else m


def _zero_pruned(
    a: np.ndarray, keep: Optional[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """float64 `a` with +0.0 where the bool `keep` is False, written to `out` (a new
    array if None); None keeps everything.

    Equals `np.where(keep, a, 0.0)` in every bit, NaN, infinities, -0.0
    and subnormals included. `out` may be `a` itself.
    """
    a = np.asarray(a, dtype=np.float64)
    if out is None:
        out = np.empty(a.shape)
    if keep is None:
        if out is not a:
            np.copyto(out, a)
    else:
        np.multiply(a.view(np.uint64), keep, out=out.view(np.uint64))
    return out


def masked_weights(
    net: DenseNetwork, mask: Optional["PruneMask"]
) -> tuple[list[Optional[np.ndarray]], list[np.ndarray]]:
    """(per layer `_keep` of the mask, new weight arrays with +0.0 at masked positions).

    No mask keeps everything.
    """
    if mask is None:
        keep = [None] * len(net.weights)
    else:
        mask.check_pairing(net.weights)
        keep = [_keep(m) for m in mask.layers]
    return keep, [_zero_pruned(w, k) for w, k in zip(net.weights, keep)]


def _columns(a: np.ndarray, cols: Optional[np.ndarray]) -> np.ndarray:
    """`a` itself if `cols` is None, else a C-contiguous copy of its columns `cols`."""
    return a if cols is None else a.take(cols, axis=1)


def _widen(a: np.ndarray, cols: Optional[np.ndarray], width: int) -> np.ndarray:
    """`a` itself if `cols` is None, else `width` columns: `a`'s at `cols`, +0.0 elsewhere."""
    if cols is None:
        return a
    out = np.zeros((a.shape[0], width))
    out[:, cols] = a
    return out


class _Plan:
    """How each layer of a network runs under one mask (see `_plan`), one entry per layer.

    `cols`: live input columns, None to run the whole matrix. `keep`: bool keep layer
    of the matrix run (the mask's own layer unless `cols` is set), None if it keeps
    every weight. `kept`: flat kept index into that matrix, None unless it keeps fewer
    than `_INDEX_UPDATE_BELOW` of its weights.
    """

    def __init__(self, cols: list, keep: list, kept: list) -> None:
        self.cols, self.keep, self.kept = cols, keep, kept

    def weights(self, net: DenseNetwork) -> list[np.ndarray]:
        """New arrays: each layer's weights on its columns, +0.0 where the mask prunes."""
        return [
            _zero_pruned(_columns(w, c), k) for w, c, k in zip(net.weights, self.cols, self.keep)
        ]


def _plan(net: DenseNetwork, mask: Optional["PruneMask"]) -> _Plan:
    """The plan of `net` under `mask`, which must pair with its weights (see the module
    docstring); no mask runs every layer on its whole matrix.

    A layer runs on its live columns when they are fewer than `_COMPACT_BELOW` of its
    inputs, and gets a kept index when the matrix it runs on keeps fewer than
    `_INDEX_UPDATE_BELOW` of its weights. Both rules are read at call time.
    """
    layers = len(net.weights)
    if mask is None:
        return _Plan([None] * layers, [None] * layers, [None] * layers)
    mask.check_pairing(net.weights)
    plan = _Plan([], [], [])
    for m in mask.layers:
        live = m.any(axis=0)
        compact = np.count_nonzero(live) < _COMPACT_BELOW * live.size
        cols = np.flatnonzero(live) if compact else None
        keep = _keep(_columns(m, cols))
        sparse = keep is not None and np.count_nonzero(keep) < _INDEX_UPDATE_BELOW * keep.size
        plan.cols.append(cols)
        plan.keep.append(keep)
        plan.kept.append(np.flatnonzero(keep) if sparse else None)
    return plan


def _check_labelled_rows(
    net: DenseNetwork, inputs: np.ndarray, labels: np.ndarray, what: str
) -> None:
    """UsageError for no labels or a label past the class count; ShapeError for a wrong width.

    Takes the arrays of a Dataset, which has already checked their shapes
    and values; `labels` may be those of a selection of its rows.
    """
    if labels.shape[0] == 0:
        raise UsageError(f"{what} is empty")
    if inputs.shape[1] != net.layer_sizes[0]:
        raise ShapeError(f"{what} dim {inputs.shape[1]} vs network input dim {net.layer_sizes[0]}")
    if int(labels.max()) >= net.num_classes:
        raise UsageError(
            f"{what} label {int(labels.max())} out of range for {net.num_classes} classes"
        )


def _forward_arrays(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    inputs: np.ndarray,
    cols: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward pass keeping each layer's input: returns (layer inputs, logits).

    A layer given live columns in `cols` (see `_plan`) holds weights
    for those columns only and reads only those of its input; for layer 0
    the caller passes `inputs` already restricted to them. None keeps
    every column of every layer.
    """
    layer_in = []
    a = inputs
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        if l > 0 and cols is not None:
            a = _columns(a, cols[l])
        layer_in.append(a)
        a = a @ w.T
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
    return layer_in, a


def _softmax_from_logits(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable softmax; returns (probabilities, log-sum-exp per row)."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    return e / s, (m + np.log(s))


def _probability_blocks(
    net: DenseNetwork, mask: Optional["PruneMask"], inputs: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, their class probabilities) of `inputs` under `mask`, by blocks of
    `_FORWARD_BLOCK_ROWS` rows, so that no array grows with the number of rows."""
    plan = _plan(net, mask)
    cols, weights = plan.cols, plan.weights(net)
    for start in range(0, inputs.shape[0], _FORWARD_BLOCK_ROWS):
        block = slice(start, start + _FORWARD_BLOCK_ROWS)
        # No layer input may outlive its block: the loop pauses at `yield`.
        logits = _forward_arrays(weights, net.biases, _columns(inputs[block], cols[0]), cols)[1]
        yield block, _softmax_from_logits(logits)[0]


def forward(net: DenseNetwork, mask: Optional["PruneMask"], inputs: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of inputs.

    Hidden layers use ReLU, the output is a softmax; masked-out weights
    contribute exactly 0 regardless of the values stored in `net`.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != net.layer_sizes[0]:
        raise ShapeError(
            f"inputs must be (N, {net.layer_sizes[0]}), got {inputs.shape}"
        )
    probs = np.empty((inputs.shape[0], net.num_classes))
    for block, p in _probability_blocks(net, mask, inputs):
        probs[block] = p
    return probs


def _loss_and_grads_arrays(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    keep: list[Optional[np.ndarray]],
    inputs: np.ndarray,
    labels: np.ndarray,
    cols: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy and its exact gradients, +0.0 at pruned positions.

    Weights must already be masked; `keep` holds their bool keep layers. A
    layer given None gets its dW unmasked. Weights, inputs and `cols`
    are as `_forward_arrays` takes them, and a layer with live columns
    gets its dW for those columns only. Backpropagation through such a
    layer gives the units that feed no live column an exact +0.0 delta.
    """
    n = inputs.shape[0]
    layer_in, logits = _forward_arrays(weights, biases, inputs, cols)
    probs, lse = _softmax_from_logits(logits)
    rows = np.arange(n)
    loss = float(np.mean(lse[:, 0] - logits[rows, labels]))

    delta = probs
    delta[rows, labels] -= 1.0
    delta /= n
    grad_w: list[np.ndarray] = []
    grad_b: list[np.ndarray] = []
    for l in range(len(weights) - 1, -1, -1):
        g = delta.T @ layer_in[l]
        grad_w.append(_zero_pruned(g, keep[l], out=g))
        grad_b.append(delta.sum(axis=0))
        if l > 0:
            delta = (delta @ weights[l]) * (layer_in[l] > 0.0)
            if cols is not None:
                delta = _widen(delta, cols[l], biases[l - 1].shape[0])
    grad_w.reverse()
    grad_b.reverse()
    return loss, grad_w, grad_b


def _per_sample_sq_grad_sums(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    inputs: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
) -> list[np.ndarray]:
    """Per layer, the sum over the rows `rows` of `inputs` of (dL_n/dW)**2, L_n being
    row n's own loss.

    Row n's weight gradient is the outer product of its output delta and
    its layer input, so the sum of squares is (delta**2).T @ (a**2)
    (Goodfellow, arXiv:1510.01799). One pass per chunk of
    `_SQ_GRAD_CHUNK_ROWS` rows replaces one backward pass per row. Each
    chunk is gathered through `rows` as a private copy, so every layer
    input is squared in place, and each is dropped once backpropagation
    has passed it. The first chunk's products are the sums (+0.0 plus a
    sum of squares would give the same bits); later chunks add theirs.
    Weights must already be masked. Sums at masked positions are not
    zeroed: the scores' w**2 factor makes them +0.0.
    """
    sums: list = [None] * len(weights)
    for start in range(0, rows.shape[0], _SQ_GRAD_CHUNK_ROWS):
        idx = rows[start : start + _SQ_GRAD_CHUNK_ROWS]
        layer_in, logits = _forward_arrays(weights, biases, inputs[idx])
        delta = _softmax_from_logits(logits)[0]
        delta[np.arange(idx.shape[0]), labels[idx]] -= 1.0
        for l in range(len(weights) - 1, -1, -1):
            a = layer_in.pop()
            live = a > 0.0 if l > 0 else None
            a *= a
            # Layer 0's delta is not propagated further, so it is squared in place.
            sq = np.multiply(delta, delta, out=delta if l == 0 else None)
            if start == 0:
                sums[l] = sq.T @ a
            else:
                sums[l] += sq.T @ a
            del a, sq
            if l > 0:
                delta = delta @ weights[l]
                delta *= live
    return sums


def loss_and_grads(
    net: DenseNetwork, mask: Optional["PruneMask"], batch: Dataset
) -> tuple[float, DenseNetwork]:
    """Mean softmax cross-entropy over the batch and its analytic gradients.

    The gradients come as a DenseNetwork: dL/dW in `weights`, exactly 0 at
    masked positions, and dL/db in `biases`. Raises UsageError on an empty
    batch or out-of-range labels.
    """
    _check_labelled_rows(net, batch.inputs, batch.labels, "batch")
    plan = _plan(net, mask)
    cols = plan.cols
    loss, grad_w, grad_b = _loss_and_grads_arrays(
        plan.weights(net), net.biases, plan.keep, _columns(batch.inputs, cols[0]),
        batch.labels, cols,
    )
    widths = net.layer_sizes[:-1]
    return loss, DenseNetwork([_widen(g, c, n) for g, c, n in zip(grad_w, cols, widths)], grad_b)


def _sgd_update(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
    lr: float,
    kept: Sequence[Optional[np.ndarray]],
) -> None:
    """In place: w -= lr*g and b -= lr*g.

    A layer whose `kept` entry is None is updated densely, scaling its
    `grad_w` by lr on the way; its masked weights and gradients must
    already be +0.0, and with a finite lr they stay +0.0, since
    +0.0 - lr*(+0.0) is +0.0 for either sign of lr. A layer with a flat
    kept index updates those positions only and never writes the others;
    its weights must be C-contiguous, so that `reshape(-1)` is a view.
    """
    for w, g, k in zip(weights, grad_w, kept):
        if k is None:
            g *= lr
            w -= g
        else:
            w.reshape(-1)[k] -= lr * g.reshape(-1)[k]
    for b, g in zip(biases, grad_b):
        b -= lr * g


def sgd_step(
    net: DenseNetwork, grads: DenseNetwork, mask: Optional["PruneMask"], lr: float
) -> DenseNetwork:
    """One gradient-descent update: w <- w - lr*g at kept positions, masked stay 0.

    `grads` holds dL/dW and dL/db as `loss_and_grads` returns them. Biases
    are always updated. Gradients at masked positions are ignored.
    Raises UsageError for a non-finite lr.
    """
    if not math.isfinite(lr):
        raise UsageError(f"lr must be finite, got {lr}")
    keep, weights = masked_weights(net, mask)
    grad_w = [_zero_pruned(g, k) for g, k in zip(grads.weights, keep)]
    biases = [b.copy() for b in net.biases]
    _sgd_update(weights, biases, grad_w, grads.biases, lr, [None] * len(weights))
    return DenseNetwork(weights, biases)


def train(
    net: DenseNetwork,
    mask: Optional["PruneMask"],
    data: Dataset,
    cfg: TrainConfig,
    eval_data: Optional[Dataset] = None,
    rows: Optional[np.ndarray] = None,
) -> tuple[DenseNetwork, list[tuple[float, float]]]:
    """Minibatch SGD for cfg.epochs epochs; returns the trained network and history.

    History holds one (train_loss, test_accuracy) pair per epoch:
    train_loss is the sample-weighted mean of the minibatch losses seen
    during the epoch, accuracy is measured on `eval_data` (falling back to
    `data`). Shuffling uses the substream derive(cfg.seed, 2, epoch), so
    identical (net, mask, data, cfg) reproduce bit-identical results.
    Masked weights are zeroed before the first step and stay 0 throughout.

    `rows`, an integer index array, trains on `data.take(rows)` without
    making that copy: each epoch's shuffle is composed with `rows`, and
    every batch is gathered from `data` itself. It needs `eval_data`
    (UsageError otherwise), since measuring the selected rows would copy
    them. The network and history are those of
    `train(net, mask, data.take(rows), cfg, eval_data)` in every bit.

    The layers run as `_plan` lays out, on copies of their weights that
    are written back before each evaluation. The result equals repeated
    `loss_and_grads` and `sgd_step` in every bit.
    """
    if rows is not None and eval_data is None:
        raise UsageError("training through `rows` needs `eval_data` to measure accuracy on")
    labels = data.labels if rows is None else data.labels[rows]
    _check_labelled_rows(net, data.inputs, labels, "training data")
    measure = data if eval_data is None else eval_data
    _check_labelled_rows(net, measure.inputs, measure.labels, "evaluation data")

    plan = _plan(net, mask)
    cols = plan.cols
    weights = plan.weights(net)
    # A layer updated through its kept index needs no masking of its dW.
    step_keep = [m if k is None else None for m, k in zip(plan.keep, plan.kept)]
    biases = [b.copy() for b in net.biases]
    widths = net.layer_sizes[:-1]

    def trained() -> DenseNetwork:
        return DenseNetwork([_widen(w, c, k) for w, c, k in zip(weights, cols, widths)], biases)

    n = labels.shape[0]
    bs = cfg.train_batch_size
    lr = cfg.learning_rate

    history: list[tuple[float, float]] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(rng.derive(cfg.seed, _SHUFFLE_STREAM, epoch), n)
        if rows is not None:
            order = rows[order]
        loss_sum = 0.0
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            x = data.inputs[idx] if cols[0] is None else data.inputs[idx[:, None], cols[0]]
            loss, grad_w, grad_b = _loss_and_grads_arrays(
                weights, biases, step_keep, x, data.labels[idx], cols
            )
            loss_sum += loss * idx.shape[0]
            _sgd_update(weights, biases, grad_w, grad_b, lr, plan.kept)
            # Let go before the next step gathers its batch, and before the epoch is measured.
            x = grad_w = grad_b = None
        history.append((loss_sum / n, evaluate(trained(), mask, measure)))
    return trained(), history


def evaluate(net: DenseNetwork, mask: Optional["PruneMask"], data: Dataset) -> float:
    """Fraction of argmax-correct predictions; argmax ties pick the lowest class.

    Counted block by block, so that no array grows with the number of rows.
    Raises UsageError on an empty dataset or a label past the class count,
    and ShapeError on rows of the wrong width.
    """
    _check_labelled_rows(net, data.inputs, data.labels, "evaluation data")
    correct = 0
    for block, probs in _probability_blocks(net, mask, data.inputs):
        correct += int(np.count_nonzero(probs.argmax(axis=1) == data.labels[block]))
    return correct / len(data)
