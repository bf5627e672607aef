"""Dense feed-forward classifier with hand-derived backpropagation.

Networks are stacks of weight matrices (shape out x in) and bias vectors,
ReLU on hidden layers and softmax on the output. Training is plain
minibatch SGD with deterministic seeded shuffling. A pruning mask rides
along through every operation: masked weight positions contribute nothing
to the forward pass, receive zero gradient, and stay exactly 0.0 through
any number of update steps. Biases are never masked.

Masking is one branchless step: each bool mask layer becomes uint64
words (all ones where kept, 0 where pruned) once per call, and ANDing a
float64 array's bits with them equals `np.where(kept, a, 0.0)` in every
bit, at a cost that does not depend on how the kept positions are
scattered.

No function modifies its arguments. `train` and `sgd_step` update
private copies of the weights and biases in place and return them as a
new network; everything else returns new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

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


def check_layer_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Validate an architecture: at least [input, output], all dims integers >= 1.

    Sizes may be integer strings or integral numbers; 8.9 is rejected, not truncated.
    """
    try:
        parsed = tuple(int(s) for s in sizes)
        if any(not isinstance(s, str) and p != s for s, p in zip(sizes, parsed)):
            raise ValueError("non-integral size")
    except (TypeError, ValueError) as exc:
        raise UsageError(f"layer sizes must be integers, got {sizes!r}") from exc
    sizes = parsed
    if len(sizes) < 2:
        raise UsageError(f"architecture needs at least 2 layer sizes, got {sizes!r}")
    if any(s < 1 for s in sizes):
        raise UsageError(f"layer sizes must be >= 1, got {sizes!r}")
    return sizes


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
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "DenseNetwork":
        return DenseNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )


@dataclass(eq=False)
class GradientSet:
    """Partial derivatives of a scalar loss, shaped like a DenseNetwork."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch SGD schedule. Defaults: 10 epochs, lr 0.1, batch 128."""

    epochs: int = 10
    learning_rate: float = 0.1
    train_batch_size: int = 128
    seed: int = 0
    shuffle_each_epoch: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise UsageError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.train_batch_size < 1:
            raise UsageError(f"train_batch_size must be >= 1, got {self.train_batch_size}")


@dataclass(eq=False)
class Dataset:
    """Row-major inputs (N x dim, float64) and integer class labels (N,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"row counts differ: {self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise UsageError("labels must be non-negative class indices")
        if not np.isfinite(self.inputs).all():
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


def _keep_bits(kept: Sequence[np.ndarray]) -> list[Optional[np.ndarray]]:
    """Per bool layer, uint64 words: all ones where kept, 0 where pruned; None if all kept."""
    return [None if k.all() else np.negative(k, dtype=np.int64).view(np.uint64) for k in kept]


def _zero_pruned(
    a: np.ndarray, bits: Optional[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """float64 `a` with +0.0 where `bits` is 0, written to `out` (a new array if None).

    Equals `np.where(kept, a, 0.0)` in every bit, NaN, infinities, -0.0
    and subnormals included. `out` may be `a` itself.
    """
    a = np.asarray(a, dtype=np.float64)
    if out is None:
        out = np.empty(a.shape)
    if bits is None:
        if out is not a:
            np.copyto(out, a)
    else:
        np.bitwise_and(a.view(np.uint64), bits, out=out.view(np.uint64))
    return out


def masked_weights(
    net: DenseNetwork, mask: Optional["PruneMask"]
) -> tuple[list[Optional[np.ndarray]], list[np.ndarray]]:
    """(keep words of `_keep_bits`, new weight arrays with +0.0 at masked positions).

    No mask keeps everything.
    """
    if mask is None:
        bits = [None] * len(net.weights)
    else:
        mask.check_pairing(net.weights)
        bits = _keep_bits(mask.layers)
    return bits, [_zero_pruned(w, k) for w, k in zip(net.weights, bits)]


def _check_labelled_rows(
    net: DenseNetwork, inputs: np.ndarray, labels: np.ndarray, what: str
) -> None:
    """UsageError for no rows or a label past the class count; ShapeError for a wrong width.

    Takes the arrays of a Dataset, which has already checked their shapes and values.
    """
    if inputs.shape[0] == 0:
        raise UsageError(f"{what} is empty")
    if inputs.shape[1] != net.layer_sizes[0]:
        raise ShapeError(f"{what} dim {inputs.shape[1]} vs network input dim {net.layer_sizes[0]}")
    if int(labels.max()) >= net.num_classes:
        raise UsageError(
            f"{what} label {int(labels.max())} out of range for {net.num_classes} classes"
        )


def _forward_arrays(
    weights: list[np.ndarray], biases: list[np.ndarray], inputs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping intermediates: returns (pre-activations, layer inputs)."""
    pre, layer_in = [], []
    a = inputs
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        layer_in.append(a)
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    return pre, layer_in


def _softmax_from_logits(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable softmax; returns (probabilities, log-sum-exp per row)."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    return e / s, (m + np.log(s))


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
    _, weights = masked_weights(net, mask)
    pre, _ = _forward_arrays(weights, net.biases, inputs)
    probs, _ = _softmax_from_logits(pre[-1])
    return probs


def _loss_and_grads_arrays(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    bits: list[Optional[np.ndarray]],
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy and its exact gradients, +0.0 at pruned positions.

    Weights must already be masked; `bits` are their keep words.
    """
    n = inputs.shape[0]
    pre, layer_in = _forward_arrays(weights, biases, inputs)
    probs, lse = _softmax_from_logits(pre[-1])
    rows = np.arange(n)
    loss = float(np.mean(lse[:, 0] - pre[-1][rows, labels]))

    delta = probs
    delta[rows, labels] -= 1.0
    delta /= n
    grad_w: list[np.ndarray] = []
    grad_b: list[np.ndarray] = []
    for l in range(len(weights) - 1, -1, -1):
        g = delta.T @ layer_in[l]
        grad_w.append(_zero_pruned(g, bits[l], out=g))
        grad_b.append(delta.sum(axis=0))
        if l > 0:
            delta = (delta @ weights[l]) * (pre[l - 1] > 0.0)
    grad_w.reverse()
    grad_b.reverse()
    return loss, grad_w, grad_b


def _per_sample_sq_grad_sums(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    inputs: np.ndarray,
    labels: np.ndarray,
) -> list[np.ndarray]:
    """Per layer, the sum over rows n of (dL_n/dW)**2, L_n being row n's own loss.

    Row n's weight gradient is the outer product of its output delta and
    its layer input, so the sum of squares is (delta**2).T @ (a**2)
    (Goodfellow, arXiv:1510.01799). One pass per chunk of rows replaces one
    backward pass per row. Weights must already be masked; sums at masked
    positions are not zeroed.
    """
    sums = [np.zeros_like(w) for w in weights]
    for start in range(0, inputs.shape[0], _SQ_GRAD_CHUNK_ROWS):
        x = inputs[start : start + _SQ_GRAD_CHUNK_ROWS]
        pre, layer_in = _forward_arrays(weights, biases, x)
        delta, _ = _softmax_from_logits(pre[-1])
        delta[np.arange(x.shape[0]), labels[start : start + _SQ_GRAD_CHUNK_ROWS]] -= 1.0
        for l in range(len(weights) - 1, -1, -1):
            a = layer_in[l]
            sums[l] += (delta * delta).T @ (a * a)
            if l > 0:
                delta = (delta @ weights[l]) * (pre[l - 1] > 0.0)
    return sums


def loss_and_grads(
    net: DenseNetwork, mask: Optional["PruneMask"], batch: Dataset
) -> tuple[float, GradientSet]:
    """Mean softmax cross-entropy over the batch and its analytic gradients.

    Gradients at masked positions are exactly 0. Raises UsageError on an
    empty batch or out-of-range labels.
    """
    _check_labelled_rows(net, batch.inputs, batch.labels, "batch")
    bits, weights = masked_weights(net, mask)
    loss, grad_w, grad_b = _loss_and_grads_arrays(
        weights, net.biases, bits, batch.inputs, batch.labels
    )
    return loss, GradientSet(grad_w, grad_b)


def _sgd_update(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
    lr: float,
) -> None:
    """In place: w -= lr*g and b -= lr*g; `grad_w` is scaled by lr on the way.

    Masked weights and their gradients must already be +0.0; with a finite
    lr they stay +0.0, since +0.0 - lr*(+0.0) is +0.0 for either sign of lr.
    """
    for w, g in zip(weights, grad_w):
        g *= lr
        w -= g
    for b, g in zip(biases, grad_b):
        b -= lr * g


def sgd_step(
    net: DenseNetwork, grads: GradientSet, mask: Optional["PruneMask"], lr: float
) -> DenseNetwork:
    """One gradient-descent update: w <- w - lr*g at kept positions, masked stay 0.

    Biases are always updated. Gradients at masked positions are ignored.
    Raises UsageError for a non-finite lr.
    """
    if not math.isfinite(lr):
        raise UsageError(f"lr must be finite, got {lr}")
    bits, weights = masked_weights(net, mask)
    grad_w = [_zero_pruned(g, k) for g, k in zip(grads.weights, bits)]
    biases = [b.copy() for b in net.biases]
    _sgd_update(weights, biases, grad_w, grads.biases, lr)
    return DenseNetwork(weights, biases)


def train(
    net: DenseNetwork,
    mask: Optional["PruneMask"],
    data: Dataset,
    cfg: TrainConfig,
    eval_data: Optional[Dataset] = None,
) -> tuple[DenseNetwork, list[tuple[float, float]]]:
    """Minibatch SGD for cfg.epochs epochs; returns the trained network and history.

    History holds one (train_loss, test_accuracy) pair per epoch:
    train_loss is the sample-weighted mean of the minibatch losses seen
    during the epoch, accuracy is measured on `eval_data` (falling back to
    `data`). Shuffling uses the substream derive(cfg.seed, 2, epoch), so
    identical (net, mask, data, cfg) reproduce bit-identical results.
    Masked weights are zeroed before the first step and stay 0 throughout.
    """
    _check_labelled_rows(net, data.inputs, data.labels, "training data")
    measure = eval_data if eval_data is not None else data

    bits, weights = masked_weights(net, mask)
    biases = [b.copy() for b in net.biases]
    n = len(data)
    bs = cfg.train_batch_size
    lr = cfg.learning_rate

    history: list[tuple[float, float]] = []
    for epoch in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            order = rng.permutation(rng.derive(cfg.seed, _SHUFFLE_STREAM, epoch), n)
        else:
            order = np.arange(n)
        loss_sum = 0.0
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            loss, grad_w, grad_b = _loss_and_grads_arrays(
                weights, biases, bits, data.inputs[idx], data.labels[idx]
            )
            loss_sum += loss * idx.shape[0]
            _sgd_update(weights, biases, grad_w, grad_b, lr)
        history.append((loss_sum / n, evaluate(DenseNetwork(weights, biases), mask, measure)))
    return DenseNetwork(weights, biases), history


def evaluate(net: DenseNetwork, mask: Optional["PruneMask"], data: Dataset) -> float:
    """Fraction of argmax-correct predictions; argmax ties pick the lowest class."""
    if len(data) == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    probs = forward(net, mask, data.inputs)
    predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == data.labels))
