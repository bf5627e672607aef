"""Per-weight relevance scores and global unstructured pruning.

Three scorers are provided: uniform random draws, absolute weight value
(L1 magnitude), and a diagonal-Fisher estimate of the loss increase from
deleting each weight. The Fisher score for weight k with value theta_k is

    delta_k = theta_k**2 / (2B) * sum_b g_bk**2

where the sum runs over B consecutive batches of the scoring set and g_b
is the gradient of the mean loss of batch b. Batch size 1 makes B equal
to the sample count and recovers the per-sample definition; larger batch
sizes trade scoring fidelity for backward passes (exactly B of them).

Batch size 1 is computed in one vectorised pass over chunks of rows: a
row's weight gradient is an outer product, so its squared sum is
(delta**2).T @ (a**2) per layer. The reported backward-pass count is the
estimator's B, not the wall cost of computing it.

`global_prune` then removes the lowest-scored fraction of the currently
kept weights across all layers jointly.

Scores are dense float matrices shaped like the weights; positions that
are already pruned are excluded from scoring and carry NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from . import rng
from .masks import PruneMask
from .nn import Dataset, DenseNetwork, masked_weights
from .nn import _check_labelled_rows, _loss_and_grads_arrays, _per_sample_sq_grad_sums

# Stream tag for random scoring substreams (see rng.derive).
_SCORE_STREAM = 3

#: Sentinel stored at already-pruned positions, which are never scored.
EXCLUDED = math.nan


@dataclass(eq=False)
class PruneScore:
    """Per-layer relevance values; NaN marks excluded (already pruned) positions."""

    layers: list[np.ndarray]

    def __post_init__(self) -> None:
        for l, s in enumerate(self.layers):
            if np.asarray(s).ndim != 2:
                raise ShapeError(f"score layer {l} must be 2-D")
        self.layers = [np.asarray(s, dtype=np.float64) for s in self.layers]


@dataclass(frozen=True)
class FisherConfig:
    """Size of the Fisher scoring set and how it is batched.

    batch_count is ceil(sample_count / fisher_batch_size); the scorer
    reports that many backward passes, the estimator's count.
    """

    sample_count: int = 10_000
    fisher_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise UsageError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.fisher_batch_size < 1:
            raise UsageError(f"fisher_batch_size must be >= 1, got {self.fisher_batch_size}")
        if self.fisher_batch_size > self.sample_count:
            raise UsageError(
                f"fisher_batch_size {self.fisher_batch_size} exceeds sample_count {self.sample_count}"
            )

    @property
    def batch_count(self) -> int:
        return -(-self.sample_count // self.fisher_batch_size)


def _excluded_where_pruned(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    return np.where(kept, values, EXCLUDED)


def score_l1(net: DenseNetwork, mask: PruneMask) -> PruneScore:
    """Absolute weight value at every kept position."""
    mask.check_pairing(net.weights)
    return PruneScore(
        [_excluded_where_pruned(np.abs(w), k) for w, k in zip(net.weights, mask.layers)]
    )


def score_random(mask: PruneMask, seed: int) -> PruneScore:
    """I.i.d. uniform(0, 1) scores at kept positions.

    Layer l consumes one draw per weight position, row-major, from the
    substream derive(seed, 3, l); draws landing on pruned positions are
    discarded. Same seed, same scores.
    """
    layers = []
    for l, m in enumerate(mask.layers):
        u = rng.uniforms(rng.derive(seed, _SCORE_STREAM, l), m.size).reshape(m.shape)
        layers.append(_excluded_where_pruned(u, m))
    return PruneScore(layers)


def _fisher_combine(
    weights: list[np.ndarray],
    squared_grad_sums: list[np.ndarray],
    batch_count: int,
    kept: list[np.ndarray],
) -> PruneScore:
    """Turn accumulated squared gradients into scores: w**2 * sum / (2B)."""
    scale = 1.0 / (2.0 * batch_count)
    return PruneScore(
        [
            _excluded_where_pruned(scale * w * w * s, k)
            for w, s, k in zip(weights, squared_grad_sums, kept)
        ]
    )


def score_fisher(
    net: DenseNetwork, mask: PruneMask, fisher_set: Dataset, cfg: FisherConfig
) -> tuple[PruneScore, int]:
    """Diagonal-Fisher relevance of each kept weight, plus the backward-pass count.

    Uses the first cfg.sample_count rows of `fisher_set`, split into
    batch_count consecutive batches; each batch contributes the squared
    gradient of its mean loss. Returns (scores, batch_count). Raises
    ShapeError for rows of the wrong width and UsageError for too few rows
    or labels beyond the network's classes.
    """
    if len(fisher_set) < cfg.sample_count:
        raise UsageError(
            f"fisher set has {len(fisher_set)} rows, need sample_count={cfg.sample_count}"
        )
    inputs = fisher_set.inputs[: cfg.sample_count]
    labels = fisher_set.labels[: cfg.sample_count]
    _check_labelled_rows(net, inputs, labels, "fisher set")
    bits, weights = masked_weights(net, mask)

    bs = cfg.fisher_batch_size
    if bs == 1:
        sq_sums = _per_sample_sq_grad_sums(weights, net.biases, inputs, labels)
    else:
        sq_sums = [np.zeros_like(w) for w in weights]
        for start in range(0, cfg.sample_count, bs):
            _, grad_w, _ = _loss_and_grads_arrays(
                weights, net.biases, bits, inputs[start : start + bs], labels[start : start + bs]
            )
            for l, g in enumerate(grad_w):
                sq_sums[l] += g * g
    return _fisher_combine(weights, sq_sums, cfg.batch_count, mask.layers), cfg.batch_count


def removal_count(kept: int, fraction: float) -> int:
    """Round-half-up count of weights to remove: floor(fraction*kept + 0.5)."""
    return int(math.floor(fraction * kept + 0.5))


def global_prune(mask: PruneMask, scores: PruneScore, fraction: float) -> PruneMask:
    """Prune the lowest-scored `fraction` of currently kept weights, all layers jointly.

    Removes exactly round(fraction * kept) positions; score ties break by
    ascending (layer index, row-major flat index). Already-pruned
    positions are untouched. Raises UsageError for fraction outside [0, 1]
    or non-finite scores at kept positions.
    """
    if not 0.0 <= fraction <= 1.0:
        raise UsageError(f"fraction must be in [0, 1], got {fraction}")
    mask.check_pairing(scores.layers, what="score")

    kept_scores, layer_ids, flat_ids = [], [], []
    for l, (m, s) in enumerate(zip(mask.layers, scores.layers)):
        flat = np.flatnonzero(m)
        vals = s.ravel()[flat]
        if not np.isfinite(vals).all():
            raise UsageError(f"layer {l} has non-finite scores at kept positions")
        kept_scores.append(vals)
        layer_ids.append(np.full(flat.shape, l, dtype=np.int64))
        flat_ids.append(flat)

    all_scores = np.concatenate(kept_scores) if kept_scores else np.empty(0)
    all_layers = np.concatenate(layer_ids) if layer_ids else np.empty(0, dtype=np.int64)
    all_flats = np.concatenate(flat_ids) if flat_ids else np.empty(0, dtype=np.int64)

    kept_total = all_scores.shape[0]
    remove = removal_count(kept_total, fraction)
    new_layers = [m.copy() for m in mask.layers]
    if remove == 0:
        return PruneMask(new_layers)

    order = np.lexsort((all_flats, all_layers, all_scores))
    victims = order[:remove]
    for l in range(len(new_layers)):
        in_layer = victims[all_layers[victims] == l]
        if in_layer.size:
            new_layers[l].ravel()[all_flats[in_layer]] = False
    return PruneMask(new_layers)
