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
(delta**2).T @ (a**2) per layer. Neither path zeroes squared gradients at
pruned positions: theta_k**2 is +0.0 there, and so is the score. The
reported backward-pass count is the estimator's B, not the wall cost of
computing it. Given a row index, the scorer gathers each chunk or batch
through it, so a caller's selection of rows is never copied whole.

Scores are plain per-layer arrays shaped like the weights. Values at
already-pruned positions are never read: `global_prune` removes the
lowest-scored fraction of the currently kept weights across all layers
jointly, and validates the scores it reads. Selection is a linear-time
partition around the removal threshold, not a sort; ties at the
threshold still break by ascending (layer index, row-major flat index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UsageError
from . import rng
from .masks import PruneMask
from .nn import Dataset, DenseNetwork, check_int_fields, masked_weights
from .nn import _check_labelled_rows, _loss_and_grads_arrays, _per_sample_sq_grad_sums

# Stream tag for random scoring substreams (see rng.derive).
_SCORE_STREAM = 3


@dataclass(frozen=True)
class FisherConfig:
    """Size of the Fisher scoring set and how it is batched.

    batch_count is ceil(sample_count / fisher_batch_size); the scorer
    reports that many backward passes, the estimator's count.
    """

    sample_count: int = 10_000
    fisher_batch_size: int = 1

    def __post_init__(self) -> None:
        check_int_fields(self, sample_count=1, fisher_batch_size=1)
        if self.fisher_batch_size > self.sample_count:
            raise UsageError(
                f"fisher_batch_size {self.fisher_batch_size} exceeds sample_count {self.sample_count}"
            )

    @property
    def batch_count(self) -> int:
        return -(-self.sample_count // self.fisher_batch_size)


def score_l1(net: DenseNetwork, mask: PruneMask) -> list[np.ndarray]:
    """Absolute weight values, per layer."""
    mask.check_pairing(net.weights)
    return [np.abs(w) for w in net.weights]


def score_random(mask: PruneMask, seed: int) -> list[np.ndarray]:
    """I.i.d. uniform(0, 1) scores, per layer.

    Layer l takes one draw per weight position, row-major, from the
    substream derive(seed, 3, l), pruned positions included, so the same
    seed gives the same scores and the same masks.
    """
    return [
        rng.uniforms(rng.derive(seed, _SCORE_STREAM, l), m.size).reshape(m.shape)
        for l, m in enumerate(mask.layers)
    ]


def _fisher_combine(
    weights: list[np.ndarray], squared_grad_sums: list[np.ndarray], batch_count: int
) -> list[np.ndarray]:
    """Turn accumulated squared gradients into scores: w**2 * sum / (2B)."""
    scale = 1.0 / (2.0 * batch_count)
    scores = []
    for w, s in zip(weights, squared_grad_sums):
        # `scale * w * w * s`, left to right, in one buffer.
        score = scale * w
        score *= w
        score *= s
        scores.append(score)
    return scores


def score_fisher(
    net: DenseNetwork,
    mask: PruneMask,
    data: Dataset,
    cfg: FisherConfig,
    rows: Optional[np.ndarray] = None,
) -> tuple[list[np.ndarray], int]:
    """Diagonal-Fisher relevance of each kept weight, plus the backward-pass count.

    Uses the first cfg.sample_count rows of `data`, split into
    batch_count consecutive batches; each batch contributes the squared
    gradient of its mean loss. Returns (scores, batch_count). Raises
    ShapeError for rows of the wrong width and UsageError for too few rows
    or labels beyond the network's classes.

    `rows`, an integer index array, scores `data.take(rows)` without
    making that copy: the scoring rows are `rows[:cfg.sample_count]`, and
    every chunk or batch is gathered from `data` itself. The scores are
    those of `score_fisher(net, mask, data.take(rows), cfg)` in every bit.
    """
    available = len(data) if rows is None else len(rows)
    if available < cfg.sample_count:
        raise UsageError(f"fisher set has {available} rows, need sample_count={cfg.sample_count}")
    rows = np.arange(cfg.sample_count) if rows is None else rows[: cfg.sample_count]
    _check_labelled_rows(net, data.inputs, data.labels[rows], "fisher set")

    bs = cfg.fisher_batch_size
    weights = masked_weights(net, mask)[1]
    if bs == 1:
        sq_sums = _per_sample_sq_grad_sums(weights, net.biases, data.inputs, data.labels, rows)
    else:
        no_bits = [None] * len(weights)
        sq_sums = [np.zeros_like(w) for w in weights]
        for start in range(0, cfg.sample_count, bs):
            idx = rows[start : start + bs]
            _, grad_w, _ = _loss_and_grads_arrays(
                weights, net.biases, no_bits, data.inputs[idx], data.labels[idx]
            )
            for s, g in zip(sq_sums, grad_w):
                g *= g
                s += g
    return _fisher_combine(weights, sq_sums, cfg.batch_count), cfg.batch_count


def removal_count(kept: int, fraction: float) -> int:
    """Round-half-up count of weights to remove: floor(fraction*kept + 0.5)."""
    return int(math.floor(fraction * kept + 0.5))


def global_prune(mask: PruneMask, scores: Sequence[np.ndarray], fraction: float) -> PruneMask:
    """Prune the lowest-scored `fraction` of currently kept weights, all layers jointly.

    `scores` holds one array per layer, shaped like the mask; only its
    values at kept positions are read. Removes exactly
    round(fraction * kept) positions; score ties break by ascending
    (layer index, row-major flat index). Already-pruned positions are
    untouched. Raises UsageError for fraction outside [0, 1] or
    non-finite scores at kept positions, ShapeError for scores that do
    not pair with the mask.

    Selection takes linear time: `np.partition` finds the threshold t,
    the remove-th smallest kept score; every kept score below t goes,
    then the first of those equal to t in concatenation order, which is
    already ascending (layer, flat index). No full sort is made.
    """
    if not 0.0 <= fraction <= 1.0:
        raise UsageError(f"fraction must be in [0, 1], got {fraction}")
    scores = [np.asarray(s, dtype=np.float64) for s in scores]
    mask.check_pairing(scores, what="score")

    kept_scores, flat_ids = [], []
    for l, (m, s) in enumerate(zip(mask.layers, scores)):
        flat = np.flatnonzero(m)
        vals = s.ravel()[flat]
        if not np.isfinite(vals).all():
            raise UsageError(f"layer {l} has non-finite scores at kept positions")
        kept_scores.append(vals)
        flat_ids.append(flat)

    all_scores = np.concatenate(kept_scores) if kept_scores else np.empty(0)
    remove = removal_count(all_scores.shape[0], fraction)
    new_layers = [m.copy() for m in mask.layers]
    if remove == 0:
        return PruneMask(new_layers)

    threshold = np.partition(all_scores, remove - 1)[remove - 1]
    victims = all_scores < threshold
    ties = np.flatnonzero(all_scores == threshold)
    victims[ties[: remove - np.count_nonzero(victims)]] = True
    start = 0
    for m, flat in zip(new_layers, flat_ids):
        m.ravel()[flat[victims[start : start + flat.size]]] = False
        start += flat.size
    return PruneMask(new_layers)
