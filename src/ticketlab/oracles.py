"""Reference loops that the test suite checks the fast paths against.

Each oracle is a plain loop over the public API and never calls the
vectorised code it checks, so an agreement is evidence.
"""

from __future__ import annotations

import math

import numpy as np

from .masks import PruneMask
from .nn import Dataset, DenseNetwork, loss_and_grads


def finite_difference(net: DenseNetwork, mask, batch: Dataset, h: float = 1e-5) -> DenseNetwork:
    """Central difference of the batch loss in each weight and bias, as loss_and_grads gives."""
    bumped, diffs = net.copy(), net.copy()
    for params, out in ((bumped.weights, diffs.weights), (bumped.biases, diffs.biases)):
        for p, d in zip(params, out):
            for index in np.ndindex(p.shape):
                saved = p[index]
                p[index] += h
                up, _ = loss_and_grads(bumped, mask, batch)
                p[index] -= 2 * h
                down, _ = loss_and_grads(bumped, mask, batch)
                p[index] = saved
                d[index] = (up - down) / (2 * h)
    return diffs


def per_sample_fisher(net: DenseNetwork, mask, data: Dataset, sample_count: int) -> list:
    """w**2 * sum_n g_n**2 / (2N) over the first N rows, one backward pass per row.

    Gradients are exactly 0 at pruned positions, so the scores there are +0.0.
    """
    acc = [np.zeros_like(w) for w in net.weights]
    for n in range(sample_count):
        _, g = loss_and_grads(net, mask, Dataset(data.inputs[n : n + 1], data.labels[n : n + 1]))
        for l in range(len(acc)):
            acc[l] += g.weights[l] ** 2
    return [w * w * a / (2 * sample_count) for w, a in zip(net.weights, acc)]


def whole_set_accuracy(net: DenseNetwork, mask, data: Dataset) -> float:
    """Argmax accuracy from one pass over all rows at once, with pruned weights set
    by `np.where` and every layer on its whole matrix; ties pick the lowest class."""
    a = data.inputs
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        if mask is not None:
            w = np.where(mask.layers[l], w, 0.0)
        logits = a @ w.T + b
        a = np.maximum(logits, 0.0)
    return float(np.mean(logits.argmax(axis=1) == data.labels))


def movement_element_loop(baseline: DenseNetwork, current: DenseNetwork, mask) -> tuple:
    """(sum of |baseline - current| over kept weights, kept count), layer then row-major."""
    acc = 0.0
    count = 0
    for wb, wc, m in zip(baseline.weights, current.weights, mask.layers):
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if m[i, j]:
                    acc += abs(wb[i, j] - wc[i, j])
                    count += 1
    return acc, count


def global_prune_sorted(mask: PruneMask, scores, fraction: float) -> PruneMask:
    """Drop the floor(fraction * kept + 0.5) smallest (score, layer, flat index) kept positions."""
    ranked = sorted(
        (float(np.asarray(s)[index]), l, flat)
        for l, (m, s) in enumerate(zip(mask.layers, scores))
        for flat, index in enumerate(np.ndindex(m.shape))
        if m[index]
    )
    layers = [m.copy() for m in mask.layers]
    for _, l, flat in ranked[: math.floor(fraction * len(ranked) + 0.5)]:
        layers[l].flat[flat] = False
    return PruneMask(layers)


def worst_relative_error(a: DenseNetwork, b: DenseNetwork) -> float:
    """Largest |a - b| / max(|a|, |b|, 1e-8) over every weight and bias entry."""
    return max(
        float(np.max(np.abs(x - y) / np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-8)))
        for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )
