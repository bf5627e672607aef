"""Fast invariant battery behind the `selftest` CLI command.

Each check is a tiny deterministic experiment exercising one contract:
gradient exactness against finite differences, Fisher batching against a
per-sample loop, mask algebra, movement summation against an element
loop, IDX round trips. The reference loops come from `oracles`. The
whole battery runs in a few seconds.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import rng
from .data import gen_synthetic, load_idx, write_idx
from .masks import apply_mask, full_mask, rewind, sparsity
from .metrics import weight_movement
from .nn import Dataset, TrainConfig, forward, init_network, loss_and_grads, train
from .oracles import finite_difference, global_prune_sorted, movement_element_loop
from .oracles import per_sample_fisher, worst_relative_error
from .strategies import FisherConfig, global_prune, score_fisher, score_l1, score_random


def check_gradients() -> bool:
    net = init_network([3, 4, 2], seed=11)
    mask = full_mask([3, 4, 2])
    batch = Dataset(rng.normals(21, 5 * 3).reshape(5, 3), np.array([0, 1, 0, 1, 1]))
    _, grads = loss_and_grads(net, mask, batch)
    return worst_relative_error(grads, finite_difference(net, mask, batch)) < 1e-4


def check_softmax_rows() -> bool:
    net = init_network([6, 5, 4], seed=3)
    probs = forward(net, None, rng.normals(5, 8 * 6).reshape(8, 6))
    return (
        bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9))
        and probs.min() >= 0.0
        and probs.max() <= 1.0
    )


def check_masked_freeze() -> bool:
    arch = [4, 6, 3]
    net = init_network(arch, seed=5)
    mask = full_mask(arch)
    # Layer 0 keeps 2 of 24 weights, sparse enough for train's index
    # update; layer 1 keeps 12 of 18 and takes the AND + dense update.
    mask.layers[0][:] = 0
    mask.layers[0][::3, 0] = 1
    mask.layers[1][1, :] = 0
    data = gen_synthetic(3, 4, 30, seed=9)
    trained, _ = train(net, mask, data, TrainConfig(epochs=2, seed=4))
    # +0.0 exactly: every bit clear, the sign bit included.
    return all(not w[~m].view(np.uint64).any() for w, m in zip(trained.weights, mask.layers))


def check_fisher_oracle() -> bool:
    arch = [4, 5, 3]
    net = init_network(arch, seed=7)
    mask = full_mask(arch)
    data = gen_synthetic(3, 4, 8, seed=13)
    scores, passes = score_fisher(net, mask, data, FisherConfig(len(data), 1))
    expected = per_sample_fisher(net, mask, data, len(data))
    return passes == len(data) and all(
        np.allclose(s, e, rtol=1e-12, atol=0) for s, e in zip(scores, expected)
    )


def check_global_prune() -> bool:
    mask = full_mask([4, 3, 2])
    scores = score_random(mask, seed=17)
    pruned = global_prune(mask, scores, 0.25)
    kept_before, kept_after = mask.kept_count(), pruned.kept_count()
    if kept_before - kept_after != math.floor(0.25 * kept_before + 0.5):
        return False
    deeper = global_prune(pruned, score_random(pruned, seed=18), 0.5)
    if not all(np.all(d <= p) for d, p in zip(deeper.layers, pruned.layers)):
        return False
    tied = [np.floor(3 * s) for s in scores]
    fast, slow = global_prune(mask, tied, 0.4), global_prune_sorted(mask, tied, 0.4)
    return all(np.array_equal(a, b) for a, b in zip(fast.layers, slow.layers))


def check_mask_algebra() -> bool:
    arch = [3, 4, 2]
    net = init_network(arch, seed=19)
    mask = full_mask(arch)
    mask.layers[0][0, :] = 0
    once = apply_mask(net, mask)
    twice = apply_mask(once, mask)
    idempotent = all(np.array_equal(a, b) for a, b in zip(once.weights, twice.weights))
    trained = init_network(arch, seed=20)
    rewound = rewind(trained, net, mask)
    fidelity = all(
        np.array_equal(r[m], w[m]) and np.all(r[~m] == 0.0)
        for r, w, m in zip(rewound.weights, net.weights, mask.layers)
    )
    return idempotent and fidelity


def check_movement_oracle() -> bool:
    arch = [3, 4, 2]
    a, b = init_network(arch, seed=23), init_network(arch, seed=29)
    mask = full_mask(arch)
    mask.layers[1][0, 1] = 0
    report = weight_movement(a, b, mask)
    acc, count = movement_element_loop(a, b, mask)
    return report.weight_abs_dif == acc and report.unpruned_count == count


def check_idx_roundtrip() -> bool:
    labels = np.arange(6, dtype=np.int64) % 3
    inputs = (np.arange(6 * 4, dtype=np.float64).reshape(6, 4) % 256) / 255.0
    ds = Dataset(inputs, labels)
    with tempfile.TemporaryDirectory() as tmp:
        imgs, labs = Path(tmp) / "i.idx", Path(tmp) / "l.idx"
        write_idx(ds, imgs, labs, rows=2, cols=2)
        back = load_idx(imgs, labs)
    return np.array_equal(back.inputs, ds.inputs) and np.array_equal(back.labels, ds.labels)


def check_l1_scores() -> bool:
    net = init_network([2, 3], seed=31)
    mask = full_mask([2, 3])
    scores = score_l1(net, mask)
    return np.array_equal(scores[0], np.abs(net.weights[0]))


def check_sparsity_compounding() -> bool:
    mask = full_mask([20, 10, 5])
    for r in range(5):
        mask = global_prune(mask, score_random(mask, seed=100 + r), 0.2)
    expected = 1.0 - 0.8**5
    return abs(sparsity(mask).fraction_pruned - expected) <= 5 / mask.total_count()


CHECKS = (
    ("weight and bias gradients match central finite differences", check_gradients),
    ("softmax rows sum to one", check_softmax_rows),
    ("masked weights stay +0.0 through dense and index updates", check_masked_freeze),
    ("fisher batch size 1 matches per-sample loop", check_fisher_oracle),
    ("global prune removes the exact count, masks shrink monotonically", check_global_prune),
    ("mask application is idempotent, rewind restores kept weights", check_mask_algebra),
    ("weight movement matches an element loop", check_movement_oracle),
    ("idx files round-trip", check_idx_roundtrip),
    ("l1 scores are absolute weights", check_l1_scores),
    ("repeated 20% pruning compounds to 1 - 0.8^n", check_sparsity_compounding),
)


def run_selftest(println=print) -> bool:
    """Run every check; prints one PASS/FAIL line each, returns overall success."""
    ok = True
    for name, fn in CHECKS:
        passed = fn()
        ok = ok and passed
        println(f"[{'PASS' if passed else 'FAIL'}] {name}")
    return ok
