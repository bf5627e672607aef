"""Binary pruning masks, sparsity accounting, and weight rewinding.

A mask mirrors a network's weight matrices with bool entries: True keeps
the weight, False prunes it. Biases are never masked. Masks are stored
densely so positional lookup stays O(1) for the scoring strategies. All
operations here are pure functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .nn import DenseNetwork, check_layer_sizes, masked_weights


@dataclass(eq=False)
class PruneMask:
    """Per-layer bool keep indicators, shape-identical to the paired weights (0/1 input is fine)."""

    layers: list[np.ndarray]

    def __post_init__(self) -> None:
        clean = []
        for l, m in enumerate(self.layers):
            m = np.asarray(m)
            if m.ndim != 2:
                raise ShapeError(f"mask layer {l} must be 2-D, got shape {m.shape}")
            if m.dtype != bool and not ((m == 0) | (m == 1)).all():
                raise ShapeError(f"mask layer {l} has entries outside {{0, 1}}")
            if l > 0 and m.shape[1] != clean[l - 1].shape[0]:
                raise ShapeError(f"mask layer {l} does not chain with layer {l - 1}")
            clean.append(np.array(m, dtype=bool))
        self.layers = clean

    def check_pairing(self, arrays: Sequence[np.ndarray], what: str = "weight") -> None:
        """Raise ShapeError unless `arrays` has one array per mask layer, shaped alike."""
        if len(arrays) != len(self.layers):
            raise ShapeError(f"mask has {len(self.layers)} layers, {what}s have {len(arrays)}")
        for l, (m, a) in enumerate(zip(self.layers, arrays)):
            if m.shape != a.shape:
                raise ShapeError(f"layer {l}: mask shape {m.shape} vs {what} shape {a.shape}")

    def kept_count(self) -> int:
        return int(sum(int(m.sum()) for m in self.layers))

    def total_count(self) -> int:
        return int(sum(m.size for m in self.layers))


@dataclass(frozen=True)
class LayerSparsity:
    total: int
    pruned: int

    @property
    def fraction_pruned(self) -> float:
        return self.pruned / self.total


@dataclass(frozen=True)
class SparsityReport:
    """Exact pruned/kept counts, overall and per layer."""

    total_weights: int
    pruned_weights: int
    fraction_pruned: float
    per_layer: tuple[LayerSparsity, ...]


def full_mask(arch: Sequence[int]) -> PruneMask:
    """All-True mask for the given architecture (nothing pruned)."""
    sizes = check_layer_sizes(arch)
    return PruneMask(
        [np.ones((sizes[l + 1], sizes[l]), dtype=bool) for l in range(len(sizes) - 1)]
    )


def apply_mask(net: DenseNetwork, mask: PruneMask) -> DenseNetwork:
    """Zero the masked weight positions; kept positions and biases are untouched."""
    _, weights = masked_weights(net, mask)
    return DenseNetwork(weights, [b.copy() for b in net.biases])


def rewind(initial: DenseNetwork, mask: PruneMask) -> DenseNetwork:
    """`initial`, the iteration-0 network, with its masked weights set to exactly 0:
    the network a pruning round retrains. Kept weights and all biases keep their
    initial values. ShapeError if `mask` does not pair with `initial`."""
    return apply_mask(initial, mask)


def sparsity(mask: PruneMask) -> SparsityReport:
    """Exact integer sparsity accounting for a mask."""
    per_layer = []
    for m in mask.layers:
        total = int(m.size)
        per_layer.append(LayerSparsity(total=total, pruned=total - int(m.sum())))
    total = sum(e.total for e in per_layer)
    pruned = sum(e.pruned for e in per_layer)
    return SparsityReport(
        total_weights=total,
        pruned_weights=pruned,
        fraction_pruned=pruned / total,
        per_layer=tuple(per_layer),
    )
