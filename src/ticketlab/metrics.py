"""Weight-movement and connectivity metrics, plus figure-data assembly.

Weight movement compares the trained dense baseline against a trained
pruned network over the kept positions only:

    abs_dif = sum(|baseline - current|)      (kept positions)
    avg_dif = abs_dif / kept_count

The sum accumulates strictly left to right in layer-major, row-major
order (np.add.accumulate), so it is bit-identical to an element loop and
reproducible across runs.

Connectivity counts the unmasked incoming weights of every unit, the
signal used to diagnose over-pruning bottlenecks where units end up with
one or zero inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UsageError
from .masks import PruneMask
from .nn import DenseNetwork
from .results import ExperimentRecord, Table


@dataclass(frozen=True)
class MovementReport:
    weight_abs_dif: float
    weight_avg_dif: float
    unpruned_count: int


@dataclass(eq=False)
class LayerConnectivity:
    """Incoming kept-weight count per unit of one layer."""

    incoming: np.ndarray

    @property
    def min(self) -> int:
        return int(self.incoming.min())

    @property
    def max(self) -> int:
        return int(self.incoming.max())

    @property
    def mean(self) -> float:
        return float(self.incoming.mean())


@dataclass(eq=False)
class ConnectivityReport:
    per_layer: list[LayerConnectivity]


def weight_movement(
    baseline: DenseNetwork, current: DenseNetwork, mask: PruneMask
) -> MovementReport:
    """Total and per-kept-weight absolute distance between two trained networks.

    Only positions kept by `mask` enter the sum. Raises UsageError when the
    mask keeps nothing (the average would be undefined).
    """
    mask.check_pairing(baseline.weights)
    mask.check_pairing(current.weights)
    kept = np.concatenate(
        [np.abs(b - c)[m] for b, c, m in zip(baseline.weights, current.weights, mask.layers)]
    )
    if kept.size == 0:
        raise UsageError("mask keeps no weights; average movement is undefined")
    abs_dif = float(np.add.accumulate(kept)[-1])
    return MovementReport(
        weight_abs_dif=abs_dif,
        weight_avg_dif=abs_dif / kept.size,
        unpruned_count=int(kept.size),
    )


def connectivity_report(mask: PruneMask) -> ConnectivityReport:
    """Per-unit count of unmasked incoming weights, layer by layer."""
    return ConnectivityReport(
        [LayerConnectivity(m.sum(axis=1, dtype=np.int64)) for m in mask.layers]
    )


def _ulp_order(a: np.ndarray) -> np.ndarray:
    """float64 bits as int64 that sort as the floats do; -0.0 and +0.0 both map to 0."""
    bits = a.view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


def bit_difference(a: DenseNetwork, b: DenseNetwork) -> Optional[tuple[str, int, int]]:
    """None when every weight and bias of `a` has the bits of `b`'s. Else the first
    array that differs, taken layer by layer with weights first ("layer 0 weights"),
    then, over all arrays, the count of values whose bits differ and the largest
    distance between two of them in units in the last place (ULP)."""
    first, count, max_ulp = None, 0, 0
    for l, pair in enumerate(zip(a.weights, b.weights, a.biases, b.biases)):
        for part, x, y in (("weights", *pair[:2]), ("biases", *pair[2:])):
            differs = x.view(np.uint64) != y.view(np.uint64)
            if differs.any():
                first = first or f"layer {l} {part}"
                count += int(differs.sum())
                # Unsigned, so that even the distance from -inf to +inf fits.
                lo, hi = np.sort([_ulp_order(x[differs]), _ulp_order(y[differs])], axis=0)
                max_ulp = max(max_ulp, int((hi.view(np.uint64) - lo.view(np.uint64)).max()))
    return None if first is None else (first, count, max_ulp)


FIGURES = ("accuracy_vs_sparsity", "movement_vs_sparsity", "width_comparison", "batch_comparison")


def _series_label(record: ExperimentRecord) -> str:
    return record.label if record.label else f"{record.method}/{record.mode}"


def _final_best(record: ExperimentRecord) -> float:
    return record.rows[-1].best_accuracy


def figure_data(records: Sequence[ExperimentRecord], figure: str) -> Table:
    """Assemble plot-ready long-format data from experiment records.

    accuracy_vs_sparsity / movement_vs_sparsity: one row per record row,
    (series, x=fraction_pruned, y, seed). width_comparison: final pruned
    and dense baseline accuracy per record, x = first hidden width, sorted
    by series, width and seed. batch_comparison: mean and sample stddev of
    the final best accuracy across seeds, grouped by Fisher batch size.
    """
    if figure not in FIGURES:
        raise UsageError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    if not records:
        raise UsageError("no records supplied")

    if figure in ("accuracy_vs_sparsity", "movement_vs_sparsity"):
        rows = []
        for rec in records:
            for row in rec.rows:
                y = row.test_accuracy if figure == "accuracy_vs_sparsity" else row.weight_avg_dif
                rows.append((_series_label(rec), row.fraction_pruned, y, rec.seed))
        return Table(("series", "x", "y", "seed"), rows)

    if figure == "width_comparison":
        rows = []
        for rec in records:
            if len(rec.arch) < 3:
                raise UsageError(f"width_comparison needs a hidden layer, got arch {rec.arch}")
            width = rec.arch[1]
            rows.append((f"pruned:{rec.method}", width, _final_best(rec), rec.seed))
            rows.append(("dense", width, rec.rows[0].best_accuracy, rec.seed))
        rows.sort(key=lambda r: (r[0], r[1], r[3]))
        return Table(("series", "x", "y", "seed"), rows)

    groups: dict[int, list[float]] = {}
    for rec in records:
        if rec.fisher_batch_size is None:
            raise UsageError("batch_comparison needs records produced by the fisher strategy")
        groups.setdefault(rec.fisher_batch_size, []).append(_final_best(rec))
    rows = []
    for bs in sorted(groups):
        ys = np.asarray(groups[bs])
        stddev = float(ys.std(ddof=1)) if ys.size > 1 else 0.0
        rows.append(("fisher", bs, float(ys.mean()), stddev, int(ys.size)))
    return Table(("series", "x", "y_mean", "y_stddev", "n_seeds"), rows)
