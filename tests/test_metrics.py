import numpy as np
import pytest

from ticketlab import (
    PruneMask,
    UsageError,
    connectivity_report,
    figure_data,
    full_mask,
    init_network,
    weight_movement,
)
from ticketlab.metrics import bit_difference
from ticketlab.results import ExperimentRecord, RoundRow
from ticketlab.nn import DenseNetwork
from ticketlab.oracles import movement_element_loop

from test_masks import random_mask


def make_record(rows, method="l1", mode="iterative", seed=0, arch=(4, 3, 2), batch=None):
    return ExperimentRecord(
        experiment_id="t",
        method=method,
        mode=mode,
        seed=seed,
        arch=arch,
        fisher_batch_size=batch,
        rows=rows,
    )


def row(r, frac, acc, best=None, movement=0.0):
    return RoundRow(
        round=r,
        fraction_pruned=frac,
        test_accuracy=acc,
        best_accuracy=best if best is not None else acc,
        train_loss=0.5,
        weight_abs_dif=movement * 10,
        weight_avg_dif=movement,
        backward_passes=0,
        seconds=0.0,
    )


class TestWeightMovement:
    def test_identical_networks_give_zero(self, tiny_net, tiny_mask):
        report = weight_movement(tiny_net, tiny_net, tiny_mask)
        assert report.weight_abs_dif == 0.0
        assert report.weight_avg_dif == 0.0
        assert report.unpruned_count == tiny_mask.kept_count()

    def test_hand_example(self):
        base = DenseNetwork([np.array([[1.0, 2.0, 3.0]])], [np.zeros(1)])
        curr = DenseNetwork([np.array([[1.5, 2.0, 0.0]])], [np.zeros(1)])
        mask = PruneMask([np.array([[1, 1, 0]], dtype=np.uint8)])
        report = weight_movement(base, curr, mask)
        assert report.weight_abs_dif == 0.5
        assert report.unpruned_count == 2
        assert report.weight_avg_dif == 0.25

    def test_constant_shift_full_mask(self, tiny_net, tiny_arch):
        shifted = DenseNetwork(
            [w + 0.1 for w in tiny_net.weights], [b.copy() for b in tiny_net.biases]
        )
        report = weight_movement(tiny_net, shifted, full_mask(tiny_arch))
        assert report.weight_avg_dif == pytest.approx(0.1, rel=1e-12)

    def test_matches_element_loop_bitwise(self):
        """Same summation order as a plain loop, so equality is exact."""
        arch = (5, 6, 4)
        for seed in range(20):
            a = init_network(arch, seed=seed)
            b = init_network(arch, seed=seed + 1000)
            mask = random_mask(arch, seed, keep_prob=0.7)
            if mask.kept_count() == 0:
                continue
            report = weight_movement(a, b, mask)
            acc, count = movement_element_loop(a, b, mask)
            assert report.weight_abs_dif == acc
            assert report.unpruned_count == count

    def test_average_identity_within_ulp(self):
        arch = (6, 5, 3)
        a = init_network(arch, seed=1)
        b = init_network(arch, seed=2)
        mask = full_mask(arch)
        report = weight_movement(a, b, mask)
        recomposed = report.weight_avg_dif * report.unpruned_count
        assert abs(recomposed - report.weight_abs_dif) <= np.spacing(report.weight_abs_dif)

    def test_empty_mask_rejected(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        for m in mask.layers:
            m[:] = 0
        with pytest.raises(UsageError):
            weight_movement(tiny_net, tiny_net, mask)


class TestBitDifference:
    def test_first_array_count_and_max_ulp(self):
        a = init_network((3, 4, 2), seed=1)
        b = a.copy()
        assert bit_difference(a, b) is None
        b.biases[0][0] = -0.0  # other bits, same value: 0 ULP
        b.weights[1][1, 2] = np.nextafter(np.nextafter(b.weights[1][1, 2], np.inf), np.inf)
        assert bit_difference(a, b) == ("layer 0 biases", 2, 2)
        a.weights[0][0, 0], b.weights[0][0, 0] = -np.inf, np.inf
        assert bit_difference(a, b) == ("layer 0 weights", 3, 2 * 0x7FF0_0000_0000_0000)


class TestConnectivity:
    def test_unpruned_lenet_output_units_have_100(self):
        report = connectivity_report(full_mask([784, 300, 100, 10]))
        out = report.per_layer[-1]
        assert out.min == out.max == 100
        assert np.array_equal(out.incoming, np.full(10, 100))

    def test_all_zero_mask(self):
        mask = full_mask([4, 3, 2])
        for m in mask.layers:
            m[:] = 0
        report = connectivity_report(mask)
        assert all(layer.max == 0 for layer in report.per_layer)

    def test_conservation(self):
        """Per-layer sum of incoming counts equals the layer's kept count."""
        arch = (7, 6, 5)
        for seed in range(10):
            mask = random_mask(arch, seed, keep_prob=0.4)
            report = connectivity_report(mask)
            for layer, m in zip(report.per_layer, mask.layers):
                assert int(layer.incoming.sum()) == int(m.sum())


class TestFigureData:
    def test_single_record_row_count(self):
        rec = make_record([row(0, 0.0, 0.9), row(1, 0.2, 0.88)])
        table = figure_data([rec], "accuracy_vs_sparsity")
        assert len(table.rows) == 2
        assert table.columns == ("series", "x", "y", "seed")

    def test_movement_values_nonnegative(self):
        rec = make_record([row(0, 0.0, 0.9, movement=0.0), row(1, 0.2, 0.88, movement=0.03)])
        table = figure_data([rec], "movement_vs_sparsity")
        assert all(r[2] >= 0 for r in table.rows)

    def test_batch_comparison_three_seeds(self):
        records = []
        for bs in (1, 100):
            for seed, acc in ((0, 0.90), (1, 0.92), (2, 0.91)):
                records.append(
                    make_record([row(0, 0.0, 0.95), row(1, 0.9, acc)], seed=seed, batch=bs)
                )
        table = figure_data(records, "batch_comparison")
        assert len(table.rows) == 2
        for series, bs, mean, stddev, n in table.rows:
            assert n == 3
            assert mean == pytest.approx(0.91)
            assert stddev == pytest.approx(np.std([0.90, 0.92, 0.91], ddof=1))

    def test_batch_comparison_needs_fisher_records(self):
        rec = make_record([row(0, 0.0, 0.9)])
        with pytest.raises(UsageError):
            figure_data([rec], "batch_comparison")

    def test_width_comparison_uses_first_hidden_size(self):
        recs = [
            make_record([row(0, 0.0, 0.9), row(1, 0.9, 0.85)], arch=(10, 300, 100, 2)),
            make_record([row(0, 0.0, 0.92), row(1, 0.9, 0.9)], arch=(10, 600, 200, 2)),
        ]
        table = figure_data(recs, "width_comparison")
        xs = {r[1] for r in table.rows}
        assert xs == {300, 600}

    def test_width_comparison_sorts_widths_numerically(self):
        recs = [
            make_record([row(0, 0.0, 0.9), row(1, 0.9, 0.85)], arch=(10, 1000, 2)),
            make_record([row(0, 0.0, 0.92), row(1, 0.9, 0.9)], arch=(10, 300, 2)),
        ]
        table = figure_data(recs, "width_comparison")
        assert [(r[0], r[1]) for r in table.rows] == [
            ("dense", 300), ("dense", 1000), ("pruned:l1", 300), ("pruned:l1", 1000)
        ]

    def test_width_comparison_needs_a_hidden_layer(self):
        rec = make_record([row(0, 0.0, 0.9), row(1, 0.9, 0.85)], arch=(4, 2))
        with pytest.raises(UsageError, match="hidden layer"):
            figure_data([rec], "width_comparison")

    def test_unknown_figure_rejected(self):
        with pytest.raises(UsageError):
            figure_data([make_record([row(0, 0.0, 0.9)])], "nope")

    def test_empty_records_rejected(self):
        with pytest.raises(UsageError):
            figure_data([], "accuracy_vs_sparsity")
