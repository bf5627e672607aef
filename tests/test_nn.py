import hashlib
import tracemalloc

import numpy as np
import pytest

from ticketlab import (
    Dataset,
    ShapeError,
    TrainConfig,
    UsageError,
    evaluate,
    forward,
    full_mask,
    gen_synthetic,
    init_network,
    loss_and_grads,
    sgd_step,
    train,
)
from ticketlab import PruneMask, apply_mask, nn, rewind, rng
from ticketlab.nn import DenseNetwork, _keep, _zero_pruned, masked_weights
from ticketlab.oracles import finite_difference, whole_set_accuracy, worst_relative_error

from conftest import networks_equal
from test_masks import random_mask


class TestInitNetwork:
    def test_parameter_counts_lenet(self):
        net = init_network([784, 300, 100, 10], seed=0)
        assert sum(w.size for w in net.weights) == 784 * 300 + 300 * 100 + 100 * 10 == 266_200
        assert sum(b.size for b in net.biases) == 300 + 100 + 10 == 410

    def test_layer_shapes_lenet(self):
        net = init_network([784, 300, 100, 10], seed=0)
        assert [w.shape for w in net.weights] == [(300, 784), (100, 300), (10, 100)]

    def test_same_seed_bitwise_equal(self):
        assert networks_equal(init_network([2, 2], seed=7), init_network([2, 2], seed=7))

    def test_networks_equal_sees_the_sign_of_zero(self):
        net = DenseNetwork([np.zeros((2, 3))], [np.zeros(2)])
        signed = net.copy()
        signed.weights[0][1, 2] = -0.0
        assert networks_equal(net, net.copy())
        assert not networks_equal(net, signed)

    def test_biases_zero_and_weights_bounded(self):
        net = init_network([9, 4, 3], seed=1)
        assert all(np.all(b == 0.0) for b in net.biases)
        for w in net.weights:
            bound = 1.0 / np.sqrt(w.shape[1])
            assert np.all(np.abs(w) <= bound)

    def test_bad_arch_rejected(self):
        with pytest.raises(UsageError):
            init_network([5], seed=0)
        with pytest.raises(UsageError):
            init_network([5, 0, 2], seed=0)

    def test_shape_chain_enforced(self):
        with pytest.raises(ShapeError):
            DenseNetwork(
                [np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(4), np.zeros(2)]
            )


class TestForward:
    def test_zero_network_is_uniform(self):
        net = DenseNetwork(
            [np.zeros((4, 3)), np.zeros((5, 4))], [np.zeros(4), np.zeros(5)]
        )
        probs = forward(net, None, np.ones((3, 3)))
        assert np.array_equal(probs, np.full((3, 5), 0.2))

    def test_zero_mask_equals_zero_weights(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        for m in mask.layers:
            m[:] = 0
        zeroed = DenseNetwork(
            [np.zeros_like(w) for w in tiny_net.weights],
            [b.copy() for b in tiny_net.biases],
        )
        x = rng.normals(1, 4 * 3).reshape(4, 3)
        assert np.array_equal(forward(tiny_net, mask, x), forward(zeroed, None, x))

    def test_single_layer_equal_logits(self):
        net = DenseNetwork([np.array([[1.0], [0.0]])], [np.zeros(2)])
        probs = forward(net, None, np.array([[0.0]]))
        assert np.array_equal(probs, np.array([[0.5, 0.5]]))

    def test_rows_sum_to_one(self, tiny_net, tiny_mask):
        x = rng.normals(2, 50 * 3).reshape(50, 3) * 3.0
        probs = forward(tiny_net, tiny_mask, x)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_dimension_mismatch(self, tiny_net, tiny_mask):
        with pytest.raises(ShapeError):
            forward(tiny_net, tiny_mask, np.zeros((2, 5)))


class TestLossAndGrads:
    def test_duplicated_batch_invariance(self, tiny_net, tiny_mask):
        x = rng.normals(3, 5 * 3).reshape(5, 3)
        y = np.array([0, 1, 1, 0, 1])
        batch = Dataset(x, y)
        doubled = Dataset(np.vstack([x, x]), np.concatenate([y, y]))
        loss1, g1 = loss_and_grads(tiny_net, tiny_mask, batch)
        loss2, g2 = loss_and_grads(tiny_net, tiny_mask, doubled)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1.weights, g2.weights):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_gradients_match_finite_differences(self, tiny_net, tiny_mask):
        """Every analytic partial vs a central difference on 5 random points."""
        batch = Dataset(rng.normals(21, 5 * 3).reshape(5, 3), np.array([0, 1, 0, 1, 1]))
        _, grads = loss_and_grads(tiny_net, tiny_mask, batch)
        fd = finite_difference(tiny_net, tiny_mask, batch)
        assert worst_relative_error(grads, fd) < 1e-4

    def test_masked_positions_get_zero_gradient(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        mask.layers[0][1, :] = 0
        mask.layers[1][0, 2] = 0
        batch = Dataset(rng.normals(4, 6 * 3).reshape(6, 3), np.array([0, 1, 1, 0, 1, 0]))
        _, grads = loss_and_grads(tiny_net, mask, batch)
        assert np.all(grads.weights[0][1, :] == 0.0)
        assert grads.weights[1][0, 2] == 0.0

    def test_loss_nonnegative(self, tiny_net, tiny_mask):
        batch = Dataset(rng.normals(6, 8 * 3).reshape(8, 3), np.zeros(8, dtype=int))
        loss, _ = loss_and_grads(tiny_net, tiny_mask, batch)
        assert loss >= 0.0

    def test_empty_batch_rejected(self, tiny_net, tiny_mask):
        with pytest.raises(UsageError):
            loss_and_grads(tiny_net, tiny_mask, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))

    def test_out_of_range_label_rejected(self, tiny_net, tiny_mask):
        with pytest.raises(UsageError):
            loss_and_grads(tiny_net, tiny_mask, Dataset(np.zeros((1, 3)), np.array([2])))


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self, tiny_net, tiny_mask):
        batch = Dataset(rng.normals(7, 4 * 3).reshape(4, 3), np.array([0, 1, 0, 1]))
        _, grads = loss_and_grads(tiny_net, tiny_mask, batch)
        stepped = sgd_step(tiny_net, grads, tiny_mask, lr=0.0)
        assert networks_equal(stepped, tiny_net)

    def test_update_arithmetic(self):
        net = DenseNetwork([np.array([[1.0]])], [np.zeros(1)])
        grads = DenseNetwork([np.array([[0.5]])], [np.zeros(1)])
        stepped = sgd_step(net, grads, None, lr=0.1)
        assert stepped.weights[0][0, 0] == 0.95

    def test_masked_weight_stays_exactly_zero(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        mask.layers[0][0, 0] = 0
        net = apply_mask(tiny_net, mask)
        grads = DenseNetwork(
            [np.ones_like(w) for w in net.weights], [np.ones_like(b) for b in net.biases]
        )
        stepped = sgd_step(net, grads, mask, lr=0.5)
        assert stepped.weights[0][0, 0] == 0.0

    def test_biases_always_updated(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        for m in mask.layers:
            m[:] = 0
        grads = DenseNetwork(
            [np.zeros_like(w) for w in tiny_net.weights],
            [np.ones_like(b) for b in tiny_net.biases],
        )
        stepped = sgd_step(tiny_net, grads, mask, lr=0.1)
        for b in stepped.biases:
            assert np.all(b == -0.1)


class TestTrain:
    def test_loss_not_worse_after_epoch_on_separable_data(self):
        data = gen_synthetic(2, 2, 40, seed=3, noise=0.05)
        net = init_network([2, 4, 2], seed=1)
        mask = full_mask([2, 4, 2])
        before, _ = loss_and_grads(net, mask, data)
        trained, history = train(net, mask, data, TrainConfig(epochs=1, seed=0))
        after, _ = loss_and_grads(trained, mask, data)
        assert after <= before
        assert len(history) == 1

    def test_bit_identical_reruns(self, blob_data):
        net = init_network([6, 5, 3], seed=2)
        mask = full_mask([6, 5, 3])
        cfg = TrainConfig(epochs=3, seed=9)
        a, ha = train(net, mask, blob_data, cfg)
        b, hb = train(net, mask, blob_data, cfg)
        assert networks_equal(a, b)
        assert ha == hb

    def test_all_zero_mask_moves_only_biases(self, blob_data):
        net = init_network([6, 5, 3], seed=2)
        mask = full_mask([6, 5, 3])
        for m in mask.layers:
            m[:] = 0
        trained, _ = train(net, mask, blob_data, TrainConfig(epochs=2, seed=0))
        assert all(np.all(w == 0.0) for w in trained.weights)
        assert any(not np.array_equal(a, b) for a, b in zip(trained.biases, net.biases))

    def test_masked_positions_zero_after_training(self, blob_data):
        net = init_network([6, 5, 3], seed=4)
        mask = full_mask([6, 5, 3])
        mask.layers[0][::2, 1::2] = 0
        mask.layers[1][2, :] = 0
        trained, _ = train(net, mask, blob_data, TrainConfig(epochs=3, seed=1))
        for w, m in zip(trained.weights, mask.layers):
            assert np.all(w[~m.astype(bool)] == 0.0)

    def test_epoch_zero_rejected(self):
        with pytest.raises(UsageError):
            TrainConfig(epochs=0)

    def test_history_length_equals_epochs(self, blob_data):
        net = init_network([6, 5, 3], seed=2)
        _, history = train(net, full_mask([6, 5, 3]), blob_data, TrainConfig(epochs=4, seed=0))
        assert len(history) == 4

    def test_eval_label_past_class_count_rejected_before_training(self, blob_data, monkeypatch):
        """Counted as a wrong answer, such a label would lower every recorded accuracy."""
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran before the evaluation data was checked")

        monkeypatch.setattr(nn, "_loss_and_grads_arrays", no_step)
        eval_data = Dataset(blob_data.inputs[:3], np.array([0, 3, 1]))
        with pytest.raises(UsageError, match="evaluation data label 3 out of range for 3 classes"):
            train(init_network([6, 5, 3], seed=2), None, blob_data, TrainConfig(epochs=1),
                  eval_data=eval_data)


class TestEvaluate:
    def test_zero_network_on_balanced_ten_classes(self):
        """Constant argmax picks class 0 via the lowest-index tie break."""
        net = DenseNetwork([np.zeros((10, 4))], [np.zeros(10)])
        labels = np.tile(np.arange(10), 5)
        data = Dataset(np.ones((50, 4)), labels)
        assert evaluate(net, None, data) == pytest.approx(0.1)

    def test_single_correct_point(self):
        net = DenseNetwork([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
        data = Dataset(np.array([[5.0, 0.0]]), np.array([0]))
        assert evaluate(net, None, data) == 1.0

    def test_empty_dataset_rejected(self, tiny_net):
        with pytest.raises(UsageError):
            evaluate(tiny_net, None, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))

    def test_label_past_class_count_rejected(self):
        """A 2-class network cannot answer 5, so the row is no wrong answer but a bad input."""
        net = DenseNetwork([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
        data = Dataset(np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]]), np.array([0, 1, 5]))
        with pytest.raises(UsageError, match="label 5 out of range for 2 classes"):
            evaluate(net, None, data)


def array_bytes(arrays):
    return [a.tobytes() for a in arrays]


# Values whose bits a select and a multiply of the bits could treat differently,
# negative NaN included.
SPECIAL = np.array(
    [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.5]
)


class TestKeepBits:
    """The masking step, the bits of `a` times the bool mask layer, equals
    `np.where(kept, a, 0.0)` in every bit."""

    @staticmethod
    def values(shape, seed):
        a = rng.normals(seed, int(np.prod(shape))).reshape(shape)
        flat = a.reshape(-1)
        flat[: 3 * SPECIAL.size] = np.tile(SPECIAL, 3)
        flat[-SPECIAL.size :] = SPECIAL
        return a

    @pytest.mark.parametrize("kept_count", [0, 4, 500, 1000], ids=["0%", "0.4%", "50%", "100%"])
    def test_matches_where_bit_for_bit(self, kept_count):
        a = self.values((25, 40), seed=3)
        kept = np.zeros(a.size, dtype=bool)
        kept[rng.permutation(5, a.size)[:kept_count]] = True
        kept = kept.reshape(a.shape)
        expected = np.where(kept, a, 0.0).view(np.uint64)
        keep = _keep(kept)
        assert keep is (None if kept_count == a.size else kept)

        fresh = _zero_pruned(a, keep)
        assert fresh is not a
        assert np.array_equal(fresh.view(np.uint64), expected)
        in_place = a.copy()
        assert _zero_pruned(in_place, keep, out=in_place) is in_place
        assert np.array_equal(in_place.view(np.uint64), expected)

    def test_compacted_layer_matches_where_bit_for_bit(self):
        """A layer run on its live columns is masked by its keep layer's copy of them."""
        a = self.values((25, 40), seed=4)
        layer = np.zeros(a.shape, dtype=bool)
        layer[rng.permutation(7, 25)[:12], 3] = True
        layer[:, [11, 30]] = rng.uniforms(8, 50).reshape(25, 2) < 0.5
        net = DenseNetwork([a], [np.zeros(25)])
        mask = PruneMask([layer])
        plan = nn._plan(net, mask)
        assert plan.cols[0].tolist() == [3, 11, 30]
        expected = np.where(layer, a, 0.0)[:, [3, 11, 30]]
        assert np.array_equal(plan.keep[0], layer[:, [3, 11, 30]])
        assert np.array_equal(plan.weights(net)[0].view(np.uint64), expected.view(np.uint64))

    def test_masked_weights_with_all_pruned_and_all_kept_layers(self):
        arch = (40, 25, 30, 20)
        net = DenseNetwork(
            [self.values((arch[l + 1], arch[l]), seed=10 + l) for l in range(3)],
            [np.zeros(arch[l + 1]) for l in range(3)],
        )
        mask = random_mask(arch, seed=6, keep_prob=0.5)
        mask.layers[0][:] = False
        mask.layers[2][:] = True
        keep, weights = masked_weights(net, mask)
        assert keep[0] is mask.layers[0] and keep[2] is None
        for w, k, out in zip(net.weights, mask.layers, weights):
            assert out is not w
            assert np.array_equal(out.view(np.uint64), np.where(k, w, 0.0).view(np.uint64))


def operation_inputs(operation, mask_kind):
    """(call, arrays) for one operation: calling `call()` runs it on arrays it must not change."""
    arch = (6, 5, 3)
    net = init_network(arch, seed=13)
    mask = {
        "none": None,
        "full": full_mask(arch),
        "partial": random_mask(arch, seed=2, keep_prob=0.5),
    }[mask_kind]
    data = gen_synthetic(3, 6, 40, seed=8)
    _, grads = loss_and_grads(net, None, data)
    calls = {
        "train": lambda: train(net, mask, data, TrainConfig(epochs=2, train_batch_size=16)),
        "sgd_step": lambda: sgd_step(net, grads, mask, lr=0.5),
        "loss_and_grads": lambda: loss_and_grads(net, mask, data),
        "forward": lambda: forward(net, mask, data.inputs),
        "evaluate": lambda: evaluate(net, mask, data),
        "apply_mask": lambda: apply_mask(net, mask),
        "rewind": lambda: rewind(net, mask),
    }
    arrays = [*net.weights, *net.biases, data.inputs, data.labels]
    arrays += [*grads.weights, *grads.biases, *(mask.layers if mask else [])]
    return calls[operation], arrays


class TestInputsUnchanged:
    @pytest.mark.parametrize(
        "operation, mask_kind",
        [
            (op, kind)
            for op in [
                "train", "sgd_step", "loss_and_grads", "forward", "evaluate", "apply_mask", "rewind"
            ]
            for kind in ["none", "full", "partial"]
            if not (kind == "none" and op in ("apply_mask", "rewind"))
        ],
    )
    def test_every_input_array_is_byte_identical_after_the_call(self, operation, mask_kind):
        call, arrays = operation_inputs(operation, mask_kind)
        before = array_bytes(arrays)
        call()
        assert array_bytes(arrays) == before


def live_in_columns(mask, layer, columns):
    """`mask` with layer `layer` pruned outside its input `columns`."""
    dead = np.ones(mask.layers[layer].shape[1], dtype=bool)
    dead[columns] = False
    mask.layers[layer][:, dead] = False
    return mask


def reference_train(net, mask, data, cfg, eval_data=None):
    """`train` rebuilt from the public loss_and_grads, sgd_step and evaluate."""
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(rng.derive(cfg.seed, 2, epoch), len(data))
        loss_sum = 0.0
        for start in range(0, len(data), cfg.train_batch_size):
            idx = order[start : start + cfg.train_batch_size]
            loss, grads = loss_and_grads(net, mask, data.take(idx))
            loss_sum += loss * idx.shape[0]
            net = sgd_step(net, grads, mask, cfg.learning_rate)
        measure = data if eval_data is None else eval_data
        history.append((loss_sum / len(data), evaluate(net, mask, measure)))
    return net, history


class TestTrainMatchesPublicApi:
    @pytest.mark.parametrize(
        "make_mask",
        [
            lambda net, arch: random_mask(arch, seed=4, keep_prob=0.5),
            lambda net, arch: random_mask(arch, seed=5, keep_prob=0.1),
            # Pruning exactly the negative weights: a multiplicative zeroing would leave -0.0.
            lambda net, arch: PruneMask([w > 0 for w in net.weights]),
            lambda net, arch: live_in_columns(random_mask(arch, seed=6, keep_prob=0.7), 0, [1, 4]),
        ],
        ids=["50%", "10%", "negative-weights-pruned", "layer-0-two-of-six-columns-live"],
    )
    def test_bit_identical_to_reference_loop(self, blob_data, make_mask):
        arch = (6, 5, 3)
        net = init_network(arch, seed=21)
        mask = make_mask(net, arch)
        cfg = TrainConfig(epochs=4, learning_rate=0.3, train_batch_size=16, seed=7)
        trained, history = train(net, mask, blob_data, cfg)
        expected, expected_history = reference_train(net, mask, blob_data, cfg)
        assert array_bytes(trained.weights) == array_bytes(expected.weights)
        assert array_bytes(trained.biases) == array_bytes(expected.biases)
        assert history == expected_history
        for w, m in zip(trained.weights, mask.layers):
            assert np.all(w[~m] == 0.0)
            assert not np.signbit(w[~m]).any()

    def test_bit_identical_with_eval_data_of_several_blocks(self, blob_data):
        """Layer 0 compacted and an eval set of more than two blocks."""
        arch = (6, 5, 3)
        net = init_network(arch, seed=23)
        mask = live_in_columns(random_mask(arch, seed=6, keep_prob=0.7), 0, [1, 4])
        assert nn._plan(net, mask).cols[0] is not None
        eval_data = gen_synthetic(3, 6, nn._FORWARD_BLOCK_ROWS, seed=24, noise=0.4)
        assert len(eval_data) > 2 * nn._FORWARD_BLOCK_ROWS
        cfg = TrainConfig(epochs=3, learning_rate=0.3, train_batch_size=16, seed=9)
        trained, history = train(net, mask, blob_data, cfg, eval_data=eval_data)
        expected, expected_history = reference_train(net, mask, blob_data, cfg, eval_data)
        assert array_bytes(trained.weights) == array_bytes(expected.weights)
        assert array_bytes(trained.biases) == array_bytes(expected.biases)
        assert history == expected_history


class TestBlockedEvaluation:
    """`forward` and `evaluate` run blocks of `_FORWARD_BLOCK_ROWS` rows."""

    ARCH = (40, 300, 4)

    def network(self, compacted):
        net = init_network(self.ARCH, seed=51)
        mask = random_mask(self.ARCH, seed=52, keep_prob=0.6)
        if compacted:
            live_in_columns(mask, 0, np.arange(0, 40, 3))
        assert (nn._plan(net, mask).cols[0] is not None) == compacted
        data = gen_synthetic(4, 40, 50, seed=53, noise=0.5)
        net, _ = train(net, mask, data, TrainConfig(epochs=2, learning_rate=0.2, seed=54))
        return net, mask

    @pytest.mark.parametrize("blocks", [0.5, 1, 2.5])
    @pytest.mark.parametrize("compacted", [False, True], ids=["whole", "layer-0-compacted"])
    def test_accuracy_equals_whole_set_reference(self, blocks, compacted):
        net, mask = self.network(compacted)
        per_class = int(blocks * nn._FORWARD_BLOCK_ROWS) // 4
        data = gen_synthetic(4, 40, per_class, seed=55, noise=0.5)
        assert len(data) == blocks * nn._FORWARD_BLOCK_ROWS
        accuracy = evaluate(net, mask, data)
        assert 0.3 < accuracy < 1.0
        assert accuracy == whole_set_accuracy(net, mask, data)
        probs = forward(net, mask, data.inputs)
        assert probs.shape == (len(data), 4)
        assert accuracy == np.mean(probs.argmax(axis=1) == data.labels)

    def test_memory_does_not_grow_with_rows(self):
        net, mask = self.network(compacted=False)

        def peak(blocks):
            data = gen_synthetic(4, 40, blocks * nn._FORWARD_BLOCK_ROWS // 4, seed=56)
            tracemalloc.start()
            try:
                evaluate(net, mask, data)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < 1.5 * peak(1)


@pytest.mark.parametrize(
    "kept, cols, has_keep, index",
    [
        ([(r, c) for r in range(5) for c in (0, 2)], None, True, None),
        ([(0, 1), (2, 1)], [1], True, None),
        ([], [], False, None),
        ([(0, 0), (1, 1), (2, 2)], None, True, None),
        ([(0, 0), (1, 1)], None, True, [0, 5]),
        ([(r, c) for r in range(5) for c in range(4)], None, False, None),
        (None, None, False, None),
    ],
    ids=["2-of-4-columns-whole", "1-of-4-columns-compacts", "0-columns-empty-layer",
         "15%-kept", "one-weight-under-15%", "all-kept", "no-mask"],
)
def test_plan_edges(kept, cols, has_keep, index):
    """`_plan` of a 4-in, 5-out layer keeping the (row, column) positions `kept`; None is
    no mask. Live columns compact under half the inputs, and a kept index comes under 15%
    of the weights of the matrix the layer runs on."""
    net = init_network((4, 5), seed=0)
    mask = None
    if kept is not None:
        layer = np.zeros((5, 4), dtype=bool)
        layer[tuple(np.array(kept, dtype=int).reshape(-1, 2).T)] = True
        mask = PruneMask([layer])
    plan = nn._plan(net, mask)
    assert [None if c is None else c.tolist() for c in plan.cols] == [cols]
    assert [k is not None for k in plan.keep] == [has_keep]
    if has_keep:
        assert np.array_equal(plan.keep[0], nn._columns(mask.layers[0], plan.cols[0]))
        # Uncompacted, the plan holds the mask's own layer; compacted, a copy of its columns.
        assert (plan.keep[0] is mask.layers[0]) == (cols is None)
    assert [None if k is None else k.tolist() for k in plan.kept] == [index]


PATH_PARAMS = pytest.mark.parametrize(
    "kept_count, layer1_pruned",
    [(0, False), (4, False), (50, False), (500, False), (1000, False), (50, True)],
    ids=["0%", "0.4%", "5%", "50%", "100%", "5%-layer-1-all-pruned"],
)


class TestIndexUpdate:
    """`train`'s index update of sparse layers gives the same bits as the masked dense update."""

    ARCH = (50, 20, 8, 3)

    @staticmethod
    def train_through(monkeypatch, below, *args, compact_below=0.0):
        """`train(*args)` with `_INDEX_UPDATE_BELOW` at `below` and `_COMPACT_BELOW` at
        `compact_below` (by default no layer is compacted), and which layers it indexed."""
        indexed = []
        update = nn._sgd_update

        def spy(weights, biases, grad_w, grad_b, lr, kept):
            indexed.append([k is not None for k in kept])
            update(weights, biases, grad_w, grad_b, lr, kept)

        with monkeypatch.context() as patch:
            patch.setattr(nn, "_INDEX_UPDATE_BELOW", below)
            patch.setattr(nn, "_COMPACT_BELOW", compact_below)
            patch.setattr(nn, "_sgd_update", spy)
            trained, history = train(*args)
        return trained, history, indexed[0]

    def check_paths(self, monkeypatch, kept_count, layer1_pruned, compact_below):
        net = init_network(self.ARCH, seed=31)
        mask = random_mask(self.ARCH, seed=8, keep_prob=0.3)
        kept = np.zeros(net.weights[0].size, dtype=bool)
        kept[rng.permutation(6, kept.size)[:kept_count]] = True
        mask.layers[0] = kept.reshape(net.weights[0].shape)
        if layer1_pruned:
            mask.layers[1][:] = False
        mask.layers[2][:] = True
        if kept_count:
            net.weights[0].reshape(-1)[np.flatnonzero(kept)[0]] = -0.0
        data = gen_synthetic(3, self.ARCH[0], 20, seed=12, noise=0.2)
        cfg = TrainConfig(epochs=3, learning_rate=0.4, train_batch_size=16, seed=5)
        args = (net, mask, data, cfg)
        dense, dense_history, dense_indexed = self.train_through(
            monkeypatch, 0.0, *args, compact_below=compact_below
        )
        index, index_history, index_indexed = self.train_through(
            monkeypatch, 1.01, *args, compact_below=compact_below
        )
        with monkeypatch.context() as patch:
            patch.setattr(nn, "_COMPACT_BELOW", compact_below)
            cols = nn._plan(net, mask).cols
        assert dense_indexed == [False, False, False]
        # A compacted layer is indexed unless it keeps every weight of its live columns.
        assert index_indexed == [not nn._columns(m, c).all() for m, c in zip(mask.layers, cols)]
        assert array_bytes(index.weights) == array_bytes(dense.weights)
        assert array_bytes(index.biases) == array_bytes(dense.biases)
        assert index_history == dense_history
        for w, m in zip(index.weights, mask.layers):
            assert not w[~m].view(np.uint64).any()  # +0.0: zero with the sign bit clear
        return cols

    @PATH_PARAMS
    def test_paths_bit_identical(self, monkeypatch, kept_count, layer1_pruned):
        cols = self.check_paths(monkeypatch, kept_count, layer1_pruned, compact_below=0.0)
        assert cols == [None, None, None]

    @PATH_PARAMS
    def test_paths_bit_identical_compacted(self, monkeypatch, kept_count, layer1_pruned):
        """The same with the shipped column rule. Layer 0 keeps weights in 0 and 4 of
        its 50 columns at 0% and 0.4%, and in more than 25 from 5% on; an all-pruned
        layer 1 has no live column."""
        cols = self.check_paths(
            monkeypatch, kept_count, layer1_pruned, compact_below=nn._COMPACT_BELOW
        )
        assert [c is not None for c in cols] == [kept_count <= 4, layer1_pruned, False]

    def test_index_and_dense_layers_in_one_call(self, monkeypatch):
        """At the shipped threshold, one call updates a sparse layer by index and a
        denser one densely; pruned weights of both come back as +0.0."""
        arch = (4, 6, 3)
        net = init_network(arch, seed=5)
        mask = full_mask(arch)
        mask.layers[0][:] = False
        mask.layers[0][::3, 0] = True  # 2 of 24 kept
        mask.layers[1][1, :] = False  # 12 of 18 kept
        data = gen_synthetic(3, 4, 30, seed=9)
        trained, _, indexed = self.train_through(
            monkeypatch, nn._INDEX_UPDATE_BELOW, net, mask, data, TrainConfig(epochs=2, seed=4)
        )
        assert indexed == [True, False]
        for w, m in zip(trained.weights, mask.layers):
            assert not w[~m].view(np.uint64).any()


class TestLiveColumns:
    """Layers with weights in under half their input columns run on those columns only."""

    def test_rule_is_half_the_input_columns(self):
        net = init_network((4, 3, 2), seed=0)
        mask = full_mask((4, 3, 2))
        live_in_columns(mask, 0, [0, 2])  # 2 of 4: at the rule, not under it
        live_in_columns(mask, 1, [1])  # 1 of 3
        cols = nn._plan(net, mask).cols
        assert cols[0] is None and cols[1].tolist() == [1]
        mask.layers[0][:, 2] = False
        assert nn._plan(net, mask).cols[0].tolist() == [0]
        mask.layers[0][:] = False
        assert nn._plan(net, mask).cols[0].tolist() == []

    def test_agrees_with_uncompacted_arithmetic(self, monkeypatch):
        """Layers 0 (10 of 50 columns live) and 1 (5 of 20) compacted, against neither."""
        arch = (50, 20, 8, 3)
        net = init_network(arch, seed=17)
        mask = random_mask(arch, seed=18, keep_prob=0.6)
        live_in_columns(mask, 0, np.arange(0, 50, 5))
        live_in_columns(mask, 1, [2, 3, 7, 11, 19])
        assert [c is not None for c in nn._plan(net, mask).cols] == [True, True, False]
        data = gen_synthetic(3, arch[0], 20, seed=19, noise=0.2)
        cfg = TrainConfig(epochs=3, learning_rate=0.4, train_batch_size=16, seed=20)
        compact, compact_history = train(net, mask, data, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(nn, "_COMPACT_BELOW", 0.0)
            assert nn._plan(net, mask).cols == [None, None, None]
            dense, dense_history = train(net, mask, data, cfg)
        for a, b, m in zip(compact.weights, dense.weights, mask.layers):
            assert np.all(np.abs(a[m] - b[m]) <= 1e-12 * np.abs(b[m]))
            assert not a[~m].view(np.uint64).any() and not b[~m].view(np.uint64).any()
        for a, b in zip(compact.biases, dense.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert [acc for _, acc in compact_history] == [acc for _, acc in dense_history]

    def test_fully_pruned_layer_trains_its_biases(self, blob_data):
        arch = (6, 5, 3)
        net = init_network(arch, seed=21)
        net.biases[0][:] = [0.3, -0.2, 0.1, 0.4, 0.0]
        mask = full_mask(arch)
        mask.layers[0][:] = False
        assert nn._plan(net, mask).cols[0].size == 0
        cfg = TrainConfig(epochs=2, learning_rate=0.3, train_batch_size=16, seed=7)
        trained, _ = train(net, mask, blob_data, cfg)
        assert not trained.weights[0].view(np.uint64).any()
        # Units with a positive bias emit it and pass a gradient back to it.
        moved = trained.biases[0] != net.biases[0]
        assert moved.tolist() == [True, False, True, True, False]
        expected, _ = reference_train(net, mask, blob_data, cfg)
        assert array_bytes(trained.weights) == array_bytes(expected.weights)
        assert array_bytes(trained.biases) == array_bytes(expected.biases)

    def test_units_without_outgoing_weights_keep_their_bias_bits(self, blob_data):
        arch = (6, 5, 3)
        net = init_network(arch, seed=22)
        net.biases[0][:] = [0.25, -0.0, 0.5, -0.125, 0.75]
        mask = live_in_columns(full_mask(arch), 1, [0, 2])
        cfg = TrainConfig(epochs=3, learning_rate=0.3, train_batch_size=16, seed=8)
        trained, _ = train(net, mask, blob_data, cfg)
        dead = [1, 3, 4]
        assert trained.biases[0][dead].tobytes() == net.biases[0][dead].tobytes()
        assert not np.array_equal(trained.biases[0][[0, 2]], net.biases[0][[0, 2]])

    def test_no_layer_under_the_rule_keeps_the_uncompacted_bits(self):
        """Pinned before column compaction existed: train, loss_and_grads and forward
        with a mask whose layers all keep weights in at least half their columns
        (layer 0 in 12 of 20, on the index update)."""
        arch = (20, 10, 4)
        net = init_network(arch, seed=41)
        mask = random_mask(arch, seed=42, keep_prob=0.3)
        mask.layers[0] = random_mask(arch, seed=43, keep_prob=0.1).layers[0]
        assert nn._plan(net, mask).cols == [None, None]
        data = gen_synthetic(4, 20, 15, seed=44, noise=0.3)
        assert len(data) < nn._FORWARD_BLOCK_ROWS  # one block: forward's bits are unblocked ones
        cfg = TrainConfig(epochs=3, learning_rate=0.3, train_batch_size=8, seed=45)
        trained, history = train(net, mask, data, cfg)
        loss, grads = loss_and_grads(trained, mask, data)
        digest = hashlib.sha256()
        for a in [*trained.weights, *trained.biases, *grads.weights, *grads.biases,
                  forward(trained, mask, data.inputs)]:
            digest.update(a.tobytes())
        digest.update(repr((history, loss)).encode())
        assert digest.hexdigest() == (
            "c6048ff05a956f39a17a9519a29db3b715819779f3e3b072c03d69986f4e3af2"
        )


class TestDatasetLabels:
    @pytest.mark.parametrize("labels", [[0.7, 1.0], [1.0, 1.9], [np.nan, 1.0], [1e300, 0.0]])
    def test_non_integral_labels_rejected(self, labels):
        with pytest.raises(UsageError, match="labels must be integral class indices"):
            Dataset(np.zeros((2, 1)), labels)

    @pytest.mark.parametrize(
        "labels",
        [[True, False], np.array(["1", "0"]), np.array([b"1", b"0"]), np.array([1, 0], dtype=object)],
        ids=["bool", "text", "bytes", "object"],
    )
    def test_bool_and_text_labels_rejected(self, labels):
        """As `check_int` refuses True and "8", a Dataset refuses them as class indices."""
        with pytest.raises(UsageError, match="labels must be integral class indices"):
            Dataset(np.zeros((2, 1)), labels)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.float32])
    def test_integer_and_integral_float_dtypes_accepted(self, dtype):
        labels = Dataset(np.zeros((2, 1)), np.array([1, 0], dtype=dtype)).labels
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0]

    def test_integral_float_labels_accepted(self):
        labels = Dataset(np.zeros((3, 1)), [1.0, 0.0, -0.0]).labels
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0, 0]


class TestDatasetFiniteness:
    """`Dataset` refuses non-finite inputs, checked by blocks of rows."""

    ROWS = 2 * nn._FINITE_CHECK_ROWS + 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "row, col",
        [(0, 0), (nn._FINITE_CHECK_ROWS - 1, 2), (nn._FINITE_CHECK_ROWS, 0), (ROWS - 1, 2)],
        ids=["first-row", "last-row-of-block-0", "first-row-of-block-1", "last-element"],
    )
    def test_non_finite_value_rejected(self, bad, row, col):
        inputs = np.zeros((self.ROWS, 3))
        inputs[row, col] = bad
        with pytest.raises(UsageError, match="inputs contain non-finite values"):
            Dataset(inputs, np.zeros(self.ROWS, dtype=int))


class TestTrainThroughRows:
    """`train(..., rows=r)` gives the bits of `train` on the copy `data.take(r)`."""

    ARCH = (50, 20, 8, 3)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "layer-0-indexed"])
    @pytest.mark.parametrize("repeats", [False, True], ids=["permutation", "subset-with-repeats"])
    def test_bit_identical_to_training_on_the_copy(self, sparse, repeats):
        net = init_network(self.ARCH, seed=3)
        mask = full_mask(self.ARCH)
        if sparse:
            mask = random_mask(self.ARCH, seed=9, keep_prob=0.5)
            mask.layers[0] = random_mask(self.ARCH, seed=10, keep_prob=0.05).layers[0]
            assert np.count_nonzero(mask.layers[0]) < nn._INDEX_UPDATE_BELOW * mask.layers[0].size
        data = gen_synthetic(3, self.ARCH[0], 20, seed=12, noise=0.2)
        rows = rng.permutation(4, len(data))
        if repeats:
            rows = np.concatenate([rows[:45], rows[:7]])
        eval_data = gen_synthetic(3, self.ARCH[0], 10, seed=13, noise=0.2)
        cfg = TrainConfig(epochs=3, learning_rate=0.4, train_batch_size=16, seed=5)
        trained, history = train(net, mask, data, cfg, eval_data, rows=rows)
        expected, expected_history = train(net, mask, data.take(rows), cfg, eval_data)
        assert array_bytes(trained.weights) == array_bytes(expected.weights)
        assert array_bytes(trained.biases) == array_bytes(expected.biases)
        assert history == expected_history

    def test_rows_without_eval_data_refused(self):
        """Measuring the selected rows would copy them."""
        data = gen_synthetic(3, self.ARCH[0], 20, seed=12, noise=0.2)
        with pytest.raises(UsageError, match="eval_data"):
            train(init_network(self.ARCH, seed=3), full_mask(self.ARCH), data,
                  TrainConfig(epochs=1), rows=np.arange(len(data)))


class TestNonFiniteLearningRate:
    @pytest.mark.parametrize("lr", [np.inf, -np.inf, np.nan])
    def test_rejected(self, tiny_net, tiny_mask, lr):
        grads = DenseNetwork(
            [np.ones_like(w) for w in tiny_net.weights], [np.ones_like(b) for b in tiny_net.biases]
        )
        with pytest.raises(UsageError):
            sgd_step(tiny_net, grads, tiny_mask, lr=lr)
        with pytest.raises(UsageError):
            TrainConfig(learning_rate=lr)
