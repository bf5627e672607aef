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
from ticketlab import GradientSet, PruneMask, apply_mask, rewind, rng
from ticketlab.nn import DenseNetwork, _keep_bits, _zero_pruned, masked_weights

from conftest import networks_equal
from test_masks import random_mask


def finite_difference(net, mask, batch, layer, i, j, h=1e-5):
    """Independent oracle: central difference of the batch loss in one weight."""
    bumped = net.copy()
    bumped.weights[layer][i, j] += h
    up, _ = loss_and_grads(bumped, mask, batch)
    bumped.weights[layer][i, j] -= 2 * h
    down, _ = loss_and_grads(bumped, mask, batch)
    return (up - down) / (2 * h)


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
        worst = 0.0
        for l, g in enumerate(grads.weights):
            for i in range(g.shape[0]):
                for j in range(g.shape[1]):
                    fd = finite_difference(tiny_net, tiny_mask, batch, l, i, j)
                    rel = abs(g[i, j] - fd) / max(abs(g[i, j]), abs(fd), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4

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
        grads_net = DenseNetwork([np.array([[0.5]])], [np.zeros(1)])
        from ticketlab import GradientSet

        stepped = sgd_step(net, GradientSet(grads_net.weights, grads_net.biases), None, lr=0.1)
        assert stepped.weights[0][0, 0] == 0.95

    def test_masked_weight_stays_exactly_zero(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        mask.layers[0][0, 0] = 0
        from ticketlab import GradientSet, apply_mask

        net = apply_mask(tiny_net, mask)
        grads = GradientSet(
            [np.ones_like(w) for w in net.weights], [np.ones_like(b) for b in net.biases]
        )
        stepped = sgd_step(net, grads, mask, lr=0.5)
        assert stepped.weights[0][0, 0] == 0.0

    def test_biases_always_updated(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        for m in mask.layers:
            m[:] = 0
        from ticketlab import GradientSet

        grads = GradientSet(
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


def array_bytes(arrays):
    return [a.tobytes() for a in arrays]


# Values whose bits a select and an AND could treat differently, negative NaN included.
SPECIAL = np.array(
    [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.5]
)


class TestKeepBits:
    """The AND masking primitive equals `np.where(kept, a, 0.0)` in every bit."""

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
        bits = _keep_bits([kept])[0]
        assert (bits is None) == (kept_count == a.size)

        fresh = _zero_pruned(a, bits)
        assert fresh is not a
        assert np.array_equal(fresh.view(np.uint64), expected)
        in_place = a.copy()
        assert _zero_pruned(in_place, bits, out=in_place) is in_place
        assert np.array_equal(in_place.view(np.uint64), expected)

    def test_masked_weights_with_all_pruned_and_all_kept_layers(self):
        arch = (40, 25, 30, 20)
        net = DenseNetwork(
            [self.values((arch[l + 1], arch[l]), seed=10 + l) for l in range(3)],
            [np.zeros(arch[l + 1]) for l in range(3)],
        )
        mask = random_mask(arch, seed=6, keep_prob=0.5)
        mask.layers[0][:] = False
        mask.layers[2][:] = True
        bits, weights = masked_weights(net, mask)
        assert bits[0] is not None and bits[2] is None
        for w, k, out in zip(net.weights, mask.layers, weights):
            assert out is not w
            assert np.array_equal(out.view(np.uint64), np.where(k, w, 0.0).view(np.uint64))


def operation_inputs(operation, mask_kind):
    """(call, arrays) for one operation: calling `call()` runs it on arrays it must not change."""
    arch = (6, 5, 3)
    net = init_network(arch, seed=13)
    other = init_network(arch, seed=14)
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
        "apply_mask": lambda: apply_mask(net, mask),
        "rewind": lambda: rewind(other, net, mask),
    }
    arrays = [*net.weights, *net.biases, *other.weights, *other.biases]
    arrays += [*grads.weights, *grads.biases, *(mask.layers if mask else [])]
    return calls[operation], arrays


class TestInputsUnchanged:
    @pytest.mark.parametrize(
        "operation, mask_kind",
        [
            (op, kind)
            for op in ["train", "sgd_step", "loss_and_grads", "forward", "apply_mask", "rewind"]
            for kind in ["none", "full", "partial"]
            if not (kind == "none" and op in ("apply_mask", "rewind"))
        ],
    )
    def test_every_input_array_is_byte_identical_after_the_call(self, operation, mask_kind):
        call, arrays = operation_inputs(operation, mask_kind)
        before = array_bytes(arrays)
        call()
        assert array_bytes(arrays) == before


def reference_train(net, mask, data, cfg):
    """`train` rebuilt from the public loss_and_grads and sgd_step."""
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(rng.derive(cfg.seed, 2, epoch), len(data))
        loss_sum = 0.0
        for start in range(0, len(data), cfg.train_batch_size):
            idx = order[start : start + cfg.train_batch_size]
            loss, grads = loss_and_grads(net, mask, data.take(idx))
            loss_sum += loss * idx.shape[0]
            net = sgd_step(net, grads, mask, cfg.learning_rate)
        history.append((loss_sum / len(data), evaluate(net, mask, data)))
    return net, history


class TestTrainMatchesPublicApi:
    @pytest.mark.parametrize(
        "make_mask",
        [
            lambda net, arch: random_mask(arch, seed=4, keep_prob=0.5),
            lambda net, arch: random_mask(arch, seed=5, keep_prob=0.1),
            # Pruning exactly the negative weights: a multiplicative zeroing would leave -0.0.
            lambda net, arch: PruneMask([w > 0 for w in net.weights]),
        ],
        ids=["50%", "10%", "negative-weights-pruned"],
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


class TestNonFiniteLearningRate:
    @pytest.mark.parametrize("lr", [np.inf, -np.inf, np.nan])
    def test_rejected(self, tiny_net, tiny_mask, lr):
        grads = GradientSet(
            [np.ones_like(w) for w in tiny_net.weights], [np.ones_like(b) for b in tiny_net.biases]
        )
        with pytest.raises(UsageError):
            sgd_step(tiny_net, grads, tiny_mask, lr=lr)
        with pytest.raises(UsageError):
            TrainConfig(learning_rate=lr)
