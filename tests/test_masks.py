import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketlab import (
    PruneMask,
    ShapeError,
    TrainConfig,
    apply_mask,
    full_mask,
    gen_synthetic,
    global_prune,
    init_network,
    loss_and_grads,
    rewind,
    score_random,
    sgd_step,
    sparsity,
    train,
    weight_movement,
)

from conftest import masks_equal, networks_equal


def random_mask(arch, seed, keep_prob=0.6):
    from ticketlab import rng

    layers = []
    for l in range(len(arch) - 1):
        u = rng.uniforms(rng.derive(seed, 99, l), arch[l + 1] * arch[l])
        layers.append((u < keep_prob).astype(np.uint8).reshape(arch[l + 1], arch[l]))
    return PruneMask(layers)


class TestFullMask:
    def test_lenet_count(self):
        mask = full_mask([784, 300, 100, 10])
        assert mask.kept_count() == 266_200
        assert mask.total_count() == 266_200

    def test_fraction_zero(self):
        assert sparsity(full_mask([4, 3])).fraction_pruned == 0.0

    def test_two_calls_equal(self):
        assert masks_equal(full_mask([5, 4, 3]), full_mask([5, 4, 3]))


class TestApplyMask:
    def test_full_mask_identity(self, tiny_net, tiny_arch):
        assert networks_equal(apply_mask(tiny_net, full_mask(tiny_arch)), tiny_net)

    def test_zero_mask_zeroes_weights_not_biases(self, tiny_net, tiny_arch):
        mask = full_mask(tiny_arch)
        for m in mask.layers:
            m[:] = 0
        net = tiny_net.copy()
        net.biases[0][:] = 0.5
        out = apply_mask(net, mask)
        assert all(np.all(w == 0.0) for w in out.weights)
        assert np.all(out.biases[0] == 0.5)

    def test_elementwise(self):
        from ticketlab.nn import DenseNetwork

        net = DenseNetwork([np.array([[0.3, 0.7]])], [np.zeros(1)])
        mask = PruneMask([np.array([[1, 0]], dtype=np.uint8)])
        out = apply_mask(net, mask)
        assert np.array_equal(out.weights[0], np.array([[0.3, 0.0]]))

    @given(seed=st.integers(0, 2**32), keep=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed, keep):
        arch = (4, 5, 3)
        net = init_network(arch, seed=3)
        mask = random_mask(arch, seed, keep)
        once = apply_mask(net, mask)
        twice = apply_mask(once, mask)
        assert networks_equal(once, twice)

    def test_shape_mismatch(self, tiny_net):
        with pytest.raises(ShapeError):
            apply_mask(tiny_net, full_mask([3, 5, 2]))


class TestRewind:
    def test_full_mask_restores_initial(self, tiny_arch):
        initial = init_network(tiny_arch, seed=1)
        assert networks_equal(rewind(initial, full_mask(tiny_arch)), initial)

    def test_masked_position_overrides_reset(self, tiny_arch):
        initial = init_network(tiny_arch, seed=1)
        initial.weights[0][0, 0] = 0.42
        mask = full_mask(tiny_arch)
        mask.layers[0][0, 0] = 0
        assert rewind(initial, mask).weights[0][0, 0] == 0.0

    def test_unmasked_position_takes_initial_value(self, tiny_arch):
        initial = init_network(tiny_arch, seed=1)
        mask = full_mask(tiny_arch)
        mask.layers[0][0, 1] = 0
        out = rewind(initial, mask)
        assert out.weights[0][0, 0] == initial.weights[0][0, 0] != 0.0

    def test_biases_reset(self, tiny_arch):
        initial = init_network(tiny_arch, seed=1)
        initial.biases[0][:] = 9.0
        out = rewind(initial, full_mask(tiny_arch))
        assert all(np.array_equal(a, b) for a, b in zip(out.biases, initial.biases))
        assert all(a is not b for a, b in zip(out.biases, initial.biases))

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_nonzero_count_bounded_by_kept(self, seed):
        arch = (4, 5, 3)
        initial = init_network(arch, seed=8)
        mask = random_mask(arch, seed)
        out = rewind(initial, mask)
        nonzero = sum(int(np.count_nonzero(w)) for w in out.weights)
        assert nonzero <= mask.kept_count()


class TestSparsity:
    def test_counts_exact(self):
        mask = PruneMask([np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)])
        rep = sparsity(mask)
        assert rep.total_weights == 6
        assert rep.pruned_weights == 2
        assert rep.fraction_pruned == 2 / 6

    def test_ten_rounds_of_twenty_percent_on_lenet(self):
        """Compounded 20% pruning lands within per-round rounding of 1 - 0.8^10."""
        mask = full_mask([784, 300, 100, 10])
        for r in range(10):
            mask = global_prune(mask, score_random(mask, seed=r), 0.2)
        frac = sparsity(mask).fraction_pruned
        assert abs(frac - (1 - 0.8**10)) <= 10 / 266_200

    def test_twenty_five_rounds_reach_99_6_percent(self):
        mask = full_mask([784, 300, 100, 10])
        for r in range(25):
            mask = global_prune(mask, score_random(mask, seed=r), 0.2)
        frac = sparsity(mask).fraction_pruned
        assert abs(frac - (1 - 0.8**25)) <= 25 / 266_200
        assert frac == pytest.approx(0.9962, abs=5e-4)

    def test_entries_validated(self):
        for bad in (
            np.array([[2, 0]]),
            np.array([[1, -1]]),
            np.array([[0.5, 1.0]]),
            np.array([[1, 255]], dtype=np.uint8),
            np.array([[1.0, np.nan]]),
        ):
            with pytest.raises(ShapeError):
                PruneMask([bad])


class TestMaskContract:
    """Masks are stored as bool, and masked weights come out as +0.0, never -0.0."""

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_stores_bool(self, dtype):
        mask = PruneMask([np.array([[1, 0, 1]], dtype=dtype)])
        assert mask.layers[0].dtype == bool
        assert mask.layers[0].tolist() == [[True, False, True]]

    def test_full_mask_is_bool(self):
        assert all(m.dtype == bool for m in full_mask([4, 3, 2]).layers)

    def test_input_is_copied(self):
        source = np.array([[1, 0, 1]], dtype=np.uint8)
        mask = PruneMask([source])
        source[0, 1] = 1
        assert mask.layers[0].tolist() == [[True, False, True]]

    @pytest.mark.parametrize("operation", ["apply_mask", "rewind", "sgd_step", "train"])
    def test_masked_positions_are_positive_zero(self, operation):
        arch = (6, 5, 3)
        net = init_network(arch, seed=31)
        # Mask exactly the negative weights: zeroing them by multiplication would give -0.0.
        mask = PruneMask([w > 0 for w in net.weights])
        data = gen_synthetic(3, 6, 10, seed=2)
        if operation == "apply_mask":
            out = apply_mask(net, mask)
        elif operation == "rewind":
            out = rewind(net, mask)
        elif operation == "sgd_step":
            _, grads = loss_and_grads(net, None, data)
            out = sgd_step(net, grads, mask, lr=0.5)
        else:
            out, _ = train(net, mask, data, TrainConfig(epochs=1, train_batch_size=8))
        for w, m in zip(out.weights, mask.layers):
            assert np.all(w[~m] == 0.0)
            assert not np.signbit(w[~m]).any()

    @pytest.mark.parametrize(
        "operation",
        [lambda first, second, mask: [rewind(net, mask) for net in (first, second)],
         weight_movement],
        ids=["rewind", "weight_movement"],
    )
    def test_networks_of_another_architecture_rejected(self, operation):
        arch = (4, 5, 3)
        net, other = init_network(arch, seed=1), init_network((4, 6, 3), seed=2)
        for first, second in ((net, other), (other, net)):
            with pytest.raises(ShapeError):
                operation(first, second, full_mask(arch))
