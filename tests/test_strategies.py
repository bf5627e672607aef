import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketlab import (
    Dataset,
    FisherConfig,
    PruneMask,
    UsageError,
    full_mask,
    global_prune,
    init_network,
    removal_count,
    score_fisher,
    score_l1,
    score_random,
)
from ticketlab import nn, rng, strategies
from ticketlab.errors import ShapeError
from ticketlab.nn import DenseNetwork
from ticketlab.oracles import global_prune_sorted, per_sample_fisher
from ticketlab.strategies import _fisher_combine

from conftest import LENET, lenet_rows, traced_peak


@st.composite
def prune_cases(draw):
    """(mask, scores, fraction) over 2-3 layers with many score ties."""
    arch = draw(st.lists(st.integers(1, 5), min_size=3, max_size=4))
    shapes = [(arch[i + 1], arch[i]) for i in range(len(arch) - 1)]
    kept = [draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c)) for r, c in shapes]
    layers = [np.array(k, dtype=bool).reshape(shape) for k, shape in zip(kept, shapes)]
    if draw(st.booleans()):
        layers[draw(st.integers(0, len(layers) - 1))][:] = False
    tied = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([-0.0, 0.0]))
    values = st.just(draw(tied)) if draw(st.booleans()) else tied
    scores = [
        np.array(draw(st.lists(values, min_size=r * c, max_size=r * c))).reshape(r, c)
        for r, c in shapes
    ]
    fraction = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return PruneMask(layers), scores, fraction


def one_layer_net(values):
    w = np.asarray(values, dtype=np.float64)
    return DenseNetwork([w], [np.zeros(w.shape[0])])


class TestScoreL1:
    def test_absolute_values(self):
        net = one_layer_net([[0.5, -1.2, 0.1]])
        scores = score_l1(net, full_mask([3, 1]))
        assert np.array_equal(scores[0], np.array([[0.5, 1.2, 0.1]]))

    def test_selection_invariant_under_positive_scaling(self):
        arch = (5, 4, 3)
        net = init_network(arch, seed=3)
        mask = full_mask(arch)
        scaled = DenseNetwork([w * 7.5 for w in net.weights], [b.copy() for b in net.biases])
        a = global_prune(mask, score_l1(net, mask), 0.4)
        b = global_prune(mask, score_l1(scaled, mask), 0.4)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_zero_weight_scores_zero_and_goes_first(self):
        net = one_layer_net([[0.0, 0.5, -0.5]])
        mask = full_mask([3, 1])
        scores = score_l1(net, mask)
        assert scores[0][0, 0] == 0.0
        pruned = global_prune(mask, scores, 1 / 3)
        assert np.array_equal(pruned.layers[0], np.array([[0, 1, 1]], dtype=np.uint8))

    def test_pruned_positions_excluded(self):
        """Pruned positions score |w| like any other; pruning never reads them."""
        net = one_layer_net([[1.0, 0.5, 2.0]])
        mask = PruneMask([np.array([[1, 0, 1]], dtype=np.uint8)])
        scores = score_l1(net, mask)
        assert np.array_equal(scores[0], np.abs(net.weights[0]))
        pruned = global_prune(mask, scores, 0.5)
        assert np.array_equal(pruned.layers[0], np.array([[0, 0, 1]], dtype=np.uint8))


class TestScoreRandom:
    def test_deterministic(self):
        mask = full_mask([4, 3, 2])
        a = score_random(mask, seed=5)
        b = score_random(mask, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_prune_counts_uniform_over_layers(self):
        """Chi-square over 1000 seeds on a 2-layer toy mask: removals land on
        layers in proportion to their size (12 vs 6 positions, 9 removed)."""
        arch = (4, 3, 2)
        mask = full_mask(arch)
        sizes = np.array([12, 6])
        expected = 1000 * 9 * sizes / sizes.sum()
        observed = np.zeros(2)
        for seed in range(1000):
            pruned = global_prune(mask, score_random(mask, seed), 0.5)
            for l in range(2):
                observed[l] += mask.layers[l].sum() - pruned.layers[l].sum()
        assert observed.sum() == 1000 * 9
        chi2 = float((((observed - expected) ** 2) / expected).sum())
        assert chi2 < 10.83  # p = 0.001, 1 degree of freedom

    def test_fraction_one_prunes_everything(self):
        mask = full_mask([4, 3])
        pruned = global_prune(mask, score_random(mask, seed=1), 1.0)
        assert pruned.kept_count() == 0


class TestFisherFormula:
    def test_single_sample_hand_values(self):
        """theta = [2, 1], g = [3, 4], one batch: delta = theta^2 g^2 / 2."""
        theta = [np.array([[2.0, 1.0]])]
        sq = [np.array([[9.0, 16.0]])]
        scores = _fisher_combine(theta, sq, batch_count=1)
        assert np.array_equal(scores[0], np.array([[18.0, 8.0]]))

    def test_two_samples_hand_value(self):
        """theta = [3], g1 = 1, g2 = -1, batch size 1: delta = 9 * 2 / 4."""
        theta = [np.array([[3.0]])]
        sq = [np.array([[2.0]])]
        scores = _fisher_combine(theta, sq, batch_count=2)
        assert scores[0][0, 0] == 4.5

    def test_zero_gradients_give_zero_scores(self):
        """All-zero inputs zero every weight gradient, hence every score."""
        net = init_network([2, 3], seed=1)
        mask = full_mask([2, 3])
        data = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
        scores, _ = score_fisher(net, mask, data, FisherConfig(4, 2))
        assert np.all(scores[0] == 0.0)


def assert_matches_oracle(scores, expected):
    for s, e in zip(scores, expected):
        np.testing.assert_allclose(s, e, rtol=1e-12, atol=0)


class TestScoreFisher:
    def test_batch_one_matches_per_sample_oracle(self):
        """Independent oracle: explicit loop over samples accumulating g^2."""
        arch = (4, 5, 3)
        net = init_network(arch, seed=7)
        mask = full_mask(arch)
        from ticketlab import gen_synthetic

        data = gen_synthetic(3, 4, 8, seed=13, noise=0.3)
        scores, passes = score_fisher(net, mask, data, FisherConfig(len(data), 1))
        assert passes == len(data)
        assert_matches_oracle(scores, per_sample_fisher(net, mask, data, len(data)))

    @pytest.mark.parametrize(
        "arch, per_class, sample_count",
        [
            pytest.param((6, 7, 4), 3, 12, id="partial-mask"),
            pytest.param(
                (3, 4, 2),
                nn._SQ_GRAD_CHUNK_ROWS // 2 + 19,
                nn._SQ_GRAD_CHUNK_ROWS + 37,
                id="across-chunk-boundary",
            ),
            pytest.param((4, 5, 3), 10, 17, id="rows-beyond-sample-count"),
        ],
    )
    def test_batch_one_matches_oracle_on_partial_masks(self, arch, per_class, sample_count):
        """The oracle everywhere, +0.0 at pruned positions (a whole pruned unit included);
        rows past sample_count change nothing."""
        net = init_network(arch, seed=3)
        mask = full_mask(arch)
        mask.layers[0][::2, 1::3] = False
        mask.layers[0][-1, :] = False  # the last hidden unit has no incoming weights
        mask.layers[1][:, 0] = False
        from ticketlab import gen_synthetic

        data = gen_synthetic(arch[-1], arch[0], per_class, seed=5, noise=0.4)
        data = data.take(rng.permutation(4, len(data)))  # labels no longer alternate
        scores, passes = score_fisher(net, mask, data, FisherConfig(sample_count, 1))
        assert passes == sample_count
        assert_matches_oracle(scores, per_sample_fisher(net, mask, data, sample_count))
        assert not scores[0][-1].any() and not np.signbit(scores[0][-1]).any()  # all +0.0

        changed = Dataset(data.inputs.copy(), data.labels.copy())
        changed.inputs[sample_count:] = 3.0 - changed.inputs[sample_count:]
        changed.labels[sample_count:] = (changed.labels[sample_count:] + 1) % arch[-1]
        rescored, _ = score_fisher(net, mask, changed, FisherConfig(sample_count, 1))
        for s, r in zip(scores, rescored):
            assert np.array_equal(s, r)

    @pytest.mark.parametrize("batch_size", [7, 10])
    def test_batched_scores_equal_the_masked_gradient_formula(self, monkeypatch, batch_size):
        """w**2 * sum_b g_b**2 / (2B) with each g_b masked, in every bit and at every
        position; pruned positions, a whole pruned unit's included, score +0.0."""
        monkeypatch.setattr(nn, "_COMPACT_BELOW", 0.0)  # whole matrices, as the scorer runs
        arch = (6, 7, 4)
        net = init_network(arch, seed=3)
        mask = full_mask(arch)
        mask.layers[0][::2, 1::3] = False
        mask.layers[0][-1, :] = False
        mask.layers[1][:, 0] = False
        from ticketlab import apply_mask, gen_synthetic, loss_and_grads

        data = gen_synthetic(4, 6, 20, seed=5, noise=0.4)
        data = data.take(rng.permutation(4, len(data)))
        cfg = FisherConfig(67, batch_size)
        sums = [np.zeros_like(w) for w in net.weights]
        for start in range(0, cfg.sample_count, batch_size):
            stop = min(start + batch_size, cfg.sample_count)
            _, grads = loss_and_grads(net, mask, data.take(np.arange(start, stop)))
            for s, g in zip(sums, grads.weights):
                s += g * g
        expected = _fisher_combine(apply_mask(net, mask).weights, sums, cfg.batch_count)
        scores, passes = score_fisher(net, mask, data, cfg)
        assert passes == cfg.batch_count
        assert [s.tobytes() for s in scores] == [e.tobytes() for e in expected]
        for s, m in zip(scores, mask.layers):
            assert not s[~m].any() and not np.signbit(s[~m]).any()

    @pytest.mark.parametrize(
        "batch_size, sample_count",
        [
            pytest.param(1, nn._SQ_GRAD_CHUNK_ROWS + 37, id="batch-1-across-chunk-edge"),
            pytest.param(7, 61, id="batch-7-ragged-last-batch"),
        ],
    )
    def test_rows_score_the_selected_rows_in_every_bit(self, batch_size, sample_count):
        """Scoring through `rows` equals scoring their copy, and leaves every input as it was."""
        arch = (5, 6, 3)
        net = init_network(arch, seed=3)
        mask = full_mask(arch)
        mask.layers[0][::2, 1::3] = False
        mask.layers[1][:, 0] = False
        from ticketlab import gen_synthetic

        data = gen_synthetic(3, 5, 400, seed=5, noise=0.4)
        rows = rng.permutation(8, len(data))[: sample_count + 9]
        taken = data.take(rows)
        cfg = FisherConfig(sample_count, batch_size)
        arrays = (data.inputs, data.labels, rows, taken.inputs, taken.labels, *net.weights)
        before = [a.tobytes() for a in arrays]
        scores, passes = score_fisher(net, mask, data, cfg, rows=rows)
        expected, expected_passes = score_fisher(net, mask, taken, cfg)
        assert [a.tobytes() for a in arrays] == before
        assert passes == expected_passes == cfg.batch_count
        assert [s.tobytes() for s in scores] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_rows_shorter_than_sample_count_rejected(self, batch_size):
        net = init_network([2, 3], seed=1)
        from ticketlab import gen_synthetic

        data = gen_synthetic(3, 2, 10, seed=2)
        with pytest.raises(UsageError, match="fisher set has 19 rows, need sample_count=20"):
            score_fisher(net, full_mask([2, 3]), data, FisherConfig(20, batch_size),
                         rows=np.arange(19))

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(
                lambda d: Dataset(d.inputs, np.where(np.arange(len(d)) == 11, 3, d.labels)),
                UsageError,
                id="label-out-of-range",
            ),
            pytest.param(
                lambda d: Dataset(np.hstack([d.inputs, d.inputs[:, :1]]), d.labels),
                ShapeError,
                id="wrong-width",
            ),
        ],
    )
    def test_inputs_validated_before_any_pass(self, monkeypatch, batch_size, corrupt, error):
        def no_pass(*args, **kwargs):
            raise AssertionError("a backward pass ran before validation")

        monkeypatch.setattr(strategies, "_loss_and_grads_arrays", no_pass)
        monkeypatch.setattr(strategies, "_per_sample_sq_grad_sums", no_pass)
        net = init_network([4, 5, 3], seed=1)
        from ticketlab import gen_synthetic

        data = corrupt(gen_synthetic(3, 4, 4, seed=2))
        with pytest.raises(error) as exc:
            score_fisher(net, full_mask([4, 5, 3]), data, FisherConfig(12, batch_size))
        assert exc.type is error

    def test_backward_pass_count_is_batch_count(self):
        net = init_network([2, 3], seed=1)
        mask = full_mask([2, 3])
        from ticketlab import gen_synthetic

        data = gen_synthetic(3, 2, 20, seed=2)
        _, passes = score_fisher(net, mask, data, FisherConfig(60, 10))
        assert passes == 6
        _, passes = score_fisher(net, mask, data, FisherConfig(60, 60))
        assert passes == 1
        _, passes = score_fisher(net, mask, data, FisherConfig(55, 10))
        assert passes == 6  # ceil(55 / 10)

    def test_scores_nonnegative_and_finite(self):
        arch = (3, 4, 2)
        net = init_network(arch, seed=2)
        mask = full_mask(arch)
        from ticketlab import gen_synthetic

        data = gen_synthetic(2, 3, 10, seed=4)
        scores, _ = score_fisher(net, mask, data, FisherConfig(20, 5))
        for s in scores:
            assert np.all(s >= 0.0) and np.all(np.isfinite(s))

    def test_insufficient_samples_rejected(self):
        net = init_network([2, 3], seed=1)
        from ticketlab import gen_synthetic

        data = gen_synthetic(3, 2, 3, seed=2)
        with pytest.raises(UsageError):
            score_fisher(net, full_mask([2, 3]), data, FisherConfig(100, 10))

    def test_batch_size_cannot_exceed_sample_count(self):
        with pytest.raises(UsageError):
            FisherConfig(10, 11)

    def test_lenet_batch_one_memory_budget(self):
        """Per-sample Fisher on 1,000 LeNet-300-100 rows, one chunk, allocates under
        14 MB at its peak, of which the chunk's layer-0 inputs are 6.3 MB: the first
        chunk's products are the sums, with no zero-filled arrays beside them."""
        net = init_network(LENET, seed=1)
        data = lenet_rows(100, seed=1)
        peak = traced_peak(lambda: score_fisher(net, full_mask(LENET), data, FisherConfig(1000, 1)))
        assert peak < 14e6


class TestGlobalPrune:
    def test_two_smallest_of_ten(self):
        net = one_layer_net([np.arange(1.0, 11.0)])
        mask = full_mask([10, 1])
        pruned = global_prune(mask, score_l1(net, mask), 0.2)
        expected = np.ones((1, 10), dtype=np.uint8)
        expected[0, :2] = 0
        assert np.array_equal(pruned.layers[0], expected)

    def test_fraction_zero_is_identity(self):
        mask = full_mask([4, 3])
        pruned = global_prune(mask, score_random(mask, 1), 0.0)
        assert np.array_equal(pruned.layers[0], mask.layers[0])

    def test_fraction_out_of_range(self):
        mask = full_mask([4, 3])
        with pytest.raises(UsageError):
            global_prune(mask, score_random(mask, 1), 1.5)

    def test_global_not_local(self):
        """All of layer A scores below layer B: removals drain A first."""
        net = DenseNetwork(
            [np.full((3, 4), 0.01) + np.arange(12).reshape(3, 4) * 1e-4, np.full((2, 3), 5.0)],
            [np.zeros(3), np.zeros(2)],
        )
        mask = full_mask([4, 3, 2])
        pruned = global_prune(mask, score_l1(net, mask), 12 / 18)
        assert pruned.layers[0].sum() == 0
        assert pruned.layers[1].sum() == 6

    @given(
        f1=st.floats(0.0, 1.0, allow_nan=False),
        f2=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_containment(self, f1, f2, seed):
        if f1 > f2:
            f1, f2 = f2, f1
        mask = full_mask([5, 4, 3])
        scores = score_random(mask, seed)
        light = global_prune(mask, scores, f1)
        heavy = global_prune(mask, scores, f2)
        for hl, ll in zip(heavy.layers, light.layers):
            assert np.all(hl <= ll)

    @given(fraction=st.floats(0.0, 1.0, allow_nan=False), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_removal_count_exact(self, fraction, seed):
        mask = full_mask([6, 5, 2])
        scores = score_random(mask, seed)
        pruned = global_prune(mask, scores, fraction)
        before = mask.kept_count()
        assert before - pruned.kept_count() == removal_count(before, fraction)

    @given(case=prune_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_oracle(self, case):
        """Tied, signed-zero and all-equal scores select exactly the full sort's victims."""
        mask, scores, fraction = case
        pruned = global_prune(mask, scores, fraction)
        expected = global_prune_sorted(mask, scores, fraction)
        for got, want in zip(pruned.layers, expected.layers, strict=True):
            assert np.array_equal(got, want)

    def test_round_half_up(self):
        assert removal_count(10, 0.25) == 3  # 2.5 rounds up
        assert removal_count(10, 0.24) == 2
        assert removal_count(3, 0.5) == 2  # 1.5 rounds up

    def test_tie_break_by_layer_then_flat_index(self):
        scores = [np.full((1, 3), 0.5), np.full((2, 1), 0.5)]
        mask = full_mask([3, 1, 2])
        pruned = global_prune(mask, scores, 2 / 5)
        assert np.array_equal(pruned.layers[0], np.array([[0, 0, 1]], dtype=np.uint8))
        assert np.array_equal(pruned.layers[1], np.array([[1], [1]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "at_pruned", [9.9, np.nan, -np.inf, np.finfo(np.float64).min], ids=repr
    )
    def test_previously_pruned_positions_unchanged(self, at_pruned):
        """Any value at a pruned position is ignored, plain nested lists included."""
        mask = PruneMask([np.array([[0, 1, 1, 1]], dtype=np.uint8)])
        pruned = global_prune(mask, [[[at_pruned, 0.3, 0.2, 0.1]]], 1 / 3)
        assert np.array_equal(pruned.layers[0], np.array([[0, 1, 1, 0]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "scores, error",
        [
            pytest.param([np.array([[np.nan, 1.0]])], UsageError, id="nan-at-kept"),
            pytest.param([np.array([[1.0, -np.inf]])], UsageError, id="inf-at-kept"),
            pytest.param([np.ones((1, 2)), np.ones((1, 1))], ShapeError, id="layer-count"),
            pytest.param([np.ones((2, 1))], ShapeError, id="layer-shape"),
            pytest.param([np.ones(2)], ShapeError, id="one-dimensional-layer"),
        ],
    )
    def test_invalid_scores_rejected(self, scores, error):
        """Non-finite kept scores are a UsageError, unpaired layers a ShapeError."""
        with pytest.raises(error) as exc:
            global_prune(full_mask([2, 1]), scores, 0.5)
        assert exc.type is error
