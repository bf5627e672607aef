import numpy as np
import pytest

from ticketlab import (
    FisherConfig,
    LotteryConfig,
    NumericalError,
    TrainConfig,
    UsageError,
    full_mask,
    gen_synthetic,
    global_prune,
    init_network,
    run_iterative,
    run_one_shot,
    score_random,
)

from conftest import LENET, lenet_rows, traced_peak

ARCH = (6, 8, 3)
FAST = TrainConfig(epochs=2, learning_rate=0.2, train_batch_size=16, seed=0)


@pytest.fixture(scope="module")
def datasets():
    train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
    test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
    return train_data, test_data


def cfg_iterative(**overrides):
    defaults = dict(
        arch=ARCH,
        strategy="l1",
        mode="iterative",
        per_round_fraction=0.3,
        rounds=3,
        init_seed=1,
        data_seed=2,
        strategy_seed=3,
        train=FAST,
        final_train=FAST,
    )
    defaults.update(overrides)
    return LotteryConfig(**defaults)


def strip_seconds(rows):
    return [
        (
            r.round,
            r.fraction_pruned,
            r.test_accuracy,
            r.best_accuracy,
            r.train_loss,
            r.weight_abs_dif,
            r.weight_avg_dif,
            r.backward_passes,
        )
        for r in rows
    ]


class TestRunIterative:
    def test_row_count_and_monotone_sparsity(self, datasets):
        record = run_iterative(cfg_iterative(), *datasets)
        assert len(record.rows) == 4
        fracs = [r.fraction_pruned for r in record.rows]
        assert fracs[0] == 0.0
        assert fracs == sorted(fracs)

    def test_reproducible_excluding_seconds(self, datasets):
        a = run_iterative(cfg_iterative(), *datasets)
        b = run_iterative(cfg_iterative(), *datasets)
        assert strip_seconds(a.rows) == strip_seconds(b.rows)

    def test_rewind_fidelity_and_mask_chain(self, datasets):
        initial = init_network(ARCH, seed=1)
        seen_masks = []

        def hook(r, mask, start_net, trained):
            seen_masks.append(mask)
            for w0, ws, m in zip(initial.weights, start_net.weights, mask.layers):
                keep = m.astype(bool)
                assert np.array_equal(ws[keep], w0[keep])
                assert np.all(ws[~keep] == 0.0)
            for b0, bs in zip(initial.biases, start_net.biases):
                assert np.array_equal(bs, b0)

        run_iterative(cfg_iterative(), *datasets, on_round=hook)
        assert len(seen_masks) == 4
        for earlier, later in zip(seen_masks, seen_masks[1:]):
            for a, b in zip(earlier.layers, later.layers):
                assert np.all(b <= a)

    def test_random_strategy_seed_advances_per_round(self, datasets):
        """Round r prunes with score_random(mask, strategy_seed + r)."""
        captured = []
        run_iterative(
            cfg_iterative(strategy="random", rounds=2),
            *datasets,
            on_round=lambda r, mask, s, t: captured.append(mask),
        )
        expected = full_mask(ARCH)
        for r in (1, 2):
            expected = global_prune(expected, score_random(expected, 3 + r), 0.3)
            for a, b in zip(expected.layers, captured[r].layers):
                assert np.array_equal(a, b)

    def test_fisher_backward_passes_recorded(self, datasets):
        cfg = cfg_iterative(strategy="fisher", fisher=FisherConfig(40, 8), rounds=2)
        record = run_iterative(cfg, *datasets)
        assert record.rows[0].backward_passes == 0
        assert all(r.backward_passes == 5 for r in record.rows[1:])
        assert record.fisher_batch_size == 8

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow)")
    def test_nan_abort(self, datasets):
        blowup = TrainConfig(epochs=3, learning_rate=1e200, train_batch_size=16, seed=0)
        with pytest.raises(NumericalError):
            run_iterative(cfg_iterative(train=blowup, final_train=blowup), *datasets)

    @pytest.mark.parametrize(
        "strategy, fisher",
        [
            pytest.param("l1", None, id="l1"),
            pytest.param("fisher", FisherConfig(4000, 1), id="fisher-batch-1"),
            pytest.param("fisher", FisherConfig(4000, 10), id="fisher-batch-10"),
        ],
    )
    def test_training_set_is_not_copied(self, strategy, fisher):
        """The round loop reaches the training rows through an index, for training and
        for Fisher scoring of every row: a 1-round run allocates, at its peak, under
        half the bytes of the training inputs."""
        train_data = gen_synthetic(10, 200, 400, seed=5, noise=0.2)  # 4000 x 200
        test_data = gen_synthetic(10, 200, 20, seed=77, noise=0.2)
        cfg = cfg_iterative(arch=(200, 30, 10), rounds=1, train=FAST, final_train=FAST,
                            strategy=strategy, fisher=fisher)
        peak = traced_peak(lambda: run_iterative(cfg, train_data, test_data))
        assert peak < train_data.inputs.nbytes / 2

    def test_lenet_run_memory_budget(self):
        """A 2-round LeNet-300-100 run on 1,000 rows allocates under 14 MB at its peak.
        The networks it holds (initial, baseline, the rewound start and `train`'s
        working copy) are 2.1 MB each; masking builds no other form of the mask,
        `train` holds one step's gradients at a time, and `global_prune` gathers the
        kept scores into one array."""
        schedule = TrainConfig(epochs=1, learning_rate=0.3, train_batch_size=128, seed=1)
        cfg = LotteryConfig(arch=LENET, strategy="l1", mode="iterative", rounds=2, init_seed=1,
                            data_seed=1, strategy_seed=1, train=schedule)
        train_data, test_data = lenet_rows(100, seed=1), lenet_rows(20, seed=2)
        assert traced_peak(lambda: run_iterative(cfg, train_data, test_data)) < 14e6

    def test_wrong_mode_rejected(self, datasets):
        one_shot = cfg_iterative(mode="one_shot", one_shot_targets=(0.5,))
        for run, cfg in ((run_iterative, one_shot), (run_one_shot, cfg_iterative())):
            with pytest.raises(UsageError, match=f"{run.__name__} needs mode"):
                run(cfg, *datasets)

    def test_fisher_budget_validated(self, datasets):
        cfg = cfg_iterative(strategy="fisher", fisher=FisherConfig(10_000, 100))
        with pytest.raises(UsageError):
            run_iterative(cfg, *datasets)


class TestRunOneShot:
    def test_row_count_and_exact_fractions(self, datasets):
        cfg = cfg_iterative(mode="one_shot", one_shot_targets=(0.9, 0.2, 0.5))
        record = run_one_shot(cfg, *datasets)
        assert len(record.rows) == 4
        total = full_mask(ARCH).kept_count()
        for row, f in zip(record.rows[1:], (0.2, 0.5, 0.9)):
            assert row.fraction_pruned == round(f * total) / total

    def test_target_zero_matches_baseline(self, datasets):
        cfg = cfg_iterative(mode="one_shot", one_shot_targets=(0.0,))
        record = run_one_shot(cfg, *datasets)
        assert record.rows[1].test_accuracy == record.rows[0].test_accuracy
        assert record.rows[1].train_loss == record.rows[0].train_loss

    def test_single_round_iterative_equals_one_shot(self, datasets):
        it = run_iterative(cfg_iterative(rounds=1, per_round_fraction=0.4), *datasets)
        os = run_one_shot(
            cfg_iterative(mode="one_shot", one_shot_targets=(0.4,)), *datasets
        )
        assert strip_seconds(it.rows) == strip_seconds(os.rows)

    def test_targets_required(self):
        with pytest.raises(UsageError):
            cfg_iterative(mode="one_shot")

    def test_record_metadata(self, datasets):
        cfg = cfg_iterative(mode="one_shot", one_shot_targets=(0.5,))
        record = run_one_shot(cfg, *datasets)
        assert record.method == "l1"
        assert record.mode == "one_shot"
        assert record.seed == 1
        assert record.arch == ARCH
        assert record.experiment_id == "l1-one_shot"


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(UsageError):
            cfg_iterative(strategy="magnitude")

    def test_fraction_bounds(self):
        with pytest.raises(UsageError):
            cfg_iterative(per_round_fraction=0.0)
        with pytest.raises(UsageError):
            cfg_iterative(per_round_fraction=1.0)

    def test_fisher_strategy_needs_config(self):
        with pytest.raises(UsageError):
            cfg_iterative(strategy="fisher")

    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param(dict(fisher=FisherConfig(30, 10)), "fisher", id="fisher-on-l1"),
            pytest.param(dict(strategy="random", fisher=FisherConfig(30, 10)), "fisher",
                         id="fisher-on-random"),
            pytest.param(dict(one_shot_targets=(0.5,)), "one_shot_targets",
                         id="one-shot-targets-on-iterative"),
            pytest.param(dict(mode="one_shot", one_shot_targets=("0.5",)), "one_shot_targets",
                         id="one-shot-targets-string"),
        ],
    )
    def test_unread_or_mistyped_section_rejected(self, overrides, field):
        """A config holds only what its strategy and mode read, in the types they read."""
        with pytest.raises(UsageError, match=field):
            cfg_iterative(**overrides)

    def test_final_train_defaults_to_train(self):
        cfg = LotteryConfig(arch=ARCH, strategy="l1", mode="iterative", train=FAST)
        assert cfg.final_train == FAST
        assert cfg == cfg_iterative(init_seed=0, data_seed=0, strategy_seed=0,
                                    per_round_fraction=0.2, rounds=10)

    def test_targets_sorted_on_construction(self):
        cfg = cfg_iterative(mode="one_shot", one_shot_targets=(0.9, 0.1))
        assert cfg.one_shot_targets == (0.1, 0.9)
