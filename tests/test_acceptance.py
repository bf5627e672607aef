"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy experiments
(criteria 4, 6, 7: three 25-round iterative runs on a 784-dim task) execute
once per session and take several minutes on one core.

Criteria 6-8 use real MNIST when the four IDX files are available (set
TICKETLAB_MNIST_DIR, or place them under ./data/mnist); otherwise they run
the same procedures at the same thresholds on a synthetic MNIST-scale
stand-in: 10 Gaussian blobs in 784 dimensions, LeNet-300-100 architecture.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ticketlab import (
    Dataset,
    FisherConfig,
    LotteryConfig,
    TrainConfig,
    connectivity_report,
    full_mask,
    gen_synthetic,
    init_network,
    load_idx,
    loss_and_grads,
    run_iterative,
    run_one_shot,
    score_fisher,
    weight_movement,
)
from ticketlab import rng
from ticketlab.cli import main
from ticketlab.oracles import (
    finite_difference,
    movement_element_loop,
    per_sample_fisher,
    worst_relative_error,
)

from test_masks import random_mask

LENET = (784, 300, 100, 10)
HEAVY_TRAIN = TrainConfig(epochs=10, learning_rate=0.3, train_batch_size=128, seed=0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number:2d}] FAIL  {description}")
        raise
    print(f"[ACCEPTANCE {number:2d}] PASS  {description}")


def _find_mnist():
    candidates = []
    if os.environ.get("TICKETLAB_MNIST_DIR"):
        candidates.append(Path(os.environ["TICKETLAB_MNIST_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    for base in candidates:
        if all((base / n).exists() for n in names):
            return tuple(base / n for n in names)
    return None


@pytest.fixture(scope="session")
def corpus():
    """(train, test, source) used by the MNIST-scale criteria."""
    paths = _find_mnist()
    if paths is not None:
        return load_idx(paths[0], paths[1]), load_idx(paths[2], paths[3]), "mnist"
    train = gen_synthetic(10, 784, 1000, seed=101, noise=0.3)
    test = gen_synthetic(10, 784, 200, seed=rng.derive(101, 5), noise=0.3)
    return train, test, "synthetic-784"


@pytest.fixture(scope="session")
def heavy_runs(corpus):
    """25-round iterative runs for all three strategies on the MNIST-scale task."""
    train_data, test_data, source = corpus
    print(f"\n[acceptance] heavy runs on {source} ({len(train_data)} train rows)")
    runs = {}
    for strategy in ("l1", "fisher", "random"):
        masks = {}
        cfg = LotteryConfig(
            arch=LENET,
            strategy=strategy,
            mode="iterative",
            per_round_fraction=0.2,
            rounds=25,
            init_seed=1,
            data_seed=7,
            strategy_seed=11,
            train=HEAVY_TRAIN,
            final_train=HEAVY_TRAIN,
            fisher=FisherConfig(10_000, 100) if strategy == "fisher" else None,
        )
        start = time.perf_counter()
        record = run_iterative(
            cfg, train_data, test_data,
            on_round=lambda r, mask, s, t, masks=masks: masks.__setitem__(r, mask),
        )
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {strategy}: {elapsed:.0f}s, "
              f"final accuracy {record.rows[-1].test_accuracy:.4f}")
        runs[strategy] = SimpleNamespace(record=record, masks=masks, elapsed=elapsed)
    return runs


def test_criterion_1_gradient_exactness():
    with criterion(1, "analytic gradients match central finite differences (rel < 1e-4, < 1s)"):
        start = time.perf_counter()
        arch = (3, 4, 2)
        net = init_network(arch, seed=11)
        mask = full_mask(arch)
        batch = Dataset(rng.normals(21, 5 * 3).reshape(5, 3), np.array([0, 1, 0, 1, 1]))
        _, grads = loss_and_grads(net, mask, batch)
        worst = worst_relative_error(grads, finite_difference(net, mask, batch))
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"worst relative error {worst:.2e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_fisher_oracle_equivalence():
    with criterion(2, "fisher batch size 1 matches per-sample brute force (rel <= 1e-12, < 5s)"):
        start = time.perf_counter()
        arch = (4, 5, 3)
        net = init_network(arch, seed=7)
        mask = full_mask(arch)
        fisher_set = gen_synthetic(3, 4, 22, seed=13, noise=0.3)  # 66 rows, 64 used
        scores, passes = score_fisher(net, mask, fisher_set, FisherConfig(64, 1))
        assert passes == 64

        for s, expected in zip(scores, per_sample_fisher(net, mask, fisher_set, 64)):
            np.testing.assert_allclose(s, expected, rtol=1e-12, atol=0)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_backward_pass_economy():
    with criterion(3, "10,000 samples: batch 100 -> 100 backward passes, batch 1 -> 10,000"):
        arch = (4, 6, 2)
        net = init_network(arch, seed=3)
        mask = full_mask(arch)
        fisher_set = gen_synthetic(2, 4, 5000, seed=17)  # 10,000 rows
        _, passes = score_fisher(net, mask, fisher_set, FisherConfig(10_000, 100))
        assert passes == 100
        _, passes = score_fisher(net, mask, fisher_set, FisherConfig(10_000, 1))
        assert passes == 10_000


def test_criterion_4_sparsity_arithmetic(heavy_runs):
    with criterion(4, "10 rounds of 20% on LeNet-300-100 land within 10/266,200 of 1 - 0.8^10"):
        row = heavy_runs["l1"].record.rows[10]
        assert abs(row.fraction_pruned - (1 - 0.8**10)) <= 10 / 266_200


def test_criterion_5_rewind_fidelity():
    with criterion(5, "kept weights bitwise-equal init at every round start; masked exactly 0 (< 30s)"):
        start = time.perf_counter()
        arch = (32, 24, 12, 4)
        cfg = LotteryConfig(
            arch=arch,
            strategy="l1",
            mode="iterative",
            per_round_fraction=0.3,
            rounds=6,
            init_seed=5,
            data_seed=6,
            strategy_seed=7,
            train=TrainConfig(epochs=3, learning_rate=0.3, train_batch_size=32, seed=1),
            final_train=TrainConfig(epochs=3, learning_rate=0.3, train_batch_size=32, seed=1),
        )
        train_data = gen_synthetic(4, 32, 100, seed=31, noise=0.2)
        test_data = gen_synthetic(4, 32, 30, seed=rng.derive(31, 5), noise=0.2)
        initial = init_network(arch, seed=5)
        checked = []

        def check(r, mask, start_net, trained):
            for w0, ws, m in zip(initial.weights, start_net.weights, mask.layers):
                keep = m.astype(bool)
                assert np.array_equal(ws[keep], w0[keep]), f"round {r}: kept weights moved"
                assert np.all(ws[~keep] == 0.0), f"round {r}: masked weights not zero"
            for w, m in zip(trained.weights, mask.layers):
                assert np.all(w[~m.astype(bool)] == 0.0), f"round {r}: mask leaked in training"
            checked.append(r)

        run_iterative(cfg, train_data, test_data, on_round=check)
        assert checked == list(range(7))
        assert time.perf_counter() - start < 30.0


def test_criterion_6_lottery_quality(heavy_runs):
    with criterion(6, "iterative L1 at ~89% pruned keeps best accuracy within 2pp of baseline (<= 30 min)"):
        record = heavy_runs["l1"].record
        baseline = record.rows[0].best_accuracy
        at_89 = record.rows[10]
        assert abs(at_89.fraction_pruned - 0.8926) < 1e-3
        assert at_89.best_accuracy >= baseline - 0.02, (
            f"best at 89% pruned {at_89.best_accuracy:.4f} vs baseline {baseline:.4f}"
        )
        assert heavy_runs["l1"].elapsed <= 1800.0


def test_criterion_7_overpruning_collapse(heavy_runs):
    with criterion(7, "at ~99.6%: random <= 0.35 accuracy and <= 2 incoming; L1/Fisher +20pp and >= 10 incoming"):
        final = {s: heavy_runs[s].record.rows[25] for s in ("l1", "fisher", "random")}
        for s in final:
            assert abs(final[s].fraction_pruned - (1 - 0.8**25)) <= 25 / 266_200

        random_acc = final["random"].test_accuracy
        assert random_acc <= 0.35, f"random accuracy {random_acc:.4f}"
        random_out = connectivity_report(heavy_runs["random"].masks[25]).per_layer[-1]
        assert random_out.max <= 2, f"random max incoming {random_out.max}"

        for s in ("l1", "fisher"):
            acc = final[s].test_accuracy
            assert acc >= random_acc + 0.20, f"{s} accuracy {acc:.4f} vs random {random_acc:.4f}"
            out = connectivity_report(heavy_runs[s].masks[25]).per_layer[-1]
            assert out.min >= 10, f"{s} min incoming {out.min}"


def test_criterion_8_one_shot_vs_iterative():
    with criterion(8, "L1: |one-shot - iterative| <= 1.5pp at 50%; iterative >= one-shot at >= 90% (3-seed mean)"):
        arch = (128, 100, 50, 10)
        per_round = 1 - 0.5 ** (1 / 4)  # round 4 lands on exactly 50%
        rounds = 17
        high = 1 - 0.5 ** (rounds / 4)  # ~0.947 pruned
        train_data = gen_synthetic(10, 128, 300, seed=301, noise=0.3)
        test_data = gen_synthetic(10, 128, 100, seed=rng.derive(301, 5), noise=0.3)

        it_50, os_50, it_hi, os_hi = [], [], [], []
        for seed in (1, 2, 3):
            schedule = TrainConfig(epochs=10, learning_rate=0.3, train_batch_size=128, seed=seed)
            it = run_iterative(
                LotteryConfig(
                    arch=arch, strategy="l1", mode="iterative",
                    per_round_fraction=per_round, rounds=rounds,
                    init_seed=seed, data_seed=7, strategy_seed=seed,
                    train=schedule, final_train=schedule,
                ),
                train_data, test_data,
            )
            os_ = run_one_shot(
                LotteryConfig(
                    arch=arch, strategy="l1", mode="one_shot",
                    one_shot_targets=(0.5, high),
                    init_seed=seed, data_seed=7, strategy_seed=seed,
                    train=schedule, final_train=schedule,
                ),
                train_data, test_data,
            )
            assert abs(it.rows[4].fraction_pruned - 0.5) < 1e-3
            assert os_.rows[2].fraction_pruned >= 0.90
            it_50.append(it.rows[4].best_accuracy)
            os_50.append(os_.rows[1].best_accuracy)
            it_hi.append(it.rows[rounds].best_accuracy)
            os_hi.append(os_.rows[2].best_accuracy)

        per_seed = [abs(a - b) for a, b in zip(it_50, os_50)]
        assert max(per_seed) <= 0.015, f"per-seed gaps at 50%: {per_seed}"
        assert abs(np.mean(it_50) - np.mean(os_50)) <= 0.015
        assert np.mean(it_hi) >= np.mean(os_hi), (
            f"iterative {np.mean(it_hi):.4f} vs one-shot {np.mean(os_hi):.4f} at {high:.3f} pruned"
        )


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical experiment specs give byte-identical CSVs (timing column aside)"):
        import json

        spec = {
            "experiment_id": "det",
            "arch": [6, 8, 3],
            "strategy": "fisher",
            "mode": "iterative",
            "per_round_fraction": 0.3,
            "rounds": 2,
            "fisher": {"sample_count": 30, "fisher_batch_size": 10},
            "train": {"epochs": 2, "learning_rate": 0.2, "train_batch_size": 16, "seed": 0},
            "dataset": {"synthetic": {"classes": 3, "dim": 6, "per_class": 20,
                                      "test_per_class": 10, "noise": 0.2, "seed": 9}},
            "seeds": [1, 2],
            "output_dir": "",
        }

        def run(tag):
            out = tmp_path / tag
            spec["output_dir"] = str(out)
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(spec))
            assert main(["lottery", "--config", str(path)]) == 0
            content = (out / "det.csv").read_bytes().decode()
            return [line.rsplit(",", 1)[0] for line in content.splitlines()]

        assert run("a") == run("b")


def test_criterion_10_weight_movement_oracle():
    with criterion(10, "movement equals an element loop exactly on 100 pairs; avg*N == abs to ULP"):
        arch = (6, 5, 4)
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            a = init_network(arch, seed=seed)
            b = init_network(arch, seed=seed + 10_000)
            mask = random_mask(arch, seed, keep_prob=0.6)
            if mask.kept_count() == 0:
                continue
            report = weight_movement(a, b, mask)
            acc, count = movement_element_loop(a, b, mask)
            assert report.weight_abs_dif == acc
            assert report.unpruned_count == count
            recomposed = report.weight_avg_dif * report.unpruned_count
            assert abs(recomposed - report.weight_abs_dif) <= count * np.spacing(
                max(report.weight_abs_dif, 1.0)
            )
            checked += 1
