import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ticketlab import UsageError, load_spec, lottery, read_records_csv, seed_configs
from ticketlab import checkpoint, cli, results
from ticketlab.checkpoint import load_checkpoint, load_run_state
from ticketlab.cli import main
from ticketlab.config import build_datasets
from ticketlab.results import RECORD_COLUMNS

from conftest import (
    as_v1,
    as_v4,
    as_v5,
    as_v6,
    as_v7,
    edit_checkpoint,
    edit_header,
    flip_last_data_byte,
    flip_stored_row_bit,
    read_checkpoint,
)


def spec_dict(**overrides):
    """A 6-8-3 l1/iterative spec, updated by `overrides`. A one-shot spec leaves out
    `rounds` and `per_round_fraction`, which one-shot mode never reads."""
    spec = {
        "experiment_id": "unit",
        "arch": [6, 8, 3],
        "strategy": "l1",
        "mode": "iterative",
        "per_round_fraction": 0.3,
        "rounds": 2,
        "init_seed": 1,
        "data_seed": 2,
        "strategy_seed": 3,
        "train": {"epochs": 2, "learning_rate": 0.2, "train_batch_size": 16, "seed": 0},
        "dataset": {
            "synthetic": {"classes": 3, "dim": 6, "per_class": 20, "test_per_class": 8,
                          "noise": 0.2, "seed": 9}
        },
        "output_dir": "out",
        "seeds": [1, 2],
    }
    if overrides.get("mode") == "one_shot":
        del spec["rounds"], spec["per_round_fraction"]
    spec.update(overrides)
    return spec


def write_spec(tmp_path, **overrides):
    """spec_dict(**overrides) as `tmp_path / "spec.json"`; its `output_dir` defaults to
    `tmp_path / "out"`, so that no run writes into the working directory."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict(**{"output_dir": str(tmp_path / "out"), **overrides})))
    return path


def lottery_with(**overrides):
    """argv for `lottery` on write_spec(tmp, **overrides), for the given directory `tmp`."""
    return lambda tmp: ["lottery", "--config", str(write_spec(tmp, **overrides))]


def resume_after(edit_round_0):
    """argv for `lottery --resume` after a run whose round 0 `edit_round_0` changed."""

    def argv(tmp):
        lottery = lottery_with(seeds=[1])(tmp)
        assert main(lottery) == 0
        edit_round_0(tmp / "out" / "checkpoints-unit-seed1" / "round_000.json")
        return lottery + ["--resume"]

    return argv


def strip_seconds_column(blob):
    return [line.rsplit(",", 1)[0] for line in blob.decode().splitlines()]


def replace_with_other_arch(path):
    """Overwrite checkpoint `path` with a valid one of another arch but the same config hash."""
    config_hash = read_checkpoint(path)[0]["config_hash"]
    assert main(["train", "--arch", "6,5,3", "--synthetic", "3,6,10",
                 "--epochs", "1", "--save", str(path)]) == 0
    edit_header(path, lambda h: h.__setitem__("config_hash", config_hash))


V1_RECORD_COLUMNS = (
    "experiment_id,method,mode,seed,round,fraction_pruned,test_accuracy,best_accuracy,"
    "train_loss,weight_abs_dif,weight_avg_dif,backward_passes,seconds"
)


def write_records_csv(tmp_path, header=",".join(RECORD_COLUMNS),
                      row="unit,fisher,iterative,1,6-8-3,10,0,0.0,0.5,0.5,1.0,0.0,0.0,0,0.1"):
    """A one-row record CSV (default: the current schema); returns its path."""
    path = tmp_path / "records.csv"
    path.write_text(f"{header}\n{row}\n")
    return str(path)


def report_on(**csv):
    """argv for `report --figure width_comparison` on write_records_csv(**csv)."""
    return lambda tmp: ["report", "--figure", "width_comparison", "--out", str(tmp / "fig.csv"),
                        write_records_csv(tmp, **csv)]


def blocked_by_file(path):
    """A regular file at `path`, where a directory is wanted; returns its path as text."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not a directory\n")
    return str(path)


def checkpoint_dir_blocked(tmp):
    """argv for a `lottery` whose seed-1 checkpoint directory is a file."""
    blocked_by_file(tmp / "out" / "checkpoints-unit-seed1")
    return lottery_with(seeds=[1])(tmp)


def untrainable(*args, **kwargs):
    raise AssertionError("train was called")


def checkpointed_run(tmp_path, **overrides):
    """Run spec_dict(**overrides) into `tmp_path / "out"`; returns the spec's path and
    the seed-1 checkpoint directory."""
    spec = write_spec(tmp_path, **overrides)
    assert main(["lottery", "--config", str(spec)]) == 0
    return spec, tmp_path / "out" / "checkpoints-unit-seed1"


def write_corrupt_checkpoint(tmp_path, corrupt=flip_last_data_byte):
    """A trained-network checkpoint file, then `corrupt(path)` (default: one data bit flipped)."""
    path = tmp_path / "net.json"
    assert main(["train", "--arch", "6,8,3", "--synthetic", "3,6,10",
                 "--epochs", "1", "--save", str(path)]) == 0
    corrupt(path)
    return str(path)


class TestSpecParsing:
    def test_happy_path(self, tmp_path):
        spec = load_spec(write_spec(tmp_path))
        assert spec.lottery.arch == (6, 8, 3)
        assert spec.lottery.train.epochs == 2
        assert spec.seeds == (1, 2)

    def test_final_train_defaults_to_train(self, tmp_path):
        spec = load_spec(write_spec(tmp_path))
        assert spec.lottery.final_train == spec.lottery.train

    def test_lottery_fields_pass_through(self, tmp_path):
        """Every LotteryConfig field is a spec key, with its sections parsed: the
        iterative fields in an iterative spec, the one-shot and Fisher ones in a
        one-shot Fisher spec."""
        cfg = load_spec(write_spec(
            tmp_path,
            final_train={"epochs": 3, "learning_rate": 0.1, "train_batch_size": 8, "seed": 4},
        )).lottery
        assert (cfg.experiment_id, cfg.per_round_fraction, cfg.rounds) == ("unit", 0.3, 2)
        assert (cfg.init_seed, cfg.data_seed, cfg.strategy_seed) == (1, 2, 3)
        assert (cfg.train.epochs, cfg.final_train.epochs, cfg.final_train.seed) == (2, 3, 4)

        cfg = load_spec(write_spec(
            tmp_path, mode="one_shot", one_shot_targets=[0.5, 0.2], strategy="fisher",
            fisher={"sample_count": 30, "fisher_batch_size": 10},
        )).lottery
        assert (cfg.init_seed, cfg.data_seed, cfg.strategy_seed) == (1, 2, 3)
        assert cfg.one_shot_targets == (0.2, 0.5)
        assert (cfg.fisher.sample_count, cfg.fisher.fisher_batch_size) == (30, 10)

    def test_checkpoint_key_accepts_true_only(self, tmp_path):
        """Every run writes round files: `true` changes nothing, and `false` is refused
        rather than ignored."""
        assert load_spec(write_spec(tmp_path, checkpoint=True)) == load_spec(write_spec(tmp_path))
        with pytest.raises(UsageError, match="^checkpoint .* every run writes round files$"):
            load_spec(write_spec(tmp_path, checkpoint=False))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(UsageError, match="unknown key.*learning_rat"):
            load_spec(write_spec(tmp_path, learning_rat=0.1))

    def test_unknown_train_key(self, tmp_path):
        bad = spec_dict()
        bad["train"]["epoch"] = 3
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError, match="epoch"):
            load_spec(path)

    def test_unknown_dataset_key(self, tmp_path):
        bad = spec_dict()
        bad["dataset"]["synthetic"]["classs"] = 4
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError, match="classs"):
            load_spec(path)

    def test_missing_required_key(self, tmp_path):
        bad = spec_dict()
        del bad["strategy"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError, match="strategy"):
            load_spec(path)

    def test_seed_expansion(self, tmp_path):
        configs = seed_configs(load_spec(write_spec(tmp_path)))
        assert [c.init_seed for c in configs] == [1, 2]
        assert [c.strategy_seed for c in configs] == [1, 2]
        assert [c.train.seed for c in configs] == [1, 2]
        assert all(c.data_seed == 2 for c in configs)

    def test_synthetic_datasets_built(self, tmp_path):
        train, test = build_datasets(load_spec(write_spec(tmp_path)))
        assert len(train) == 60 and len(test) == 24
        assert not np.array_equal(train.inputs[:24], test.inputs)


class TestCli:
    def test_train_synthetic(self, capsys):
        assert main(["train", "--arch", "6,8,3", "--synthetic", "3,6,30,0.2,1",
                     "--epochs", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out

    def test_train_save_and_inspect(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        assert main(["train", "--arch", "6,8,3", "--synthetic", "3,6,30",
                     "--epochs", "1", "--save", str(ckpt)]) == 0
        assert ckpt.exists()
        assert main(["inspect", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "sparsity" in out and "incoming connections" in out

    def test_lottery_then_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["lottery", "--config", str(spec)]) == 0
        records_csv = tmp_path / "out" / "unit.csv"
        assert records_csv.exists()
        records = read_records_csv(records_csv)
        assert len(records) == 2  # one per seed
        assert all(len(r.rows) == 3 for r in records)

        fig = tmp_path / "fig.csv"
        assert main(["report", "--figure", "accuracy_vs_sparsity",
                     "--out", str(fig), str(records_csv)]) == 0
        assert fig.read_text().startswith("series,x,y,seed\n")

    def test_lottery_checkpoint_and_resume(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1])
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        ckpt_dir = out / "checkpoints-unit-seed1"
        assert sorted(p.name for p in ckpt_dir.iterdir()) == [
            "round_000.json", "round_001.json", "round_002.json"
        ]
        # Every round file, round 0 included, holds its mask bits (6 + 3 bytes) and
        # one network's kept weights and 8 + 3 biases, so later rounds are smaller.
        paths = [ckpt_dir / f"round_{r:03d}.json" for r in range(3)]
        sizes = [len(read_checkpoint(path)[1]) for path in paths]
        kept = [load_checkpoint(path).mask.kept_count() for path in paths]
        assert sizes == [9 + 8 * (k + 11) for k in kept] and sizes[0] > sizes[1] > sizes[2]
        capsys.readouterr()
        assert main(["inspect", str(ckpt_dir / "round_001.json")]) == 0
        assert "round index       1\n" in capsys.readouterr().out

        # Drop the final checkpoint to simulate an interruption, then resume from round 1.
        (ckpt_dir / "round_002.json").unlink()
        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        second = (out / "unit.csv").read_bytes()

        assert strip_seconds_column(first) == strip_seconds_column(second)

    def test_resume_skips_newest_checkpoint_that_fails_to_load(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1, 2])
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        newest = out / "checkpoints-unit-seed2" / "round_002.json"
        flip_last_data_byte(newest)
        capsys.readouterr()

        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"skipped: corrupt checkpoint {newest}: ") and "CRC" in err
        assert err.count("skipped") == 1
        assert strip_seconds_column((out / "unit.csv").read_bytes()) == strip_seconds_column(first)
        resumed_state = load_run_state(newest, seed_configs(load_spec(spec))[1])
        assert resumed_state.round_index == 2  # the resumed run wrote it again

    def test_resume_skips_newest_checkpoint_that_cannot_be_read(self, tmp_path, capsys):
        """An OSError on reading a round file skips it as a damaged file is skipped."""
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1])
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        newest = out / "checkpoints-unit-seed1" / "round_002.json"
        newest.unlink()
        newest.symlink_to(tmp_path / "gone.json")  # dangling: reading it fails
        capsys.readouterr()

        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("skipped: ") and f"{newest}" in err and err.count("skipped") == 1
        assert strip_seconds_column((out / "unit.csv").read_bytes()) == strip_seconds_column(first)
        resumed_state = load_run_state(newest, seed_configs(load_spec(spec))[0])
        assert resumed_state.round_index == 2  # the resumed run wrote it again

    def test_default_experiment_id_is_shared_by_every_seed(self, tmp_path):
        """The seed column and the checkpoint directory name tell the seeds apart."""
        out = tmp_path / "out"
        obj = spec_dict(output_dir=str(out), seeds=[1, 2])
        del obj["experiment_id"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert [c.experiment_id for c in seed_configs(load_spec(spec))] == ["l1-iterative"] * 2

        assert main(["lottery", "--config", str(spec)]) == 0
        records = read_records_csv(out / "l1-iterative.csv")
        assert [(r.experiment_id, r.seed) for r in records] == [
            ("l1-iterative", 1), ("l1-iterative", 2)
        ]
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoints-l1-iterative-seed1", "checkpoints-l1-iterative-seed2", "l1-iterative.csv"
        ]

    def test_resume_skips_checkpoint_with_flipped_row_bit(self, tmp_path, capsys):
        """The CRC covers the header, so a changed recorded row does not reach the CSV."""
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1])
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        newest = out / "checkpoints-unit-seed1" / "round_002.json"
        flip_stored_row_bit(newest)
        capsys.readouterr()

        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"skipped: corrupt checkpoint {newest}: ") and "CRC" in err
        assert strip_seconds_column((out / "unit.csv").read_bytes()) == strip_seconds_column(first)

    def test_resume_under_other_spec_exit_2(self, tmp_path, capsys):
        """Every round file belongs to the run of the spec as it was, so a resume
        under an edited spec has nothing to continue from."""
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1])
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        capsys.readouterr()

        spec = write_spec(tmp_path, seeds=[1],
                          per_round_fraction=0.25)
        assert main(["lottery", "--config", str(spec), "--resume"]) == 2
        err = capsys.readouterr().err
        newest = out / "checkpoints-unit-seed1" / "round_002.json"
        assert err.startswith("data error: no checkpoint in ")
        assert f"{newest} belongs to another run" in err
        assert (out / "unit.csv").read_bytes() == first

    @staticmethod
    def resume_over_old_directory(tmp_path, capsys, rewrite, version):
        """Rewrite every file of a finished run's checkpoint directory to format
        `version`; `--resume` and `verify` must exit 2 naming that version, and
        leave the CSV."""
        spec, directory = checkpointed_run(tmp_path, seeds=[1])
        first = (tmp_path / "out" / "unit.csv").read_bytes()
        for path in directory.iterdir():
            rewrite(path)
        capsys.readouterr()
        assert main(["lottery", "--config", str(spec), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: no checkpoint in {directory} loads: ")
        assert err.count(f"has format version {version}, this build reads version 8") == 3
        assert main(["verify", "--config", str(spec)]) == 2
        assert f"has format version {version}, this build reads version 8" in (
            capsys.readouterr().err)
        assert (tmp_path / "out" / "unit.csv").read_bytes() == first

    def test_resume_over_v6_directory_exit_2(self, tmp_path, capsys):
        """This build reads format version 8 only: a directory of version-6 files
        written before it has nothing to continue from."""
        self.resume_over_old_directory(tmp_path, capsys, as_v6, 6)

    def test_resume_over_v7_directory_exit_2(self, tmp_path, capsys):
        """Version 7 had the version-8 layout, but its weights came from training that
        never compacted a layer, so resuming it would mix two arithmetics in one run."""
        self.resume_over_old_directory(tmp_path, capsys, as_v7, 7)

    def test_one_shot_checkpoint_and_resume(self, tmp_path):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, seeds=[1, 2],
                          mode="one_shot", one_shot_targets=[0.2, 0.5, 0.8], strategy="random")
        assert main(["lottery", "--config", str(spec)]) == 0
        first = (out / "unit.csv").read_bytes()
        for seed in (1, 2):
            assert sorted(p.name for p in (out / f"checkpoints-unit-seed{seed}").iterdir()) == [
                f"round_{r:03d}.json" for r in range(4)
            ]

        for path in out.glob("checkpoints-*/round_*.json"):
            if int(path.stem.split("_")[1]) > 1:
                path.unlink()
        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        assert strip_seconds_column((out / "unit.csv").read_bytes()) == strip_seconds_column(first)

    def test_round_file_that_is_no_regular_file_exit_2_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        """A save would write into it in place, so no command trains at all."""
        spec, directory = checkpointed_run(tmp_path, seeds=[1, 2])
        first = (tmp_path / "out" / "unit.csv").read_bytes()
        newest = directory / "round_002.json"
        newest.unlink()
        newest.mkdir()
        monkeypatch.setattr(lottery, "train", untrainable)
        capsys.readouterr()
        for argv in (["lottery", "--config", str(spec), "--resume"],
                     ["lottery", "--config", str(spec)],
                     ["verify", "--config", str(spec)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"data error: {newest} is not a regular file\n"
        assert (tmp_path / "out" / "unit.csv").read_bytes() == first

    def test_usage_error_exit_1(self, capsys):
        assert main(["train", "--arch", "6,8"]) == 1  # no dataset source
        assert main(["report", "--figure", "bogus", "--out", "x", "y"]) == 1

    @pytest.mark.parametrize(
        "given, missing",
        [("--test-images", "--test-labels"), ("--test-labels", "--test-images")],
    )
    def test_lone_eval_flag_exit_1(self, tmp_path, capsys, given, missing):
        """An eval flag without its pair is refused, not dropped in favour of training accuracy."""
        argv = ["train", "--arch", "6,5,3", "--synthetic", "3,6,10", given,
                str(tmp_path / "missing.idx")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: need --test-images and --test-labels together; {missing} is missing\n"
        )

    def test_data_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x01\x05")
        assert main(["train", "--arch", "6,8,3", "--images", str(bad),
                     "--labels", str(bad)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                lambda tmp: ["train", "--arch", "6,8,3", "--synthetic", "2,x,5"],
                id="train-synthetic-non-integer",
            ),
            pytest.param(
                lambda tmp: ["train", "--arch", "6,x,3", "--synthetic", "3,6,5"],
                id="train-arch-non-integer",
            ),
            pytest.param(lottery_with(arch=[3, "x"]), id="spec-arch-non-integer"),
            pytest.param(lottery_with(seeds=["a"]), id="spec-seeds-non-integer"),
            pytest.param(lottery_with(arch=[6, 8.9, 3]), id="spec-arch-non-integral"),
            pytest.param(lottery_with(rounds=2.5), id="spec-rounds-non-integral"),
            pytest.param(lottery_with(rounds=True), id="spec-rounds-boolean"),
            pytest.param(lottery_with(init_seed=1.5), id="spec-init-seed-non-integral"),
            pytest.param(lottery_with(train={"epochs": 1.5}), id="spec-train-epochs-non-integral"),
            pytest.param(
                lottery_with(strategy="fisher", fisher={"sample_count": 20.5}),
                id="spec-fisher-sample-count-non-integral",
            ),
            pytest.param(
                lottery_with(dataset={"synthetic": {
                    "classes": 3, "dim": 6, "per_class": 20, "test_per_class": 8.5}}),
                id="spec-synthetic-count-non-integral",
            ),
            pytest.param(lottery_with(seeds=[1.7]), id="spec-seeds-non-integral"),
            pytest.param(lottery_with(checkpoint="no"), id="spec-checkpoint-not-boolean"),
            pytest.param(lottery_with(checkpoint=False), id="spec-checkpoint-false"),
            pytest.param(
                lottery_with(dataset={"synthetic": {
                    "classes": 3, "dim": 6, "per_class": 20, "test_per_class": 8, "noise": "x"}}),
                id="spec-synthetic-noise-non-numeric",
            ),
            pytest.param(
                lottery_with(mode="one_shot", one_shot_targets=["x"]),
                id="spec-one-shot-targets-non-numeric",
            ),
            pytest.param(lottery_with(output_dir=5), id="spec-output-dir-non-string"),
            pytest.param(lottery_with(experiment_id=5), id="spec-experiment-id-non-string"),
            pytest.param(lottery_with(seeds=[1, 1]), id="spec-seeds-duplicate"),
            pytest.param(lottery_with(experiment_id="a/b"), id="spec-experiment-id-path"),
            pytest.param(lottery_with(experiment_id=".."), id="spec-experiment-id-parent"),
        ],
    )
    def test_non_integer_values_exit_1(self, tmp_path, capsys, argv):
        assert main(argv(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param({"per_round_fraction": "x"}, "per_round_fraction",
                         id="per-round-fraction-string"),
            pytest.param({"train": {"learning_rate": "x"}}, "learning_rate",
                         id="learning-rate-string"),
            pytest.param({"train": {"learning_rate": None}}, "learning_rate",
                         id="learning-rate-null"),
            pytest.param({"fisher": None}, "fisher must be an object", id="fisher-null"),
            pytest.param({"fisher": {"sample_count": 30}},
                         "fisher is read only by the fisher strategy", id="fisher-on-l1"),
            pytest.param({"strategy": "random", "fisher": {"sample_count": 30}},
                         "fisher is read only by the fisher strategy", id="fisher-on-random"),
            pytest.param({"one_shot_targets": [0.5]},
                         "one_shot_targets is read only in one_shot mode",
                         id="one-shot-targets-on-iterative"),
            pytest.param({"mode": "one_shot", "one_shot_targets": [0.5], "rounds": 2},
                         "one_shot mode never reads rounds", id="rounds-on-one-shot"),
            pytest.param({"mode": "one_shot", "one_shot_targets": [0.5],
                          "per_round_fraction": 0.3},
                         "one_shot mode never reads per_round_fraction",
                         id="per-round-fraction-on-one-shot"),
            pytest.param({"fisher": "ab"}, "fisher must be an object", id="fisher-string"),
            pytest.param({"dataset": {"synthetic": {"classes": 3, "per_class": 20,
                                                    "test_per_class": 8}}},
                         "dataset.synthetic is missing: dim", id="synthetic-without-dim"),
            pytest.param({"arch": "43"}, "arch must be a list", id="arch-string"),
            pytest.param({"arch": 5}, "arch must be a list", id="arch-integer"),
            pytest.param({"arch": ["6", "8", "3"]}, "layer size", id="arch-strings"),
            pytest.param({"rounds": "2"}, "rounds", id="rounds-string"),
            pytest.param({"rounds": " 2"}, "rounds", id="rounds-padded-string"),
            pytest.param({"seeds": ["1"]}, "seed", id="seeds-strings"),
            pytest.param({"train": {"epochs": "1"}}, "epochs", id="epochs-string"),
            pytest.param({"dataset": {"idx": {"train_images": 1, "train_labels": "b.idx",
                                              "test_images": "c.idx", "test_labels": "d.idx"}}},
                         "dataset.idx.train_images must be a string", id="idx-path-integer"),
        ],
    )
    def test_wrong_typed_values_name_the_field(self, tmp_path, capsys, overrides, field):
        assert main(lottery_with(**overrides)(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "not supported" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                lambda tmp: ["train", "--arch", "4,6,2", "--images", str(tmp / "no-images.idx"),
                             "--labels", str(tmp / "no-labels.idx")],
                id="train-missing-idx",
            ),
            pytest.param(
                lottery_with(dataset={"idx": {"train_images": "a.idx", "train_labels": "b.idx",
                                              "test_images": "c.idx", "test_labels": "d.idx"}}),
                id="spec-missing-idx",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp)],
                id="inspect-flipped-data-byte",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(
                    tmp, lambda path: edit_header(path, lambda h: h.__setitem__("arch", [1, 2])))],
                id="inspect-arch-mismatch",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp, as_v1)],
                id="inspect-v1-checkpoint",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp, as_v4)],
                id="inspect-v4-checkpoint",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp, as_v5)],
                id="inspect-v5-checkpoint",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp, as_v6)],
                id="inspect-v6-checkpoint",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(tmp, as_v7)],
                id="inspect-v7-checkpoint",
            ),
            pytest.param(
                lambda tmp: ["inspect", write_corrupt_checkpoint(
                    tmp, lambda path: edit_header(path, lambda h: h.__setitem__("round_index", 2.5)))],
                id="inspect-round-index-non-integral",
            ),
            pytest.param(resume_after(lambda p: p.unlink()), id="resume-round-0-missing"),
            pytest.param(
                resume_after(lambda p: p.write_text("{ definitely not json")),
                id="resume-round-0-corrupt",
            ),
            pytest.param(
                resume_after(lambda p: edit_header(
                    p, lambda h: h.__setitem__("initial_sha256", "0" * 64))),
                id="resume-initial-digest-mismatch",
            ),
            pytest.param(
                resume_after(lambda p: edit_checkpoint(
                    p, lambda d: d.__setitem__("config_hash", "0" * 64))),
                id="resume-round-0-other-config-hash",
            ),
            pytest.param(resume_after(replace_with_other_arch), id="resume-round-0-other-arch"),
            pytest.param(
                report_on(header=V1_RECORD_COLUMNS,
                          row="unit,fisher,iterative,1,0,0.0,0.5,0.5,1.0,0.0,0.0,0,0.1"),
                id="report-v1-record-csv",
            ),
            pytest.param(
                report_on(row="unit,fisher,iterative,1,6-x-3,10,0,0.0,0.5,0.5,1.0,0.0,0.0,0,0.1"),
                id="report-malformed-arch",
            ),
            # Paths the OS refuses to read or write: the OSError maps to exit 2.
            pytest.param(
                lambda tmp: lottery_with(output_dir=blocked_by_file(tmp / "out"))(tmp),
                id="lottery-output-dir-is-file",
            ),
            pytest.param(checkpoint_dir_blocked, id="lottery-checkpoint-dir-blocked"),
            pytest.param(
                lambda tmp: ["train", "--arch", "6,8,3", "--synthetic", "3,6,10", "--epochs", "1",
                             "--save", str(tmp / "missing" / "net.json")],
                id="train-save-into-missing-dir",
            ),
            pytest.param(
                lambda tmp: ["lottery", "--config", str(tmp / "missing.json")],
                id="lottery-missing-spec",
            ),
            pytest.param(
                lambda tmp: ["report", "--figure", "width_comparison", "--out",
                             str(tmp / "fig.csv"), str(tmp / "missing.csv")],
                id="report-missing-csv",
            ),
        ],
    )
    def test_unreadable_inputs_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        """Each fault is found before a lottery round trains."""
        argv = argv(tmp_path)
        monkeypatch.setattr(lottery, "train", untrainable)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow)")
    def test_numerical_error_exit_3(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            seeds=[1],
            train={"epochs": 3, "learning_rate": 1e200, "train_batch_size": 16, "seed": 0},
        )
        assert main(["lottery", "--config", str(spec)]) == 3

    def test_help_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("train", "lottery", "report", "inspect", "verify"):
            assert command in out

    def test_train_on_idx_files(self, tmp_path, capsys):
        from ticketlab import Dataset, write_idx
        from ticketlab import rng

        pixels = (rng.raw64(3, 60 * 4) % np.uint64(256)).astype(np.float64).reshape(60, 4) / 255.0
        ds = Dataset(pixels, (rng.raw64(4, 60) % np.uint64(2)).astype(np.int64))
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ds, images, labels, rows=2, cols=2)
        assert main(["train", "--arch", "4,6,2", "--images", str(images),
                     "--labels", str(labels), "--epochs", "1"]) == 0

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_past_class_count_exit_1_at_round_0(self, tmp_path, capsys, split):
        """A label past `arch[-1]` in either split stops the run before round 0 is written;
        in the test split it would otherwise count as a wrong answer in every accuracy."""
        from ticketlab import Dataset, write_idx
        from ticketlab import rng

        idx = {}
        for name, seed in (("train", 3), ("test", 5)):
            pixels = (rng.raw64(seed, 40 * 4) % np.uint64(256)).astype(np.float64) / 255.0
            labels = (rng.raw64(seed + 1, 40) % np.uint64(2)).astype(np.int64)
            if name == split:
                labels[7] = 5
            images_path, labels_path = tmp_path / f"{name}-i.idx", tmp_path / f"{name}-l.idx"
            write_idx(Dataset(pixels.reshape(40, 4), labels), images_path, labels_path,
                      rows=2, cols=2)
            idx.update({f"{name}_images": str(images_path), f"{name}_labels": str(labels_path)})
        argv = lottery_with(arch=[4, 6, 2], seeds=[1], dataset={"idx": idx})(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "label 5 out of range for 2 classes" in err
        assert not list((tmp_path / "out").rglob("round_*.json"))

    def test_report_labels_name_the_series_of_each_file(self, tmp_path, capsys):
        """`--labels` gives each input CSV's records their own series, even where
        method and mode are the same; it needs one label per file."""
        inputs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            inputs.append(write_records_csv(tmp_path / name))
        fig = tmp_path / "fig.csv"
        argv = ["report", "--figure", "accuracy_vs_sparsity", "--out", str(fig), *inputs]

        assert main(argv) == 0
        assert [line.split(",")[0] for line in fig.read_text().splitlines()] == [
            "series", "fisher/iterative", "fisher/iterative"
        ]
        assert main(argv + ["--labels", "batch-1,batch-10"]) == 0
        assert [line.split(",")[0] for line in fig.read_text().splitlines()] == [
            "series", "batch-1", "batch-10"
        ]
        capsys.readouterr()
        assert main(argv + ["--labels", "only-one"]) == 1
        assert "--labels gives 1 labels for 2 input CSVs" in capsys.readouterr().err

    def test_one_shot_spec(self, tmp_path):
        out = tmp_path / "out"
        spec = write_spec(
            tmp_path,
            mode="one_shot",
            one_shot_targets=[0.3, 0.6],
            seeds=[1],
        )
        assert main(["lottery", "--config", str(spec)]) == 0
        records = read_records_csv(out / "unit.csv")
        assert len(records[0].rows) == 3

    def test_report_figures_from_lottery_csv_need_no_flags(self, tmp_path, capsys):
        """width_comparison and batch_comparison read arch and batch size from the CSV."""
        out = tmp_path / "out"
        spec = write_spec(
            tmp_path,
            strategy="fisher",
            fisher={"sample_count": 30, "fisher_batch_size": 10},
        )
        assert main(["lottery", "--config", str(spec)]) == 0
        records = str(out / "unit.csv")
        fig = tmp_path / "fig.csv"

        assert main(["report", "--figure", "batch_comparison", "--out", str(fig), records]) == 0
        lines = fig.read_text().splitlines()
        assert lines[0] == "series,x,y_mean,y_stddev,n_seeds"
        assert len(lines) == 2 and lines[1].startswith("fisher,10,") and lines[1].endswith(",2")

        assert main(["report", "--figure", "width_comparison", "--out", str(fig), records]) == 0
        lines = fig.read_text().splitlines()
        assert lines[0] == "series,x,y,seed"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["dense", "8"], ["dense", "8"], ["pruned:fisher", "8"], ["pruned:fisher", "8"]
        ]

        assert main(["report", "--figure", "batch_comparison", "--out", str(fig), records,
                     "--batch-sizes", "10"]) == 1

    def test_record_of_another_strategy_has_no_batch_size(self, tmp_path, capsys):
        """An L1 run leaves the record's fisher_batch_size empty, so
        batch_comparison refuses the record."""
        checkpointed_run(tmp_path, seeds=[1])
        records = tmp_path / "out" / "unit.csv"
        assert [r.fisher_batch_size for r in read_records_csv(records)] == [None]
        capsys.readouterr()
        assert main(["report", "--figure", "batch_comparison", "--out", str(tmp_path / "fig.csv"),
                     str(records)]) == 1
        assert "needs records produced by the fisher strategy" in capsys.readouterr().err


class SimulatedKill(BaseException):
    """A crash that no handler in ticketlab catches, as a killed process would not."""


def torn(data):
    """The first half of `data`, then a kill."""
    yield data[: len(data) // 2]
    raise SimulatedKill


def kill_in_write(module, at):
    """Kill the run halfway through the `at`-th file that `module` writes through
    `write_atomically`, while it fills the temporary file."""

    def install(monkeypatch):
        real, seen = module.write_atomically, []

        def write(path, chunks):
            seen.append(path)
            real(path, torn(b"".join(chunks)) if len(seen) == at else chunks)

        monkeypatch.setattr(module, "write_atomically", write)

    return install


def kill_before_rename(at):
    """Kill the run after the `at`-th write has synced its temporary file, before
    `os.replace` moves it into place."""

    def install(monkeypatch):
        real, seen = os.replace, []

        def replace(src, dst):
            seen.append(dst)
            if len(seen) == at:
                raise SimulatedKill
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    return install


def kill_between_seeds(monkeypatch):
    """Kill the run after seed 1 has finished, before seed 2 starts."""
    real, runs = cli.run_iterative, []

    def run(*args, **kwargs):
        runs.append(args)
        if len(runs) == 2:
            raise SimulatedKill
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_iterative", run)


class TestCrashMatrix:
    """A `lottery` run killed at any write point resumes to the uninterrupted record.

    The spec has no `checkpoint` key, since every run writes its round files:
    six of them (rounds 0-2 of seed 1, then of seed 2), then the CSV. A
    killed write leaves its temporary file behind, since no cleanup runs; a
    resume must neither read it nor leave it.
    """

    @pytest.mark.parametrize(
        "install, left_behind",
        [pytest.param(kill_in_write(checkpoint, at), 1, id=f"checkpoint-write-{at}")
         for at in (1, 2, 5)]
        + [pytest.param(kill_before_rename(at), 1, id=f"before-rename-{at}") for at in (1, 3, 6)]
        + [
            pytest.param(kill_in_write(results, 1), 1, id="mid-csv"),
            pytest.param(kill_between_seeds, 0, id="between-seeds"),
        ],
    )
    def test_resume_writes_uninterrupted_record(self, tmp_path, monkeypatch, install,
                                                left_behind):
        (tmp_path / "clean").mkdir()
        checkpointed_run(tmp_path / "clean")
        clean = tmp_path / "clean" / "out"
        out = tmp_path / "out"
        spec = write_spec(tmp_path)
        assert "checkpoint" not in json.loads(spec.read_text())
        real_unlink = Path.unlink
        with monkeypatch.context() as patch:
            install(patch)
            # What a killed process leaves: `write_atomically` never removes its
            # temporary file.
            patch.setattr(Path, "unlink", lambda path, missing_ok=False: (
                None if path.name.endswith(".tmp") else real_unlink(path, missing_ok)))
            with pytest.raises(SimulatedKill):
                main(["lottery", "--config", str(spec)])
        assert len(list(out.rglob(".*.tmp"))) == left_behind
        assert not (out / "unit.csv").exists()

        assert main(["lottery", "--config", str(spec), "--resume"]) == 0
        assert strip_seconds_column((out / "unit.csv").read_bytes()) == strip_seconds_column(
            (clean / "unit.csv").read_bytes())
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == sorted(
            p.relative_to(clean) for p in clean.rglob("*"))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def ticketlab_process(argv, **env):
    """`python -m ticketlab.cli *argv` in a fresh process with `env` added to the environment."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "ticketlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)


def verify_lines(capsys, spec):
    """(exit code, stdout lines) of `verify` on `spec`."""
    capsys.readouterr()
    code = main(["verify", "--config", str(spec)])
    return code, capsys.readouterr().out.splitlines()


class TestVerify:
    @pytest.mark.parametrize(
        "overrides, newest",
        [
            pytest.param({}, 2, id="iterative"),
            pytest.param({"mode": "one_shot", "one_shot_targets": [0.2, 0.6], "strategy": "random"},
                         2, id="one-shot"),
            pytest.param({}, 0, id="newest-round-0"),
        ],
    )
    def test_reproduced_run_is_equal(self, tmp_path, capsys, overrides, newest):
        spec, _ = checkpointed_run(tmp_path, **overrides)
        for path in (tmp_path / "out").glob("checkpoints-*/round_*.json"):
            if int(path.stem[len("round_"):]) > newest:
                path.unlink()
        expected = [f"seed {seed} round {newest}: equal" for seed in (1, 2)]
        assert verify_lines(capsys, spec) == (0, expected)

    def test_changed_kept_weight_exit_3(self, tmp_path, capsys):
        spec, directory = checkpointed_run(tmp_path)

        def nudge(payload):
            weights, kept = payload["trained"]["weights"][1], payload["mask"][1]
            index = tuple(np.argwhere(kept)[0])
            weights[index] = np.nextafter(weights[index], np.inf)

        edit_checkpoint(directory / "round_002.json", nudge)
        assert verify_lines(capsys, spec) == (3, [
            "seed 1 round 2: differs: first in layer 1 weights, differing values 1, max 1 ULP; "
            "masks equal; row equal",
            "seed 2 round 2: equal",
        ])

    def test_fresh_run_drops_round_files_of_a_longer_earlier_run(self, tmp_path, capsys):
        """A run without --resume starts over, so an earlier 4-round run's rounds 3
        and 4 are not left for `verify` to take as the newest."""
        checkpointed_run(tmp_path, rounds=4)
        spec, directory = checkpointed_run(tmp_path)
        assert sorted(p.name for p in directory.iterdir()) == [
            f"round_{r:03d}.json" for r in range(3)
        ]
        assert verify_lines(capsys, spec) == (0, [f"seed {s} round 2: equal" for s in (1, 2)])

    def test_changed_dataset_exit_3(self, tmp_path, capsys):
        spec, _ = checkpointed_run(tmp_path, seeds=[1])
        data = spec_dict()["dataset"]
        data["synthetic"].update(noise=0.9, seed=4)
        write_spec(tmp_path, seeds=[1], dataset=data)
        code, lines = verify_lines(capsys, spec)
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("seed 1 round 2: differs: first in layer ")
        assert lines[0].endswith("; row differs")

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
    def test_run_under_two_blas_threads_differs_under_one(self, tmp_path):
        """The masks agree, but the trained bits depend on the BLAS thread count."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_dict(
            arch=[784, 300, 100, 10], per_round_fraction=0.5, rounds=1, seeds=[1],
            train={"epochs": 2, "learning_rate": 0.1, "train_batch_size": 128, "seed": 0},
            dataset={"synthetic": {"classes": 10, "dim": 784, "per_class": 300,
                                   "test_per_class": 20, "noise": 0.3, "seed": 3}},
            output_dir=str(tmp_path / "out"),
        )))
        run = ticketlab_process(["lottery", "--config", str(spec)], OPENBLAS_NUM_THREADS="2")
        assert run.returncode == 0, run.stderr
        same = ticketlab_process(["verify", "--config", str(spec)], OPENBLAS_NUM_THREADS="2")
        assert (same.returncode, same.stdout) == (0, "seed 1 round 1: equal\n"), same.stderr
        other = ticketlab_process(["verify", "--config", str(spec)], OPENBLAS_NUM_THREADS="1")
        assert other.returncode == 3, other.stderr
        assert other.stdout.startswith("seed 1 round 1: differs: first in layer ")
        assert "; masks equal;" in other.stdout

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda d: (d / "round_001.json").unlink(), "round_001.json",
                         id="previous-round-missing"),
            pytest.param(lambda d: flip_last_data_byte(d / "round_002.json"),
                         "corrupt checkpoint", id="newest-damaged"),
            pytest.param(lambda d: edit_header(d / "round_002.json",
                                               lambda h: h.__setitem__("config_hash", "0" * 64)),
                         "round_002.json belongs to another run", id="newest-of-another-run"),
            pytest.param(lambda d: (d / "round_000.json").unlink(), "round_000.json",
                         id="round-0-missing"),
            pytest.param(shutil.rmtree, "no checkpoint in", id="no-checkpoints"),
        ],
    )
    def test_unusable_round_file_exit_2(self, tmp_path, capsys, edit, named):
        """A file that fails to load is named, never skipped."""
        spec, directory = checkpointed_run(tmp_path)
        edit(directory)
        capsys.readouterr()
        assert main(["verify", "--config", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("data error: ") and named in err
