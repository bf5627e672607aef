import json

import pytest

from ticketlab import (
    DataFormatError,
    config_hash,
    full_mask,
    gen_synthetic,
    init_network,
    load_checkpoint,
    run_iterative,
    save_checkpoint,
)
from ticketlab.checkpoint import CHECKPOINT_VERSION, CheckpointState, latest_round_path

from conftest import masks_equal, networks_equal
from test_lottery import cfg_iterative, strip_seconds


def make_state(round_index=2):
    arch = (4, 5, 3)
    mask = full_mask(arch)
    mask.layers[0][0, :2] = 0
    return CheckpointState(
        arch=arch,
        round_index=round_index,
        config_hash=config_hash(cfg_iterative(arch=arch)),
        initial=init_network(arch, seed=1),
        baseline=init_network(arch, seed=2),
        mask=mask,
        trained=init_network(arch, seed=3),
        rows=[],
    )


class TestSaveLoad:
    def test_bitwise_round_trip(self, tmp_path):
        state = make_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.arch == state.arch
        assert back.round_index == state.round_index
        assert back.config_hash == state.config_hash
        assert networks_equal(back.initial, state.initial)
        assert networks_equal(back.baseline, state.baseline)
        assert networks_equal(back.trained, state.trained)
        assert masks_equal(back.mask, state.mask)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{ definitely not json")
        with pytest.raises(DataFormatError, match="corrupt"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        payload = json.loads(path.read_text())
        del payload["mask"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_mask_written_as_json_integers(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        entries = {
            (type(v), v)
            for layer in json.loads(path.read_text())["mask"]
            for row in layer
            for v in row
        }
        assert entries == {(int, 0), (int, 1)}

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda p: p["mask"][0][0].__setitem__(0, 2), id="mask-entry-2"),
            pytest.param(lambda p: p["mask"].pop(), id="mask-network-mismatch"),
            pytest.param(
                lambda p: [row.pop() for row in p["trained"]["weights"][1]],
                id="mis-chained-weights",
            ),
            pytest.param(lambda p: p.__setitem__("arch", [1, 2]), id="arch-mismatch"),
        ],
    )
    def test_corrupt_contents_rejected(self, tmp_path, corrupt):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="corrupt"):
            load_checkpoint(path)

    def test_integral_float_arch_loads_as_integers(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        payload = json.loads(path.read_text())
        payload["arch"] = [4, 5.0, 3]
        path.write_text(json.dumps(payload))
        arch = load_checkpoint(path).arch
        assert arch == (4, 5, 3) and all(type(s) is int for s in arch)

    def test_hash_mismatch_warns(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        with pytest.warns(UserWarning, match="different config"):
            load_checkpoint(path, expected_config_hash="0" * 64)


class TestConfigHash:
    def test_stable(self):
        assert config_hash(cfg_iterative()) == config_hash(cfg_iterative())

    def test_sensitive_to_fields(self):
        assert config_hash(cfg_iterative()) != config_hash(cfg_iterative(init_seed=99))


class TestResumeEquivalence:
    def test_resume_after_any_round_matches_uninterrupted(self, tmp_path):
        train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
        test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
        cfg = cfg_iterative(rounds=4)
        full_record = run_iterative(cfg, train_data, test_data, checkpoint_dir=tmp_path)
        assert latest_round_path(tmp_path).name == "round_004.json"

        for resume_round in range(4):
            resumed = run_iterative(
                cfg,
                train_data,
                test_data,
                resume_from=tmp_path / f"round_{resume_round:03d}.json",
            )
            assert strip_seconds(resumed.rows) == strip_seconds(full_record.rows)
