import base64
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from ticketlab import (
    DataFormatError,
    FisherConfig,
    PruneMask,
    ShapeError,
    UsageError,
    apply_mask,
    config_hash,
    full_mask,
    gen_synthetic,
    init_network,
    load_checkpoint,
    rng,
    run_iterative,
    run_one_shot,
    save_checkpoint,
)
from ticketlab import checkpoint as ckpt
from ticketlab.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointState,
    latest_round_path,
    load_run_state,
    network_sha256,
    save_round,
)
from ticketlab.results import RoundRow

from conftest import (
    as_old_version,
    as_v1,
    as_v4,
    as_v5,
    as_v6,
    as_v7,
    decode_checkpoint,
    edit_checkpoint,
    edit_header,
    flip_last_data_byte,
    flip_stored_row_bit,
    masks_equal,
    networks_equal,
    read_checkpoint,
    write_checkpoint,
)
from test_lottery import cfg_iterative, strip_seconds


TINY_DATA = (gen_synthetic(3, 4, 10, seed=5), gen_synthetic(3, 4, 5, seed=6))


ODD_ARCHES = [(1, 1), (1, 7, 1), (3, 3, 3), (9, 17, 2), (8, 8)]
EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
            2.2250738585072014e-308, -2.225073858507201e-308, 1.2345678901234567e-7]


def make_state(round_index=2, arch=(4, 5, 3)):
    mask = full_mask(arch)
    mask.layers[0][0, :2] = 0
    return CheckpointState(
        arch=arch,
        round_index=round_index,
        config_hash=config_hash(cfg_iterative(arch=arch)),
        initial_sha256=network_sha256(init_network(arch, seed=1)),
        mask=mask,
        trained=apply_mask(init_network(arch, seed=3), mask),
        rows=[RoundRow(0, 0.0, 0.525, 0.55, 1.0986, 0.0, 0.0, 0, 0.1)],
    )


def edited(edit):
    """A file corruption: `edit_checkpoint` with `edit`, which recomputes the CRC."""
    return lambda path: edit_checkpoint(path, edit)


def header_edited(edit):
    """A file corruption: `edit_header` with `edit`, which recomputes the CRC."""
    return lambda path: edit_header(path, edit)


def with_data(change):
    """A file corruption: the data section replaced by `change(data)`, with the CRC recomputed."""

    def corrupt(path):
        header, data = read_checkpoint(path)
        write_checkpoint(path, header, change(data))

    return corrupt


def drop_newline(path):
    header, _ = read_checkpoint(path)
    path.write_bytes(json.dumps(header).encode("utf-8"))


class TestSaveLoad:
    def test_bitwise_round_trip(self, tmp_path):
        state = make_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.arch == state.arch
        assert back.round_index == state.round_index
        assert back.config_hash == state.config_hash
        assert back.initial_sha256 == state.initial_sha256
        assert networks_equal(back.trained, state.trained)
        assert masks_equal(back.mask, state.mask)
        assert back.rows == state.rows

    def test_mask_bits_round_trip_for_any_layer_size(self, tmp_path):
        """Layer sizes on both sides of a byte boundary; the pad bits must not leak."""
        path = tmp_path / "ckpt.json"
        gen = np.random.default_rng(7)
        for arch in ODD_ARCHES:
            state = make_state(arch=arch)
            state.mask = PruneMask([gen.random(m.shape) < 0.5 for m in state.mask.layers])
            state.trained = apply_mask(state.trained, state.mask)
            save_checkpoint(state, path)
            assert masks_equal(load_checkpoint(path).mask, state.mask), arch

    def test_save_refuses_state_its_arch_does_not_describe(self, tmp_path):
        """A file takes every shape from `arch`, so it must not be written otherwise."""
        path = tmp_path / "ckpt.json"
        state = make_state()
        state.trained = init_network((4, 6, 3), seed=2)
        with pytest.raises(ShapeError, match="layer sizes"):
            save_checkpoint(state, path)
        state = make_state()
        state.mask = full_mask((4, 5, 2))
        with pytest.raises(ShapeError):
            save_checkpoint(state, path)
        assert not path.exists()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        header, data = read_checkpoint(path)
        write_checkpoint(path, {**header, "format_version": CHECKPOINT_VERSION + 1}, data)
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
        header, data = read_checkpoint(path)
        del header["round_index"]
        write_checkpoint(path, header, data)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_mask_written_as_packed_bits(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        # Layer 0 is 5x4 with its first two entries pruned, layer 1 is 3x5 and
        # all kept: 20 and 15 bits, row-major, first entry in the high bit, each
        # layer zero-padded to whole bytes at the start of the data section.
        _, data = read_checkpoint(path)
        assert data[:5] == bytes([0b00111111, 0xFF, 0b11110000, 0xFF, 0b11111110])
        layers = decode_checkpoint(path)["mask"]
        assert masks_equal(load_checkpoint(path).mask, make_state().mask)
        assert [m.shape for m in layers] == [(5, 4), (3, 5)]

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        """Kept -0.0, subnormals and extremes come back in every bit, in layers
        that keep some, none or all of their weights; pruned ones as +0.0."""
        gen = np.random.default_rng(11)
        path = tmp_path / "ckpt.json"
        patterns = [lambda m: gen.random(m.shape) < 0.5, np.zeros_like, np.ones_like]
        for arch, shift in itertools.product(ODD_ARCHES, range(3)):
            state = make_state(arch=arch)
            state.mask = PruneMask([patterns[(l + shift) % 3](m).astype(bool)
                                    for l, m in enumerate(state.mask.layers)])
            for w, m in zip(state.trained.weights, state.mask.layers):
                w[:] = 0.0
                w[m] = np.resize(EXTREMES, int(m.sum()))
            for b in state.trained.biases:
                b[:] = np.resize(EXTREMES[::-1], b.size)
            save_checkpoint(state, path)
            back = load_checkpoint(path)
            assert masks_equal(back.mask, state.mask)
            for saved, loaded in zip(
                state.trained.weights + state.trained.biases,
                back.trained.weights + back.trained.biases,
            ):
                assert loaded.dtype == np.float64 and loaded.flags.writeable
                assert np.array_equal(loaded.view(np.uint64), saved.view(np.uint64)), (arch, shift)
            for m, w in zip(back.mask.layers, back.trained.weights):
                assert (w[~m] == 0).all() and not np.signbit(w[~m]).any()

    @pytest.mark.parametrize("value", [-0.0, 1e-300, np.nan], ids=["minus-zero", "tiny", "nan"])
    def test_save_refuses_nonzero_pruned_position(self, tmp_path, value):
        """A file stores kept weights only, so a pruned position must hold +0.0,
        whose bits it gives back; anything else would be lost."""
        path = tmp_path / "ckpt.json"
        state = make_state()
        state.trained.weights[0][0, 1] = value  # flat index 1 of layer 0 is pruned
        with pytest.raises(UsageError,
                           match=r"layer 0 .* 1 pruned weights .*\(first at flat index 1\)"):
            save_checkpoint(state, path)
        assert not path.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", [1.0, 0.512, 0.0115])
    def test_lenet_size_follows_kept_fraction(self, tmp_path, fraction):
        """A LeNet-300-100 file is its header line, 33,275 bytes of mask bits,
        8 bytes per kept weight and per bias, and the 4-byte CRC."""
        arch = (784, 300, 100, 10)
        gen = np.random.default_rng(3)
        state = make_state(arch=arch)
        state.mask = PruneMask([gen.random(m.shape) < fraction for m in state.mask.layers])
        state.trained = apply_mask(state.trained, state.mask)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        kept = state.mask.kept_count()
        assert abs(kept / 266_200 - fraction) < 0.002
        header_line = path.read_bytes().index(b"\n") + 1
        assert path.stat().st_size == header_line + 33_275 + 8 * (kept + 410) + 4

    def test_v1_decimal_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        as_v1(path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1 and payload["mask"][0][0] == [0, 0, 1, 1]
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_v2_and_v3_checkpoints_rejected(self, tmp_path):
        """Versions 2 and 3 were one JSON document with base64 arrays, version 4 a header
        line of shape lists before the raw arrays, version 5 up to three networks a
        file, version 6 every weight of one network, pruned ones included, version 7
        the current layout from training that never compacted a layer; no reader
        is kept for any of them."""
        path = tmp_path / "ckpt.json"
        for version in (2, 3, 4, 5, 6, 7):
            save_checkpoint(make_state(), path)
            if version >= 4:
                {4: as_v4, 5: as_v5, 6: as_v6, 7: as_v7}[version](path)
            else:
                as_old_version(path, version, lambda a: {
                    "shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")
                })
            with pytest.raises(DataFormatError, match=f"format version {version}, .* version 8"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, fault",
        [
            pytest.param(edited(lambda p: p.__setitem__("arch", [1, 2])), "arch",
                         id="arch-mismatch"),
            pytest.param(header_edited(lambda h: h.__setitem__("initial_sha256", 1)),
                         "initial_sha256 must be a string", id="initial-sha256-not-string"),
            pytest.param(header_edited(lambda h: h.__setitem__("config_hash", 5)),
                         "config_hash must be a string", id="config-hash-not-string"),
            pytest.param(flip_last_data_byte, "CRC", id="flipped-data-byte"),
            pytest.param(flip_stored_row_bit, "CRC", id="flipped-row-bit"),
            pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-100]), "CRC",
                         id="torn-file"),
            pytest.param(with_data(lambda d: d[:-1]), "1 bytes shorter", id="truncated-data"),
            pytest.param(with_data(lambda d: d + bytes(8)), "8 bytes longer", id="trailing-bytes"),
            # Layer 0's first mask byte is 0b00111111: one more or one fewer kept
            # weight than the stored values.
            pytest.param(with_data(lambda d: bytes([0b01111111]) + d[1:]),
                         "8 bytes shorter than arch .* 34 kept", id="one-kept-value-short"),
            pytest.param(with_data(lambda d: bytes([0b00011111]) + d[1:]),
                         "8 bytes longer than arch .* 32 kept", id="one-kept-value-long"),
            pytest.param(drop_newline, "no header line", id="header-without-newline"),
        ],
    )
    def test_corrupt_contents_rejected(self, tmp_path, corrupt, fault):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        corrupt(path)
        with pytest.raises(DataFormatError, match=f"corrupt checkpoint .*{fault}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "contents", [b"\xff\xfe not utf-8", b"[1, 2]"], ids=["not-utf8", "not-an-object"]
    )
    def test_undecodable_file_rejected(self, tmp_path, contents):
        path = tmp_path / "ckpt.json"
        path.write_bytes(contents)
        with pytest.raises(DataFormatError, match="corrupt"):
            load_checkpoint(path)

    def test_integral_float_arch_loads_as_integers(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_state(), path)
        header, data = read_checkpoint(path)
        write_checkpoint(path, {**header, "arch": [4, 5.0, 3]}, data)
        arch = load_checkpoint(path).arch
        assert arch == (4, 5, 3) and all(type(s) is int for s in arch)

    def test_file_of_another_run_rejected(self, tmp_path):
        """`load_run_state` regenerates `initial` and takes `baseline` from round 0;
        it and a resume refuse a file, or the round 0 beside it, written under
        another config hash or from another iteration-0 network than the caller's."""
        cfg = cfg_iterative(arch=(4, 5, 3))
        other = cfg_iterative(arch=(4, 5, 3), per_round_fraction=0.25)
        path = tmp_path / "round_002.json"
        save_checkpoint(make_state(), path)
        first = make_state(round_index=0)
        first.trained = apply_mask(init_network((4, 5, 3), seed=4), first.mask)
        save_checkpoint(first, tmp_path / "round_000.json")
        state = load_run_state(path, cfg)
        assert state.round_index == 2
        assert networks_equal(state.initial, init_network((4, 5, 3), seed=1))
        assert networks_equal(state.baseline, first.trained)
        assert networks_equal(load_run_state(tmp_path / "round_000.json", cfg).baseline,
                              first.trained)
        with pytest.raises(DataFormatError, match=f"{path} belongs to another run"):
            load_run_state(path, other)
        with pytest.raises(DataFormatError, match="another run"):
            run_iterative(other, *TINY_DATA, resume_from=path)

        first.config_hash = config_hash(other)
        save_checkpoint(first, tmp_path / "round_000.json")
        with pytest.raises(DataFormatError, match="round_000.json .*belongs to another run"):
            load_run_state(path, cfg)
        assert load_run_state(tmp_path / "round_000.json", other).round_index == 0

        header_edited(lambda h: h.__setitem__("initial_sha256", "0" * 64))(path)
        with pytest.raises(DataFormatError, match="initial sha256 000000000000... vs "):
            load_run_state(path, cfg)


def test_regenerated_bits_are_pinned():
    """A resume regenerates the iteration-0 network, so a change to `rng` or
    `init_network` must fail here before it fails a resume."""
    assert rng.raw64(0, 2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert network_sha256(init_network((784, 300, 100, 10), 1)) == (
        "d18e5d95d9fdd900329755d80836efa4c9993c58f5b427e6e7888415918b6ece"
    )


def test_file_layout_is_pinned(tmp_path):
    """Every byte of a file follows from its state, so a change to the on-disk
    layout must fail here before it fails to read a file an earlier build wrote."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(make_state(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8feb61f73d64153ae802c141809dc27310e972e7ca7c3ede4c85e31687800bb4"
    )
    # Version 8 kept version 7's layout: with the old version number it is the v7 pin.
    as_v7(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "81c0b35669fafaf65e70ff36800f096d586816bfe81818dab6683f259147f923"
    )
    # A sparse layer 0 (5 of 20 kept) stores its kept weights in the same row-major order.
    state = make_state()
    state.mask.layers[0][:] = np.arange(20).reshape(5, 4) % 4 == 1
    state.trained = apply_mask(state.trained, state.mask)
    save_checkpoint(state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "923f9555ffae78440c651cdc7ee3a9eb4073c3c6bb5ef341617bc4f35c1945fa"
    )
    assert networks_equal(load_checkpoint(path).trained, state.trained)


def test_latest_round_path_orders_by_integer_index(tmp_path):
    assert latest_round_path(tmp_path) is None
    for name in ("round_x.json", "round_12a.json", "round_.json", "round_-5.json"):
        (tmp_path / name).write_text("{}")
    assert latest_round_path(tmp_path) is None
    for index in (2, 999, 1000, 30):
        (tmp_path / f"round_{index:03d}.json").write_text("{}")
    assert latest_round_path(tmp_path).name == "round_1000.json"
    assert latest_round_path(tmp_path, older_than=tmp_path / "round_1000.json").name == (
        "round_999.json"
    )
    assert latest_round_path(tmp_path, older_than=tmp_path / "round_002.json") is None


class TestConfigHash:
    def test_stable(self):
        assert config_hash(cfg_iterative()) == config_hash(cfg_iterative())

    def test_sensitive_to_fields(self):
        assert config_hash(cfg_iterative()) != config_hash(cfg_iterative(init_seed=99))


ONE_SHOT_TARGETS = (0.2, 0.5, 0.7, 0.9)


class TestResumeEquivalence:
    def test_resume_after_any_round_matches_uninterrupted(self, tmp_path):
        """Both modes; a one-shot resume must score as the uninterrupted sweep did:
        once, as round 1 (`score_random` seeds with strategy_seed + round), from
        the round-0 baseline."""
        train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
        test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
        one_shot = dict(mode="one_shot", one_shot_targets=ONE_SHOT_TARGETS)
        cases = [
            ("iterative", run_iterative, cfg_iterative(rounds=4)),
            ("one-shot-random", run_one_shot, cfg_iterative(strategy="random", **one_shot)),
            ("one-shot-fisher", run_one_shot,
             cfg_iterative(strategy="fisher", fisher=FisherConfig(30, 1), **one_shot)),
        ]
        for name, run, cfg in cases:
            directory = tmp_path / name
            full_record = run(cfg, train_data, test_data, checkpoint_dir=directory)
            passes = cfg.fisher.sample_count if cfg.fisher else 0
            assert [row.backward_passes for row in full_record.rows] == [0] + [passes] * 4, name
            assert latest_round_path(directory).name == "round_004.json", name
            # Every file, round 0 included, holds the mask bits (6 + 3 bytes) and
            # one network's kept weights and 8 + 3 biases.
            digest = network_sha256(init_network(cfg.arch, cfg.init_seed))
            for r in range(5):
                path = directory / f"round_{r:03d}.json"
                header, data = read_checkpoint(path)
                assert (header["format_version"], header["initial_sha256"]) == (8, digest)
                kept = load_checkpoint(path).mask.kept_count()
                assert len(data) == 6 + 3 + 8 * (kept + 8 + 3), (name, r)

            for resume_round in range(4):
                resumed = run(
                    cfg,
                    train_data,
                    test_data,
                    resume_from=directory / f"round_{resume_round:03d}.json",
                )
                assert strip_seconds(resumed.rows) == strip_seconds(full_record.rows), (
                    name, resume_round
                )

    def test_interrupted_save_keeps_previous_round_latest(self, tmp_path, monkeypatch):
        train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
        test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
        cfg = cfg_iterative(rounds=4)
        full_record = run_iterative(cfg, train_data, test_data)

        real_fsync, syncs, latest_at_crash = os.fsync, [], []

        def torn_fsync(fd):
            syncs.append(fd)
            if len(syncs) == 4:  # the save of round 3 tears half-way
                os.ftruncate(fd, os.fstat(fd).st_size // 2)
                latest_at_crash.append(latest_round_path(tmp_path).name)
                raise OSError("simulated crash mid-write")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", torn_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            run_iterative(cfg, train_data, test_data, checkpoint_dir=tmp_path)
        monkeypatch.undo()

        # What a killed process would leave, and what the failed save cleans up.
        assert latest_at_crash == ["round_002.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "round_000.json", "round_001.json", "round_002.json"
        ]
        latest = latest_round_path(tmp_path)
        assert latest.name == "round_002.json"
        resumed = run_iterative(cfg, train_data, test_data, resume_from=latest)
        assert strip_seconds(resumed.rows) == strip_seconds(full_record.rows)

    def test_checkpointed_run_hashes_initial_once(self, tmp_path, monkeypatch):
        """The header fields every round file shares are taken once per run: from
        `cfg` and `initial` on a fresh run, from the checked RunState on a resume."""
        train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
        test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
        cfg = cfg_iterative(rounds=3)
        hashed = []

        def counting_sha256(net):
            hashed.append(net)
            return network_sha256(net)

        monkeypatch.setattr(ckpt, "network_sha256", counting_sha256)
        run_iterative(cfg, train_data, test_data, checkpoint_dir=tmp_path)
        assert len(hashed) == 1
        header = read_checkpoint(tmp_path / "round_003.json")[0]

        (tmp_path / "round_003.json").unlink()
        hashed.clear()
        run_iterative(cfg, train_data, test_data, checkpoint_dir=tmp_path,
                      resume_from=tmp_path / "round_002.json")
        assert len(hashed) == 1  # load_run_state's check of the regenerated network
        resumed = read_checkpoint(tmp_path / "round_003.json")[0]
        for key in ("arch", "config_hash", "initial_sha256"):
            assert resumed[key] == header[key], key

    def test_save_round_into_empty_directory_writes_round_0(self, tmp_path):
        """A round file saved into a directory without round 0 first writes the
        `round_000.json` that an uninterrupted run writes, and resumes as one."""
        train_data = gen_synthetic(3, 6, 60, seed=5, noise=0.2)
        test_data = gen_synthetic(3, 6, 20, seed=77, noise=0.2)
        cfg = cfg_iterative(rounds=4)
        run = tmp_path / "run"
        full_record = run_iterative(cfg, train_data, test_data, checkpoint_dir=run)
        state = load_run_state(run / "round_002.json", cfg)

        crash = tmp_path / "crash"
        later = save_round(crash, cfg, 2, state.initial, state.baseline, state.mask,
                           state.trained, state.rows)
        assert sorted(p.name for p in crash.iterdir()) == ["round_000.json", "round_002.json"]
        for name in ("round_000.json", "round_002.json"):
            assert (crash / name).read_bytes() == (run / name).read_bytes(), name
        resumed = run_iterative(cfg, train_data, test_data, resume_from=later)
        assert strip_seconds(resumed.rows) == strip_seconds(full_record.rows)
