import struct

import numpy as np
import pytest

from ticketlab import (
    DataFormatError,
    Dataset,
    TrainConfig,
    UsageError,
    evaluate,
    full_mask,
    gen_synthetic,
    init_network,
    load_idx,
    train,
    write_idx,
)
from ticketlab import rng

from test_rng import sha256_le


@pytest.fixture
def idx_pair(tmp_path):
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    pixels = np.arange(6 * 6, dtype=np.float64).reshape(6, 6) % 256
    ds = Dataset(pixels / 255.0, labels)
    images, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(ds, images, lab, rows=2, cols=3)
    return ds, images, lab


class TestLoadIdx:
    def test_round_trip_exact(self, idx_pair):
        ds, images, labels = idx_pair
        back = load_idx(images, labels)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)

    def test_scaling_bits_equal_out_of_place_division(self, tmp_path):
        """The in-place /= 255.0 gives the bits of `pixels.astype(float) / 255.0`."""
        pixels = np.arange(3 * 256) % 256
        ds = Dataset(pixels.reshape(3, 256) / 255.0, [0, 1, 2])
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ds, images, labels, rows=16, cols=16)
        back = load_idx(images, labels)
        expected = pixels.reshape(3, 256).astype(np.uint8).astype(np.float64) / 255.0
        assert back.inputs.tobytes() == expected.tobytes()

    def test_pixel_255_maps_to_one(self, tmp_path):
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        with open(images, "wb") as f:
            f.write(struct.pack(">iiii", 0x803, 1, 1, 1))
            f.write(bytes([255]))
        with open(labels, "wb") as f:
            f.write(struct.pack(">ii", 0x801, 1))
            f.write(bytes([7]))
        ds = load_idx(images, labels)
        assert ds.inputs[0, 0] == 1.0
        assert ds.labels[0] == 7

    def test_labels_file_fed_as_images(self, idx_pair):
        _, images, labels = idx_pair
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(labels, labels)

    def test_truncated_pixels(self, tmp_path, idx_pair):
        _, images, labels = idx_pair
        data = images.read_bytes()
        clipped = tmp_path / "short.idx"
        clipped.write_bytes(data[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(clipped, labels)

    def test_count_mismatch(self, tmp_path, idx_pair):
        _, images, _ = idx_pair
        labels = tmp_path / "l2.idx"
        with open(labels, "wb") as f:
            f.write(struct.pack(">ii", 0x801, 2))
            f.write(bytes([0, 1]))
        with pytest.raises(DataFormatError, match="labels"):
            load_idx(images, labels)

    def test_flattening_is_row_major(self, tmp_path):
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        with open(images, "wb") as f:
            f.write(struct.pack(">iiii", 0x803, 1, 2, 2))
            f.write(bytes([10, 20, 30, 40]))
        with open(labels, "wb") as f:
            f.write(struct.pack(">ii", 0x801, 1))
            f.write(bytes([0]))
        ds = load_idx(images, labels)
        np.testing.assert_allclose(ds.inputs[0] * 255.0, [10, 20, 30, 40])


class TestGenSynthetic:
    def test_balanced_and_sized(self):
        ds = gen_synthetic(2, 2, 50, seed=1)
        assert len(ds) == 100
        assert np.array_equal(np.bincount(ds.labels), [50, 50])

    def test_deterministic(self):
        a = gen_synthetic(3, 4, 10, seed=9)
        b = gen_synthetic(3, 4, 10, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_prefix_stays_balanced(self):
        """Labels interleave, so Fisher-style prefixes are class-balanced."""
        ds = gen_synthetic(5, 3, 20, seed=2)
        assert np.array_equal(np.bincount(ds.labels[:10]), np.full(5, 2))

    def test_one_class_rejected(self):
        with pytest.raises(UsageError):
            gen_synthetic(1, 2, 10, seed=0)

    def test_separated_blobs_are_learnable(self):
        """A [dim, 16, classes] net reaches at least 0.95 train accuracy in 20 epochs."""
        ds = gen_synthetic(3, 5, 80, seed=4, noise=0.1)
        net = init_network([5, 16, 3], seed=0)
        mask = full_mask([5, 16, 3])
        trained, _ = train(net, mask, ds, TrainConfig(epochs=20, seed=1))
        assert evaluate(trained, mask, ds) >= 0.95

    def test_acceptance_corpus_golden_digests(self):
        """The acceptance tests' train and test sets keep their exact bits."""
        train_set = gen_synthetic(10, 784, 1000, seed=101, noise=0.3)
        test_set = gen_synthetic(10, 784, 200, seed=rng.derive(101, 5), noise=0.3)
        digests = [sha256_le(a) for ds in (train_set, test_set) for a in (ds.inputs, ds.labels)]
        assert digests == [
            "66da31f6380a05dd6235c79b2d03db705acfa54d8134fff90d783b8d8458bab2",
            "f4b723a53c892154ccfe38d838fb0fbc8d2b1a67b5aec4d24175524651c4eeb8",
            "a033c2e7937297ee751b243c5845c240f5259d242c0c4baf8e702eebce9aa4a0",
            "c24692bd6ac163e5f035af5e97377ad65e46f5718ee25149c44641edc94957de",
        ]


class TestWriteIdx:
    def test_shape_mismatch_rejected(self):
        ds = gen_synthetic(2, 6, 5, seed=0)
        with pytest.raises(UsageError):
            write_idx(ds, "x", "y", rows=2, cols=2)


def _mnist_train_pair():
    import os
    from pathlib import Path

    for base in (os.environ.get("TICKETLAB_MNIST_DIR"),
                 Path(__file__).resolve().parent.parent / "data" / "mnist"):
        if base is None:
            continue
        base = Path(base)
        images = base / "train-images-idx3-ubyte"
        labels = base / "train-labels-idx1-ubyte"
        if images.exists() and labels.exists():
            return images, labels
    return None


@pytest.mark.skipif(_mnist_train_pair() is None, reason="MNIST IDX files not available")
def test_mnist_published_dimensions():
    images, labels = _mnist_train_pair()
    ds = load_idx(images, labels)
    assert len(ds) == 60_000
    assert ds.dim == 784
    assert ds.labels.min() == 0 and ds.labels.max() == 9
