"""Dataset ingestion: IDX binary files and a synthetic blob generator.

The IDX layout is the one MNIST ships in: big-endian int32 header words,
magic 0x00000803 for images (followed by count, rows, cols and the pixel
bytes) and 0x00000801 for labels (followed by count and the label bytes).
Pixels are scaled to [0, 1] by /255 and images flattened row-major.

The synthetic generator exists so that property tests and demos run in
well under a second: seeded Gaussian blobs with one unit-separated center
per class. It draws the noise with `rng.normals` and shifts it onto the
centers in blocks of rows; like the rng blocks, these may run on several
threads (`rng._blockwise`), and the bits do not depend on the split.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError, UsageError
from . import rng
from .nn import Dataset, check_int, is_number

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# Stream tag for blob noise (see rng.derive).
_BLOB_STREAM = 4


def _read_exact(f, n: int, path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated while reading {what} ({len(data)}/{n} bytes)")
    return data


def _read_header(f, path, expected_magic: int, dims: int, what: str) -> tuple[int, ...]:
    magic = struct.unpack(">i", _read_exact(f, 4, path, "magic"))[0]
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad {what} magic 0x{magic & 0xFFFFFFFF:08x}, expected 0x{expected_magic:08x}"
        )
    header = struct.unpack(f">{dims}i", _read_exact(f, 4 * dims, path, "header"))
    if any(v < 0 for v in header):
        raise DataFormatError(f"{path}: negative dimension in header {header}")
    return header


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flat float dataset.

    Raises DataFormatError on a wrong magic number (reporting the
    offending bytes), truncation, or an image/label count mismatch, and
    the OSError of a file that cannot be read.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        count, n_rows, n_cols = _read_header(f, images_path, IMAGES_MAGIC, 3, "image")
        pixels = np.frombuffer(
            _read_exact(f, count * n_rows * n_cols, images_path, "pixel data"), dtype=np.uint8
        )
    with open(labels_path, "rb") as f:
        (label_count,) = _read_header(f, labels_path, LABELS_MAGIC, 1, "label")
        labels = np.frombuffer(
            _read_exact(f, label_count, labels_path, "label data"), dtype=np.uint8
        )
    if count != label_count:
        raise DataFormatError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    inputs = pixels.reshape(count, n_rows * n_cols).astype(np.float64)
    inputs /= 255.0
    return Dataset(inputs, labels.astype(np.int64))


def write_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int) -> None:
    """Write a dataset as an IDX pair (inverse of load_idx, for round trips).

    Inputs must be /255-scaled values that map back onto whole bytes.
    """
    if rows * cols != dataset.dim:
        raise UsageError(f"rows*cols = {rows * cols} does not match input dim {dataset.dim}")
    pixels = np.rint(dataset.inputs * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise UsageError("inputs do not scale back to byte pixels")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGES_MAGIC, len(dataset), rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", LABELS_MAGIC, len(dataset)))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def _blob_center(label: int, dim: int) -> np.ndarray:
    """Deterministic class center: axis label%dim at coordinate 1 + label//dim.

    Any two centers are at least unit distance apart (same axis: the
    coordinates differ by >= 1; different axes: distance >= sqrt(2)).
    """
    center = np.zeros(dim)
    center[label % dim] = 1.0 + label // dim
    return center


def gen_synthetic(
    classes: int, dim: int, per_class: int, seed: int, noise: float = 0.1
) -> Dataset:
    """Seeded Gaussian blobs, `per_class` points per class, labels interleaved.

    Row i carries label i % classes, so any prefix of the dataset stays
    (nearly) class-balanced. Identical seeds give identical datasets.
    Raises UsageError unless `noise` is a finite real number >= 0.
    """
    classes = check_int(classes, "classes", 2)
    dim = check_int(dim, "dim", 1)
    per_class = check_int(per_class, "per_class", 1)
    seed = check_int(seed, "seed")
    if not (is_number(noise) and 0 <= noise < math.inf):
        raise UsageError(f"noise must be a finite number >= 0, got {noise!r}")
    n = classes * per_class
    labels = np.arange(n, dtype=np.int64) % classes
    centers = np.stack([_blob_center(c, dim) for c in range(classes)])
    # center + noise * offset, computed in place over the offsets by blocks
    # of rows, so that no temporary is the size of the dataset. Row i's
    # center is centers[i % classes], so a block that starts at row s reads
    # its centers from `cycle`, starting at row s % classes.
    inputs = rng.normals(rng.derive(seed, _BLOB_STREAM), n * dim).reshape(n, dim)
    rows = max(1, rng._BLOCK // dim)
    cycle = centers[np.arange(min(rows, n) + classes - 1) % classes]

    def shift(start: int, stop: int) -> None:
        for s in range(start, stop, rows):
            block = inputs[s : min(s + rows, stop)]
            block *= noise
            block += cycle[s % classes : s % classes + block.shape[0]]

    rng._blockwise(n, rows, shift)
    return Dataset(inputs, labels)
