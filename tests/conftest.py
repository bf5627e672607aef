import json
import math
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ticketlab import full_mask, gen_synthetic, init_network
from ticketlab.checkpoint import _FLOAT, _MASK


@pytest.fixture
def tiny_arch():
    return (3, 4, 2)


@pytest.fixture
def tiny_net(tiny_arch):
    return init_network(tiny_arch, seed=11)


@pytest.fixture
def tiny_mask(tiny_arch):
    return full_mask(tiny_arch)


@pytest.fixture
def blob_data():
    return gen_synthetic(3, 6, 60, seed=5, noise=0.15)


def networks_equal(a, b):
    """Bitwise equality of two DenseNetworks."""
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


def masks_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))


def read_checkpoint(path):
    """(header, data) of a checkpoint file: its first line parsed as JSON, and the bytes after it."""
    header, _, data = Path(path).read_bytes().partition(b"\n")
    return json.loads(header), data


def write_checkpoint(path, header, data):
    """Write `header` as the first line and `data` after it, with the header's crc32 recomputed."""
    header = {**header, "crc32": zlib.crc32(data)}
    Path(path).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + data)


class RawArray(NamedTuple):
    """A stored array given as its header shape and its data bytes, consistent or not."""

    shape: object
    data: bytes


def flip_last_data_byte(path):
    """Flip one bit of a checkpoint's last byte, which only the data section's CRC can catch."""
    raw = bytearray(Path(path).read_bytes())
    raw[-1] ^= 0x01
    Path(path).write_bytes(bytes(raw))


def decode_checkpoint(path):
    """The header of checkpoint `path` with each shape list replaced by its stored array.

    Weights and biases come back as little-endian float64, mask layers as
    uint8, read in header order from the data section, which they must fill
    exactly.
    """
    header, data = read_checkpoint(path)
    offset = 0

    def decode(shape, dtype):
        nonlocal offset
        a = np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape)
        offset += a.nbytes
        return a.copy()

    _map_arrays(header, decode)
    assert offset == len(data), f"{len(data) - offset} data bytes left over"
    return header


def encode_checkpoint(path, payload):
    """Inverse of `decode_checkpoint`, with the CRC recomputed.

    Arrays are written in place; a `RawArray` writes its shape and bytes as
    they are; anything else in an array's place (a list) goes into the header
    as it is.
    """
    chunks = []

    def encode(a, dtype):
        if isinstance(a, np.ndarray):
            a = RawArray(list(a.shape), np.ascontiguousarray(a, dtype).tobytes())
        if isinstance(a, RawArray):
            chunks.append(a.data)
            return a.shape
        return a

    _map_arrays(payload, encode)
    write_checkpoint(path, payload, b"".join(chunks))


def edit_checkpoint(path, edit):
    """Rewrite checkpoint `path` after `edit(payload)` has changed its decoded payload.

    The CRC is recomputed, so the edit alone decides what is wrong with the file.
    """
    payload = decode_checkpoint(path)
    edit(payload)
    encode_checkpoint(path, payload)


def _map_arrays(payload, fn):
    """Replace each stored array `a` by `fn(a, dtype)`, in the order of the data section."""
    for key in ("initial", "baseline", "mask", "trained"):
        value = payload.get(key)
        if isinstance(value, list):  # the mask layers
            payload[key] = [fn(m, _MASK) for m in value]
        elif isinstance(value, dict):  # a network
            for part in ("weights", "biases"):
                value[part] = [fn(a, _FLOAT) for a in value[part]]


def as_v1(payload):
    """Turn a decoded payload into format v1: decimal JSON lists, mask entries 0/1."""
    payload["format_version"] = 1
    _map_arrays(payload, lambda a, dtype: a.tolist())
