import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from ticketlab import full_mask, gen_synthetic, init_network
from ticketlab.checkpoint import _FLOAT, _weight_shapes


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
    """(header, data) of a checkpoint file: its first line parsed as JSON, and the
    bytes between that line and the 4-byte CRC trailer."""
    header, _, rest = Path(path).read_bytes().partition(b"\n")
    return json.loads(header), rest[:-4]


def write_checkpoint(path, header, data):
    """Write `header` as the first line and `data` after it, then the CRC32 trailer of both."""
    body = json.dumps(header).encode("utf-8") + b"\n" + data
    Path(path).write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


def flip_last_data_byte(path):
    """Flip one bit of a checkpoint's last data byte, which only the file's CRC can catch."""
    raw = bytearray(Path(path).read_bytes())
    raw[-5] ^= 0x80
    Path(path).write_bytes(bytes(raw))


def flip_stored_row_bit(path):
    """Flip the low bit of a digit in the first stored `test_accuracy`, leaving the CRC as it is.

    The header stays valid JSON with another accuracy (0.525 becomes 0.425,
    say), so only a CRC that covers the header can catch it.
    """
    raw = Path(path).read_bytes()
    digit = re.search(rb'"test_accuracy": \d\.', raw).end()
    Path(path).write_bytes(raw[:digit] + bytes([raw[digit] ^ 0x01]) + raw[digit + 1:])


def decode_checkpoint(path):
    """The header of checkpoint `path` with its stored arrays in place.

    `mask` becomes a list of bool layers unpacked from their bits, and
    `trained` {"weights", "biases"} of little-endian float64 arrays, each
    weight layer `+0.0` wherever its mask prunes and the stored kept
    values, in mask order, elsewhere. The shapes come from `arch`, and the
    arrays must fill the data section exactly.
    """
    header, data = read_checkpoint(path)
    shapes = _weight_shapes(header["arch"])
    offset = 0

    def take(count, dtype):
        nonlocal offset
        a = np.frombuffer(data, dtype, count, offset)
        offset += a.nbytes
        return a.copy()

    header["mask"] = [
        np.unpackbits(take(-(-o * i // 8), np.uint8), count=o * i).view(bool).reshape(o, i)
        for o, i in shapes
    ]
    weights = [np.zeros((o, i), _FLOAT) for o, i in shapes]
    for w, m in zip(weights, header["mask"]):
        w[m] = take(int(m.sum()), _FLOAT)
    header["trained"] = {"weights": weights, "biases": [take(o, _FLOAT) for o, _ in shapes]}
    assert offset == len(data), f"{len(data) - offset} data bytes left over"
    return header


def encode_checkpoint(path, payload):
    """Inverse of `decode_checkpoint`, with the CRC recomputed; the arrays are
    written as they are, whatever `arch` says, and each weight layer only at
    the positions its mask layer keeps."""
    header = {key: value for key, value in payload.items() if key not in ("trained", "mask")}
    trained = payload["trained"]
    chunks = [np.packbits(m).tobytes() for m in payload["mask"]]
    chunks += [np.ascontiguousarray(w, _FLOAT)[m].tobytes()
               for w, m in zip(trained["weights"], payload["mask"])]
    chunks += [np.ascontiguousarray(b, _FLOAT).tobytes() for b in trained["biases"]]
    write_checkpoint(path, header, b"".join(chunks))


def edit_checkpoint(path, edit):
    """Rewrite checkpoint `path` after `edit(payload)` has changed its decoded payload.

    The CRC is recomputed, so the edit alone decides what is wrong with the file.
    """
    payload = decode_checkpoint(path)
    edit(payload)
    encode_checkpoint(path, payload)


def edit_header(path, edit):
    """Rewrite checkpoint `path` after `edit(header)`, keeping its data and recomputing the CRC."""
    header, data = read_checkpoint(path)
    edit(header)
    write_checkpoint(path, header, data)


def _map_arrays(payload, fn):
    """Replace each array `a` of a decoded payload by `fn(a)`."""
    for part in ("weights", "biases"):
        payload["trained"][part] = [fn(a) for a in payload["trained"][part]]
    payload["mask"] = [fn(m) for m in payload["mask"]]


def as_old_version(path, version, encode_array):
    """Rewrite checkpoint `path` as one JSON document of an earlier format `version`,
    each array replaced by `encode_array(a)` and the mask layers as uint8 0/1,
    storing neither `initial` nor `baseline` (as a later round's file did)."""
    payload = decode_checkpoint(path)
    payload["mask"] = [m.astype(np.uint8) for m in payload["mask"]]
    _map_arrays(payload, encode_array)
    del payload["initial_sha256"]
    payload.update(format_version=version, initial=None, baseline=None)
    Path(path).write_text(json.dumps(payload))


def as_v1(path):
    """Rewrite checkpoint `path` in format v1: one JSON document of decimal lists."""
    as_old_version(path, 1, lambda a: a.tolist())


def as_v4(path):
    """Rewrite checkpoint `path` in format v4: a header line giving every array's shape
    and the CRC of the data, then the arrays in the order initial, baseline, mask
    (uint8 0/1), trained; this one stores neither `initial` nor `baseline`."""
    payload = decode_checkpoint(path)
    data = []

    def shapes(arrays, dtype):
        data.extend(np.ascontiguousarray(a, dtype).tobytes() for a in arrays)
        return [list(a.shape) for a in arrays]

    del payload["initial_sha256"]
    header = {
        **payload,
        "format_version": 4,
        "initial": None,
        "baseline": None,
        "mask": shapes(payload["mask"], "u1"),
        "trained": {"weights": shapes(payload["trained"]["weights"], "<f8"),
                    "biases": shapes(payload["trained"]["biases"], "<f8")},
    }
    header["crc32"] = zlib.crc32(b"".join(data))
    Path(path).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + b"".join(data))


def as_v7(path):
    """Rewrite checkpoint `path` in format v7, the v8 layout written by training that
    ran every layer on its whole matrix: only the version differs."""
    edit_header(path, lambda h: h.__setitem__("format_version", 7))


def as_v6(path):
    """Rewrite checkpoint `path` in format v6: the same header, then every weight
    (pruned ones as +0.0) and bias as `<f8`, then the mask bits."""
    payload = decode_checkpoint(path)
    trained = payload.pop("trained")
    chunks = [np.ascontiguousarray(a, _FLOAT).tobytes()
              for a in trained["weights"] + trained["biases"]]
    chunks += [np.packbits(m).tobytes() for m in payload.pop("mask")]
    write_checkpoint(path, {**payload, "format_version": 6}, b"".join(chunks))


def as_v5(path):
    """Rewrite checkpoint `path` in format v5, which had the v6 layout except that
    the header's booleans `initial` and `baseline` said whether those networks
    were stored before `trained`; this one stores neither, as a later round's file did."""
    as_v6(path)
    header, data = read_checkpoint(path)
    del header["initial_sha256"]
    write_checkpoint(path, {**header, "format_version": 5, "initial": False, "baseline": False},
                     data)
