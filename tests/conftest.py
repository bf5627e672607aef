import json
from pathlib import Path

import numpy as np
import pytest

from ticketlab import full_mask, gen_synthetic, init_network
from ticketlab.checkpoint import _FLOAT, _MASK, _decode_array, _encode_array


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


def edit_checkpoint(path, edit):
    """Rewrite checkpoint `path` after `edit(payload)` has changed its decoded payload.

    `edit` sees weights and biases as float64 arrays and mask layers as uint8
    arrays. Arrays it leaves are re-encoded; anything else it puts in their
    place (a raw encoded dict, a list) is written as it is.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    _map_arrays(payload, _decode_array)
    edit(payload)
    _map_arrays(payload, _reencode)
    path.write_text(json.dumps(payload))


def _reencode(a, dtype):
    return _encode_array(a, dtype) if isinstance(a, np.ndarray) else a


def _map_arrays(payload, fn):
    for key in ("initial", "baseline", "trained"):
        if isinstance(payload.get(key), dict):
            for part in ("weights", "biases"):
                payload[key][part] = [fn(a, _FLOAT) for a in payload[key][part]]
    if "mask" in payload:
        payload["mask"] = [fn(m, _MASK) for m in payload["mask"]]


def as_v1(payload):
    """Turn a decoded payload into format v1: decimal JSON lists, mask entries 0/1."""
    payload["format_version"] = 1
    _map_arrays(payload, lambda a, dtype: a.tolist())
