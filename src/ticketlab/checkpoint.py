"""Versioned experiment checkpoints.

A checkpoint is one JSON document (`round_NNN.json`) recording the format
version, the architecture, the round index, a hash of the experiment
config, the current mask and trained network, the rows recorded so far,
and the two networks that never change after round 0: the iteration-0
network (`initial`, for rewinding) and the round-0 trained baseline
(`baseline`, for weight movement). `save_round` writes those two only
once per checkpoint directory: in `round_000.json`, and in any later
round file whose directory has no round 0 (so a lone file stays
self-contained). Other round files store them as JSON `null`, and
`load_run_state` takes them from `round_000.json` beside the file, which
must carry the same config hash and arch. `load_checkpoint` reads one
file as it is.

Every array is stored as `{"shape": [...], "data": "<base64 of the raw
bytes>"}`: weights and biases as little-endian float64 (`<f8`), mask
layers as uint8 0/1. Raw bytes in a fixed byte order make the round trip
bit-exact on any host (-0.0 and subnormals included), which is what makes
resuming bit-identical to an uninterrupted run, at a fraction of the size
and time of decimal text. The container stays JSON, and the name stays
`.json`, because resume discovery finds checkpoints by that name.

Files are written to a temporary name beside the target and renamed into
place, so a crash mid-write leaves the previous round's file the latest.
This build writes format version 3 and reads versions 2 and 3 (a version
2 file is a self-contained version 3 file); it rejects other versions
outright and any array whose encoding, shape or pairing is inconsistent,
and warns when the stored config hash does not match the caller's.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, ShapeError, UsageError
from .masks import PruneMask
from .nn import DenseNetwork, check_int, check_layer_sizes
from .results import RoundRow

CHECKPOINT_VERSION = 3
# Version 3 only adds `null` initial/baseline networks, so version 2 files read as they are.
_READABLE_VERSIONS = (2, 3)
_FLOAT = np.dtype("<f8")
_MASK = np.dtype("u1")


@dataclass(eq=False)
class CheckpointState:
    arch: tuple[int, ...]
    round_index: int
    config_hash: str
    initial: Optional[DenseNetwork]
    baseline: Optional[DenseNetwork]
    mask: PruneMask
    trained: DenseNetwork
    rows: list


def config_hash(cfg) -> str:
    """Stable hash of a config: sha256 over its canonical JSON form."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_array(a: np.ndarray, dtype: np.dtype) -> dict:
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, dtype: np.dtype) -> np.ndarray:
    """Inverse of `_encode_array`: a fresh, writable, native-order array.

    Raises ValueError or TypeError (mapped to DataFormatError by the loader)
    on a bad shape, invalid base64, or a byte count that does not match.
    """
    shape = obj["shape"]
    if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
        raise ValueError(f"array shape must be a list of integers >= 0, got {shape!r}")
    raw = base64.b64decode(obj["data"], validate=True)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{len(raw)} data bytes do not fit shape {shape} of {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _net_to_json(net: Optional[DenseNetwork]):
    if net is None:
        return None
    return {
        "weights": [_encode_array(w, _FLOAT) for w in net.weights],
        "biases": [_encode_array(b, _FLOAT) for b in net.biases],
    }


def _net_from_json(obj) -> Optional[DenseNetwork]:
    if obj is None:
        return None
    return DenseNetwork(
        [_decode_array(w, _FLOAT) for w in obj["weights"]],
        [_decode_array(b, _FLOAT) for b in obj["biases"]],
    )


def save_checkpoint(state: CheckpointState, path) -> None:
    """Write a checkpoint file atomically: a synced temporary file, then a rename.

    The temporary name (`.<name>.tmp`) never matches `round_*.json`, and it
    is removed if the write fails, so an interrupted save leaves no file
    that resume discovery could pick up.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "arch": list(state.arch),
        "round_index": state.round_index,
        "config_hash": state.config_hash,
        "initial": _net_to_json(state.initial),
        "baseline": _net_to_json(state.baseline),
        "mask": [_encode_array(m, _MASK) for m in state.mask.layers],
        "trained": _net_to_json(state.trained),
        "rows": [asdict(r) for r in state.rows],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(payload))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, expected_config_hash: Optional[str] = None) -> CheckpointState:
    """Read a checkpoint, rejecting corrupt files and other format versions.

    A badly encoded array, a mask that does not pair with the stored
    networks, or an `arch` that differs from their layer sizes marks the
    file corrupt.

    A config-hash mismatch is reported as a warning, not an error: the
    caller may be resuming deliberately under an edited config.
    """
    try:
        payload = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"corrupt checkpoint {path}: not a JSON object")

    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise DataFormatError(
            f"checkpoint {path} has format version {version!r}, "
            f"this build reads versions {' and '.join(map(str, _READABLE_VERSIONS))}"
        )
    try:
        state = CheckpointState(
            arch=check_layer_sizes(payload["arch"]),
            round_index=check_int(payload["round_index"], "round_index", 0),
            config_hash=payload["config_hash"],
            initial=_net_from_json(payload["initial"]),
            baseline=_net_from_json(payload["baseline"]),
            mask=PruneMask([_decode_array(m, _MASK) for m in payload["mask"]]),
            trained=_net_from_json(payload["trained"]),
            rows=[RoundRow(**r) for r in payload["rows"]],
        )
        for net in (state.initial, state.baseline, state.trained):
            if net is not None:
                state.mask.check_pairing(net.weights)
                if net.layer_sizes != state.arch:
                    raise ShapeError(
                        f"arch {state.arch} but a stored network has layer sizes "
                        f"{net.layer_sizes}"
                    )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc

    if expected_config_hash is not None and state.config_hash != expected_config_hash:
        warnings.warn(
            f"checkpoint {path} was written under a different config "
            f"({state.config_hash[:12]}... vs {expected_config_hash[:12]}...)",
            stacklevel=2,
        )
    return state


def load_run_state(path, expected_config_hash: Optional[str] = None) -> CheckpointState:
    """`load_checkpoint`, with `initial` and `baseline` taken from round 0 when absent.

    A round file that stores them as null gets both from `round_000.json`
    in its directory. That file must load, hold both networks, and carry
    the same config hash and arch; otherwise this raises DataFormatError.
    """
    state = load_checkpoint(path, expected_config_hash)
    if state.initial is not None and state.baseline is not None:
        return state
    first_path = round_path(Path(path).parent, 0)
    first = load_checkpoint(first_path)
    if first.config_hash != state.config_hash or first.arch != state.arch:
        raise DataFormatError(
            f"{first_path} belongs to another run than {path}: config hash "
            f"{first.config_hash[:12]}... vs {state.config_hash[:12]}..., "
            f"arch {first.arch} vs {state.arch}"
        )
    if first.initial is None or first.baseline is None:
        raise DataFormatError(
            f"neither {path} nor {first_path} holds the iteration-0 network and the "
            "round-0 baseline"
        )
    state.initial, state.baseline = first.initial, first.baseline
    return state


def round_path(directory, round_index: int) -> Path:
    return Path(directory) / f"round_{round_index:03d}.json"


def latest_round_path(directory) -> Optional[Path]:
    """Highest-round checkpoint file in a directory, or None.

    Rounds compare as integers, so `round_1000.json` comes after
    `round_999.json`; names whose index part is not an integer are ignored.
    """
    indexed = [
        (int(p.stem[len("round_"):]), p)
        for p in Path(directory).glob("round_*.json")
        if p.stem[len("round_"):].isdecimal()
    ]
    return max(indexed)[1] if indexed else None


def save_round(directory, cfg, round_index, initial, baseline, mask, trained, rows) -> Path:
    """Write the checkpoint of one round of the experiment loop.

    `initial` and `baseline` are written as null when the directory already
    holds `round_000.json`, which carries them (see `load_run_state`).
    """
    Path(directory).mkdir(parents=True, exist_ok=True)
    path = round_path(directory, round_index)
    if round_index > 0 and round_path(directory, 0).exists():
        initial = baseline = None
    save_checkpoint(
        CheckpointState(
            arch=cfg.arch,
            round_index=round_index,
            config_hash=config_hash(cfg),
            initial=initial,
            baseline=baseline,
            mask=mask,
            trained=trained,
            rows=list(rows),
        ),
        path,
    )
    return path
