"""Versioned experiment checkpoints.

A checkpoint file (`round_NNN.json`) records the format version, the
architecture, the round index, a hash of the experiment config, the
current mask and trained network, the rows recorded so far, and the two
networks that never change after round 0: the iteration-0 network
(`initial`, for rewinding) and the round-0 trained baseline (`baseline`,
for weight movement). `save_round` writes those two only once per
checkpoint directory: in `round_000.json`, and in any later round file
whose directory has no round 0 (so a lone file stays self-contained).
Other round files store them as `null`, and `load_run_state` takes them
from `round_000.json` beside the file, which must carry the same config
hash and arch. `load_checkpoint` reads one file as it is.

Format version 4 is one line of UTF-8 JSON, then the raw bytes of every
array back to back. The header line holds the fields above, with each
array given only by its shape list, and `crc32`, the `zlib.crc32` of the
data section. The data section follows the header's order: `initial`
weights then biases, `baseline` likewise, the mask layers, then
`trained`. Weights and biases are little-endian float64 (`<f8`), mask
layers uint8 0/1. Raw bytes in a fixed byte order make the round trip
bit-exact on any host (-0.0 and subnormals included), which is what
makes resuming bit-identical to an uninterrupted run; the file stays
within a few hundred bytes of the arrays' own size. The name keeps its
`.json` suffix, because resume discovery finds checkpoints by that name.

Files are written to a temporary name beside the target and renamed into
place, so a crash mid-write leaves the previous round's file the latest.
This build reads and writes format version 4 only. It rejects other
versions outright, a file without a header line, a data section whose
CRC or length does not match the header, and any array whose shape or
pairing is inconsistent; it warns when the stored config hash does not
match the caller's.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, ShapeError, UsageError
from .masks import PruneMask
from .nn import DenseNetwork, check_int, check_layer_sizes
from .results import RoundRow, write_atomically

CHECKPOINT_VERSION = 4
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


def save_checkpoint(state: CheckpointState, path) -> None:
    """Write a checkpoint file atomically: a synced temporary file, then a rename.

    `write_atomically` removes the temporary file (`.<name>.tmp`, never a
    `round_*.json` name) if the write fails, so an interrupted save leaves
    no file that resume discovery could pick up.
    """
    data: list[np.ndarray] = []  # filled while the header below is built, so in its order

    def shapes(arrays, dtype):
        arrays = [np.ascontiguousarray(a, dtype) for a in arrays]
        data.extend(arrays)
        return [list(a.shape) for a in arrays]

    def net(n: Optional[DenseNetwork]):
        if n is None:
            return None
        return {"weights": shapes(n.weights, _FLOAT), "biases": shapes(n.biases, _FLOAT)}

    header = {
        "format_version": CHECKPOINT_VERSION,
        "arch": list(state.arch),
        "round_index": state.round_index,
        "config_hash": state.config_hash,
        "initial": net(state.initial),
        "baseline": net(state.baseline),
        "mask": shapes(state.mask.layers, _MASK),
        "trained": net(state.trained),
        "rows": [asdict(r) for r in state.rows],
    }
    crc = 0
    for a in data:
        crc = zlib.crc32(a, crc)
    header["crc32"] = crc
    write_atomically(path, [json.dumps(header).encode("utf-8") + b"\n", *data])


def load_checkpoint(path, expected_config_hash: Optional[str] = None) -> CheckpointState:
    """Read a checkpoint, rejecting corrupt files and other format versions.

    A file without a header line, a data section whose CRC or length does
    not match the header, a bad shape, a mask that does not pair with the
    stored networks, or an `arch` that differs from their layer sizes marks
    the file corrupt.

    A config-hash mismatch is reported as a warning, not an error: the
    caller may be resuming deliberately under an edited config.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    # Earlier versions are one JSON document without a newline; parsing it
    # whole lets them fail on their version rather than on the layout.
    end = raw.find(b"\n")
    try:
        header = json.loads((raw if end < 0 else raw[:end]).decode("utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"corrupt checkpoint {path}: header is not a JSON object")

    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"checkpoint {path} has format version {version!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if end < 0:
        raise DataFormatError(f"corrupt checkpoint {path}: no header line")
    data = memoryview(raw)[end + 1:]
    if zlib.crc32(data) != header.get("crc32"):
        raise DataFormatError(f"corrupt checkpoint {path}: data section fails its CRC check")

    offset = 0

    def arrays(shapes, dtype):
        """Fresh, writable, native-order arrays cut in order from the data section."""
        nonlocal offset
        out = []
        for shape in shapes:
            if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
                raise ValueError(f"array shape must be a list of integers >= 0, got {shape!r}")
            count = math.prod(shape)
            if offset + count * dtype.itemsize > len(data):
                raise ValueError("data section is shorter than the shapes declare")
            a = np.frombuffer(data, dtype, count, offset)
            out.append(a.reshape(shape).astype(dtype.newbyteorder("=")))
            offset += count * dtype.itemsize
        return out

    def net(obj) -> Optional[DenseNetwork]:
        if obj is None:
            return None
        return DenseNetwork(arrays(obj["weights"], _FLOAT), arrays(obj["biases"], _FLOAT))

    try:
        state = CheckpointState(
            arch=check_layer_sizes(header["arch"]),
            round_index=check_int(header["round_index"], "round_index", 0),
            config_hash=header["config_hash"],
            initial=net(header["initial"]),
            baseline=net(header["baseline"]),
            mask=PruneMask(arrays(header["mask"], _MASK)),
            trained=net(header["trained"]),
            rows=[RoundRow(**r) for r in header["rows"]],
        )
        if offset != len(data):
            raise ValueError(
                f"data section is {len(data) - offset} bytes longer than the shapes declare"
            )
        for n in (state.initial, state.baseline, state.trained):
            if n is not None:
                state.mask.check_pairing(n.weights)
                if n.layer_sizes != state.arch:
                    raise ShapeError(
                        f"arch {state.arch} but a stored network has layer sizes "
                        f"{n.layer_sizes}"
                    )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc

    _warn_if_other_config(state, path, expected_config_hash)
    return state


def _warn_if_other_config(state: CheckpointState, path, expected: Optional[str]) -> None:
    """Warn when `state` was written under another config hash than `expected`.

    Called straight from the public loaders, so `stacklevel=3` names their caller.
    """
    if expected is not None and state.config_hash != expected:
        warnings.warn(
            f"checkpoint {path} was written under a different config "
            f"({state.config_hash[:12]}... vs {expected[:12]}...)",
            stacklevel=3,
        )


def load_run_state(path, expected_config_hash: Optional[str] = None) -> CheckpointState:
    """`load_checkpoint`, with `initial` and `baseline` taken from round 0 when absent.

    A round file that stores them as null gets both from `round_000.json`
    in its directory. That file must load, hold both networks, and carry
    the same config hash and arch; otherwise this raises DataFormatError.
    """
    state = load_checkpoint(path)
    _warn_if_other_config(state, path, expected_config_hash)
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


def latest_round_path(directory, older_than=None) -> Optional[Path]:
    """Highest-round checkpoint file in a directory, or None.

    Rounds compare as integers, so `round_1000.json` comes after
    `round_999.json`; names whose index part is not an integer are ignored.
    With `older_than` (a round file's path), only lower rounds count.
    """
    indexed = [(_round_index(p), p) for p in Path(directory).glob("round_*.json")]
    limit = math.inf if older_than is None else _round_index(Path(older_than))
    indexed = [(i, p) for i, p in indexed if i is not None and i < limit]
    return max(indexed)[1] if indexed else None


def _round_index(path: Path) -> Optional[int]:
    index = path.stem[len("round_"):]
    return int(index) if index.isdecimal() else None


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
