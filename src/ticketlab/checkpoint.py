"""Versioned experiment checkpoints.

A checkpoint file (`round_NNN.json`) records the format version, the
architecture, the round index, a hash of the experiment config, the
current mask and trained network, the rows recorded so far, and the two
networks that never change after round 0: the iteration-0 network
(`initial`, for rewinding) and the round-0 trained baseline (`baseline`,
for weight movement). `save_round` writes those two only once per
checkpoint directory: in `round_000.json`, and in any later round file
whose directory has no round 0 (so a lone file stays self-contained).
Other round files leave them out, and `load_run_state` takes them from
`round_000.json` beside the file. `load_run_state` is also the one place
that decides which run a file belongs to: it refuses a file, or the
`round_000.json` it borrows from, whose config hash or arch differs from
the caller's config. `load_checkpoint` reads one file as it is.

Format version 5 is one line of UTF-8 JSON, the header, then the raw
bytes of every array back to back, then a 4-byte trailer. The header
holds the fields above, with `initial` and `baseline` as booleans that
say whether the network is stored; every array's shape follows from
`arch`, so the header gives none. The data section holds `initial`,
`baseline` (when stored) and `trained`, each as weights then biases in
little-endian float64 (`<f8`), then the mask layers, each packed by
`np.packbits` (row-major, first entry in the high bit, zero-padded to a
whole byte). The trailer is the little-endian `zlib.crc32` of every byte
before it, header included. Raw bytes in a fixed byte order make the
round trip bit-exact on any host (-0.0 and subnormals included), which
is what makes resuming bit-identical to an uninterrupted run; the file
stays within a few hundred bytes of the arrays' own size. The name keeps
its `.json` suffix, because resume discovery finds checkpoints by that
name.

Files are written to a temporary name beside the target and renamed into
place, so a crash mid-write leaves the previous round's file the latest.
This build reads and writes format version 5 only. It rejects other
versions outright, a file without a header line, a file that fails its
CRC, a malformed header field, and a data section whose length differs
from the one `arch` and the two booleans give.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, ShapeError, UsageError
from .masks import PruneMask
from .nn import DenseNetwork, check_int, check_layer_sizes
from .results import RoundRow, write_atomically

CHECKPOINT_VERSION = 5
_FLOAT = np.dtype("<f8")
_CRC_BYTES = 4


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


def _weight_shapes(arch) -> list[tuple[int, int]]:
    return [(fan_out, fan_in) for fan_in, fan_out in zip(arch, arch[1:])]


def save_checkpoint(state: CheckpointState, path) -> None:
    """Write a checkpoint file atomically: a synced temporary file, then a rename.

    The file stores no shapes, so a network whose layer sizes are not
    `state.arch`, or a mask that does not pair with `trained`, raises
    ShapeError instead of being written. `write_atomically` removes the
    temporary file (`.<name>.tmp`, never a `round_*.json` name) if the
    write fails, so an interrupted save leaves no file that resume
    discovery could pick up.
    """
    nets = [n for n in (state.initial, state.baseline, state.trained) if n is not None]
    if any(n.layer_sizes != tuple(state.arch) for n in nets):
        raise ShapeError(f"a network to be saved does not have the layer sizes {state.arch}")
    state.mask.check_pairing(state.trained.weights)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "arch": list(state.arch),
        "round_index": state.round_index,
        "config_hash": state.config_hash,
        "initial": state.initial is not None,
        "baseline": state.baseline is not None,
        "rows": [asdict(r) for r in state.rows],
    }
    chunks = [json.dumps(header).encode("utf-8") + b"\n"]
    for n in nets:
        chunks += [np.ascontiguousarray(a, _FLOAT) for a in n.weights + n.biases]
    chunks += [np.packbits(m) for m in state.mask.layers]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_atomically(path, [*chunks, crc.to_bytes(_CRC_BYTES, "little")])


def load_checkpoint(path) -> CheckpointState:
    """Read one checkpoint file as it is, rejecting corrupt files and other format versions.

    A file without a header line, a file that fails its CRC, a malformed
    header field, or a data section whose length differs from the one
    `arch` and the `initial`/`baseline` booleans give marks the file corrupt.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    # Versions 1-3 are one JSON document without a newline; parsing it
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
    stored_crc = int.from_bytes(raw[-_CRC_BYTES:], "little")
    if zlib.crc32(memoryview(raw)[:-_CRC_BYTES]) != stored_crc:
        raise DataFormatError(f"corrupt checkpoint {path}: file fails its CRC check")
    data = memoryview(raw)[end + 1 : len(raw) - _CRC_BYTES]

    offset = 0

    def take(count: int, dtype) -> np.ndarray:
        """The next `count` items of the data section, as a read-only view."""
        nonlocal offset
        a = np.frombuffer(data, dtype, count, offset)
        offset += a.nbytes
        return a

    def net() -> DenseNetwork:
        """Fresh, writable, native-order weights then biases."""
        weights = [take(o * i, _FLOAT).reshape(o, i).astype(np.float64) for o, i in shapes]
        return DenseNetwork(weights, [take(o, _FLOAT).astype(np.float64) for o, _ in shapes])

    try:
        arch = check_layer_sizes(header["arch"])
        for key in ("initial", "baseline"):
            if not isinstance(header[key], bool):
                raise ValueError(f"{key} must be true or false, got {header[key]!r}")
        if not isinstance(header["config_hash"], str):
            raise ValueError(f"config_hash must be a string, got {header['config_hash']!r}")
        shapes = _weight_shapes(arch)
        mask_bytes = [-(-o * i // 8) for o, i in shapes]
        floats = sum(o * i + o for o, i in shapes)
        networks = 1 + header["initial"] + header["baseline"]
        excess = len(data) - (networks * floats * _FLOAT.itemsize + sum(mask_bytes))
        if excess:
            raise ValueError(
                f"data section is {abs(excess)} bytes {'longer' if excess > 0 else 'shorter'} "
                f"than arch {arch} needs"
            )
        initial = net() if header["initial"] else None
        baseline = net() if header["baseline"] else None
        trained = net()
        mask = PruneMask([
            np.unpackbits(take(n, np.uint8), count=o * i).view(bool).reshape(o, i)
            for n, (o, i) in zip(mask_bytes, shapes)
        ])
        return CheckpointState(
            arch=arch,
            round_index=check_int(header["round_index"], "round_index", 0),
            config_hash=header["config_hash"],
            initial=initial,
            baseline=baseline,
            mask=mask,
            trained=trained,
            rows=[RoundRow(**r) for r in header["rows"]],
        )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc


def load_run_state(path, cfg) -> CheckpointState:
    """The state a run of `cfg` resumes from: `load_checkpoint(path)`, with
    `initial` and `baseline` taken from round 0 when the file leaves them out.

    A round file that leaves them out gets both from `round_000.json` in
    its directory, which must load and hold both. The file, and the
    `round_000.json` it borrows from, must carry `cfg`'s config hash and
    arch: a file of another run raises DataFormatError, as a corrupt one
    does.
    """
    expected = config_hash(cfg)

    def check_run(state: CheckpointState, where) -> None:
        if state.config_hash != expected or state.arch != cfg.arch:
            raise DataFormatError(
                f"{where} belongs to another run: config hash {state.config_hash[:12]}... "
                f"vs {expected[:12]}..., arch {state.arch} vs {cfg.arch}"
            )

    state = load_checkpoint(path)
    check_run(state, path)
    if state.initial is not None and state.baseline is not None:
        return state
    first_path = round_path(Path(path).parent, 0)
    first = load_checkpoint(first_path)
    check_run(first, f"{first_path} (round 0 of {path})")
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

    `initial` and `baseline` are left out when the directory already holds
    `round_000.json`, which carries them (see `load_run_state`).
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
