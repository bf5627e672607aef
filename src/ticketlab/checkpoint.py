"""Versioned experiment checkpoints.

A checkpoint file (`round_NNN.json`) records the format version, the
architecture, the round index, a hash of the experiment config, the
sha256 of the run's iteration-0 network (`initial_sha256`), the rows
recorded so far, and the round's trained network and mask. No file
stores the two networks that never change after round 0: the
iteration-0 network (`initial`, for rewinding) is
`init_network(cfg.arch, cfg.init_seed)`, which the config hash pins, and
the round-0 trained baseline (`baseline`, for weight movement) is the
trained network of `round_000.json`. `load_run_state` regenerates the
one and reads the other, and it is the one place that decides which run
a file belongs to. `load_checkpoint` reads one file as it is.

Format version 8 is one line of UTF-8 JSON, the header, then the mask,
then the kept weights, then the biases, then a 4-byte trailer. The
header holds the fields above; every array's shape follows from `arch`.
Each mask layer is packed by `np.packbits` (row-major, first entry in
the high bit, zero-padded to a whole byte). The weights that follow are
the kept ones only, layer by layer in mask order (row-major: a save
gathers `w[m]`, a load scatters `w[m] = ...` into zeros), and the biases
come whole; both are little-endian float64 (`<f8`). A pruned weight is
not stored: it reads back as `+0.0`, which `nn` keeps at every pruned
position, and `save_checkpoint` refuses a network with any other bits
there. `initial_sha256` is the sha256 of the iteration-0 network's
weights then biases, all of them, as `<f8`. The trailer is the
little-endian `zlib.crc32` of every byte before it, header included.
Raw bytes in a fixed byte order make the round trip bit-exact on any
host (-0.0 and subnormals included), which is what makes resuming
bit-identical to an uninterrupted run. A file is a header of a few
hundred bytes, the mask bits, and 8 bytes per kept weight and per bias:
for LeNet-300-100 about 36.6 KB plus 2.13 MB times the kept fraction
(2.17 MB at round 0). The name keeps its `.json` suffix, because resume
discovery finds checkpoints by that name.

Files are written to a temporary name beside the target and renamed into
place, so a crash mid-write leaves the previous round's file the latest.
This build reads and writes format version 8 only. It rejects other
versions outright: version 7 had this layout but was written by training
that ran every layer on its whole matrix (see `nn._COMPACT_BELOW`), so
resuming one would mix two arithmetics in one run, and version 6 stored
every weight, pruned ones included. It also rejects a file without a
header line, a file that fails its CRC, a malformed header field, and a
data section whose length differs from the one `arch` and the stored
mask give.
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
from .masks import PruneMask, full_mask
from .nn import DenseNetwork, check_int, check_layer_sizes, init_network
from .results import RoundRow, write_atomically

CHECKPOINT_VERSION = 8
_FLOAT = np.dtype("<f8")
_CRC_BYTES = 4


@dataclass(eq=False)
class CheckpointState:
    arch: tuple[int, ...]
    round_index: int
    config_hash: str
    initial_sha256: str
    mask: PruneMask
    trained: DenseNetwork
    rows: list


@dataclass(eq=False)
class RunState(CheckpointState):
    """A round file's state with the two networks no round file stores (see `load_run_state`)."""

    initial: DenseNetwork
    baseline: DenseNetwork


def config_hash(cfg) -> str:
    """Stable hash of a config: sha256 over its canonical JSON form."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _network_arrays(net: DenseNetwork) -> list[np.ndarray]:
    """Weights then biases, as the contiguous little-endian float64 arrays a file stores."""
    return [np.ascontiguousarray(a, _FLOAT) for a in net.weights + net.biases]


def network_sha256(net: DenseNetwork) -> str:
    """sha256 of a network's bytes as a checkpoint stores them; a file's `initial_sha256`."""
    return hashlib.sha256(b"".join(_network_arrays(net))).hexdigest()


def _weight_shapes(arch) -> list[tuple[int, int]]:
    return [(fan_out, fan_in) for fan_in, fan_out in zip(arch, arch[1:])]


def save_checkpoint(state: CheckpointState, path) -> None:
    """Write a checkpoint file atomically: a synced temporary file, then a rename.

    The file stores no shapes, so a network whose layer sizes are not
    `state.arch`, or a mask that does not pair with `trained`, raises
    ShapeError instead of being written. It stores no pruned weight
    either, so a network with anything but `+0.0` at a pruned position
    (`-0.0`, NaN, any nonzero value) raises UsageError. `write_atomically`
    removes the temporary file (`.<name>.tmp`, never a `round_*.json`
    name) if the write fails, so an interrupted save leaves no file that
    resume discovery could pick up.
    """
    if state.trained.layer_sizes != tuple(state.arch):
        raise ShapeError(f"the network to be saved does not have the layer sizes {state.arch}")
    state.mask.check_pairing(state.trained.weights)
    layers = len(state.mask.layers)
    arrays = _network_arrays(state.trained)
    weights, biases = arrays[:layers], arrays[layers:]
    for l, (m, w) in enumerate(zip(state.mask.layers, weights)):
        lost = np.flatnonzero(~m & (w.view("<u8") != 0))
        if lost.size:
            raise UsageError(
                f"layer {l} of the network to be saved has {lost.size} pruned weights that "
                f"are not +0.0 (first at flat index {lost[0]}); a checkpoint stores kept "
                "weights only"
            )
    header = {
        "format_version": CHECKPOINT_VERSION,
        "arch": list(state.arch),
        "round_index": state.round_index,
        "config_hash": state.config_hash,
        "initial_sha256": state.initial_sha256,
        "rows": [asdict(r) for r in state.rows],
    }
    chunks = [json.dumps(header).encode("utf-8") + b"\n"]
    chunks += [np.packbits(m) for m in state.mask.layers]
    chunks += [w[m] for m, w in zip(state.mask.layers, weights)] + biases
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_atomically(path, [*chunks, crc.to_bytes(_CRC_BYTES, "little")])


def load_checkpoint(path) -> CheckpointState:
    """Read one checkpoint file as it is, rejecting corrupt files and other format versions.

    A file without a header line, a file that fails its CRC, a malformed
    header field, or a data section whose length differs from the one
    `arch` and the stored mask give marks the file corrupt
    (DataFormatError). A file that cannot be read raises its OSError.
    """
    raw = Path(path).read_bytes()
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

    try:
        arch = check_layer_sizes(header["arch"])
        for key in ("config_hash", "initial_sha256"):
            if not isinstance(header[key], str):
                raise ValueError(f"{key} must be a string, got {header[key]!r}")
        shapes = _weight_shapes(arch)
        mask = PruneMask([
            np.unpackbits(take(-(-o * i // 8), np.uint8), count=o * i).view(bool).reshape(o, i)
            for o, i in shapes
        ])
        kept = [int(np.count_nonzero(m)) for m in mask.layers]
        excess = len(data) - offset - _FLOAT.itemsize * (sum(kept) + sum(o for o, _ in shapes))
        if excess:
            raise ValueError(
                f"data section is {abs(excess)} bytes {'longer' if excess > 0 else 'shorter'} "
                f"than arch {arch} and its {sum(kept)} kept weights need"
            )
        # Fresh, writable, native-order arrays, +0.0 at every pruned position.
        weights = [np.zeros(m.shape) for m in mask.layers]
        for w, m, k in zip(weights, mask.layers, kept):
            w[m] = take(k, _FLOAT)
        trained = DenseNetwork(weights, [take(o, _FLOAT).astype(np.float64) for o, _ in shapes])
        return CheckpointState(
            arch=arch,
            round_index=check_int(header["round_index"], "round_index", 0),
            config_hash=header["config_hash"],
            initial_sha256=header["initial_sha256"],
            mask=mask,
            trained=trained,
            rows=[RoundRow(**r) for r in header["rows"]],
        )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc


def load_run_state(path, cfg) -> RunState:
    """The state a run of `cfg` resumes from: `load_checkpoint(path)` with
    the run's iteration-0 network and round-0 baseline.

    `initial` is regenerated as `init_network(cfg.arch, cfg.init_seed)`.
    `baseline` is the trained network of round 0: the file's own when it
    is round 0, else that of `round_000.json` in its directory, which must
    load. Both files must carry `cfg`'s config hash and arch and the
    sha256 of the regenerated `initial`: a file of another run raises
    DataFormatError, as a corrupt one does.
    """
    state = load_checkpoint(path)
    first_path = round_path(Path(path).parent, 0)
    first = state if state.round_index == 0 else load_checkpoint(first_path)
    initial = init_network(cfg.arch, cfg.init_seed)
    run = (config_hash(cfg), cfg.arch, network_sha256(initial))
    for s, where in ((state, path), (first, f"{first_path} (round 0 of {path})")):
        if (s.config_hash, s.arch, s.initial_sha256) != run:
            raise DataFormatError(
                f"{where} belongs to another run: config hash {s.config_hash[:12]}... vs "
                f"{run[0][:12]}..., arch {s.arch} vs {run[1]}, initial sha256 "
                f"{s.initial_sha256[:12]}... vs {run[2][:12]}..."
            )
    return RunState(**vars(state), initial=initial, baseline=first.trained)


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


def run_fields(cfg, initial) -> dict:
    """The header fields that every round file of a run of `cfg` shares."""
    return dict(arch=cfg.arch, config_hash=config_hash(cfg), initial_sha256=network_sha256(initial))


def save_round(directory, cfg, round_index, initial, baseline, mask, trained, rows,
               run: Optional[dict] = None) -> Path:
    """Write the checkpoint of one round of the experiment loop.

    The file stores `trained` and `mask`, with the sha256 of `initial`. A
    directory without `round_000.json` first gets one, made from
    `baseline`, a full mask and `rows[:1]`, because every round file takes
    the run's baseline from it (see `load_run_state`). A caller that saves
    many rounds passes `run`, its `run_fields(cfg, initial)` taken once, so
    that no save hashes the config and `initial` again.
    """
    Path(directory).mkdir(parents=True, exist_ok=True)
    if run is None:
        run = run_fields(cfg, initial)
    if round_index > 0 and not round_path(directory, 0).exists():
        first = CheckpointState(**run, round_index=0, mask=full_mask(cfg.arch), trained=baseline,
                                rows=list(rows[:1]))
        save_checkpoint(first, round_path(directory, 0))
    path = round_path(directory, round_index)
    state = CheckpointState(**run, round_index=round_index, mask=mask, trained=trained,
                            rows=list(rows))
    save_checkpoint(state, path)
    return path
