"""Versioned experiment checkpoints.

Checkpoints are JSON (decimal text, not raw binary floats) so they stay
portable across platforms; JSON float serialization round-trips float64
exactly, which is what makes resuming bit-identical to an uninterrupted
run. Each file records the format version, the architecture, the
iteration-0 network, the round-0 trained baseline, the current mask and
trained network, the round index, the rows recorded so far, and a hash of
the experiment config. Loading rejects other versions outright and warns
when the stored config hash does not match the caller's.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, ShapeError, UsageError
from .masks import PruneMask
from .nn import DenseNetwork, check_layer_sizes

CHECKPOINT_VERSION = 1


@dataclass(eq=False)
class CheckpointState:
    arch: tuple[int, ...]
    round_index: int
    config_hash: str
    initial: DenseNetwork
    baseline: Optional[DenseNetwork]
    mask: PruneMask
    trained: DenseNetwork
    rows: list


def config_hash(cfg) -> str:
    """Stable hash of a config: sha256 over its canonical JSON form."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _net_to_json(net: Optional[DenseNetwork]):
    if net is None:
        return None
    return {
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_json(obj) -> Optional[DenseNetwork]:
    if obj is None:
        return None
    return DenseNetwork(
        [np.asarray(w, dtype=np.float64) for w in obj["weights"]],
        [np.asarray(b, dtype=np.float64) for b in obj["biases"]],
    )


def save_checkpoint(state: CheckpointState, path) -> None:
    """Write a checkpoint file; floats are serialized round-trippably."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "arch": list(state.arch),
        "round_index": state.round_index,
        "config_hash": state.config_hash,
        "initial": _net_to_json(state.initial),
        "baseline": _net_to_json(state.baseline),
        "mask": [m.astype(np.uint8).tolist() for m in state.mask.layers],
        "trained": _net_to_json(state.trained),
        "rows": [asdict(r) for r in state.rows],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path, expected_config_hash: Optional[str] = None) -> CheckpointState:
    """Read a checkpoint, rejecting corrupt files and other format versions.

    A mask that does not pair with the stored networks, or an `arch` that
    differs from their layer sizes, marks the file corrupt.

    A config-hash mismatch is reported as a warning, not an error: the
    caller may be resuming deliberately under an edited config.
    """
    from .lottery import RoundRow

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupt checkpoint {path}: {exc}") from exc

    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"checkpoint {path} has format version {version!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    try:
        state = CheckpointState(
            arch=check_layer_sizes(payload["arch"]),
            round_index=int(payload["round_index"]),
            config_hash=payload["config_hash"],
            initial=_net_from_json(payload["initial"]),
            baseline=_net_from_json(payload["baseline"]),
            mask=PruneMask([np.asarray(m) for m in payload["mask"]]),
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


def round_path(directory, round_index: int) -> Path:
    return Path(directory) / f"round_{round_index:03d}.json"


def latest_round_path(directory) -> Optional[Path]:
    """Highest-round checkpoint file in a directory, or None."""
    candidates = sorted(Path(directory).glob("round_*.json"))
    return candidates[-1] if candidates else None


def save_round(directory, cfg, round_index, initial, baseline, mask, trained, rows) -> Path:
    """Convenience wrapper used by the experiment loop."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    path = round_path(directory, round_index)
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
