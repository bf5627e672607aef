"""Experiment spec files: validation, dataset construction, seed expansion.

A spec is a single JSON document holding the full experiment config, the
dataset source (IDX file paths or a synthetic recipe), the output
directory, and an optional seed list. Unknown keys anywhere in the tree
are hard errors: a silently ignored typo would corrupt an experiment. So
are the sections that the spec's strategy or mode never reads, which
`LotteryConfig` refuses, and `rounds` or `per_round_fraction` in a
one-shot spec, which only a spec can tell from their defaults.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .errors import DataFormatError, UsageError
from . import rng
from .data import gen_synthetic, load_idx
from .lottery import LotteryConfig
from .nn import Dataset, TrainConfig, check_int, is_number
from .strategies import FisherConfig

# Stream tag distinguishing a synthetic test set from its training set.
_TEST_SPLIT_STREAM = 5

_LOTTERY_KEYS = {f.name for f in fields(LotteryConfig)}
# "checkpoint" is accepted as `true` only, for specs written when round files were optional.
_TOP_KEYS = _LOTTERY_KEYS | {"dataset", "output_dir", "seeds", "checkpoint"}
# Spec sections that `_section` parses into the config class of that LotteryConfig field.
_SECTIONS = {"train": TrainConfig, "final_train": TrainConfig, "fisher": FisherConfig}


@dataclass(frozen=True)
class IdxSource:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, str):
                raise UsageError(f"dataset.idx.{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class SyntheticSource:
    classes: int
    dim: int
    per_class: int
    test_per_class: int
    seed: int = 0
    noise: float = 0.1

    def __post_init__(self) -> None:
        if not (is_number(self.noise) and 0 <= self.noise < math.inf):
            raise UsageError(
                f"dataset.synthetic.noise must be a finite number >= 0, got {self.noise!r}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    lottery: LotteryConfig
    dataset: IdxSource | SyntheticSource
    output_dir: str
    seeds: Optional[tuple[int, ...]] = None


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(cls, obj, where: str):
    """`cls(**obj)` for a spec section: a JSON object of `cls`'s fields, required ones present."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be an object, got {obj!r}")
    _reject_unknown(obj, {f.name for f in fields(cls)}, where)
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is MISSING]
    if missing:
        raise UsageError(f"{where} is missing: {', '.join(missing)}")
    return cls(**obj)


def _dataset_source(obj) -> IdxSource | SyntheticSource:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise UsageError("dataset must be an object with exactly one of 'idx' or 'synthetic'")
    kind, body = next(iter(obj.items()))
    sources = {"idx": IdxSource, "synthetic": SyntheticSource}
    if kind not in sources:
        raise UsageError(f"dataset kind must be 'idx' or 'synthetic', got {kind!r}")
    return _section(sources[kind], body, f"dataset.{kind}")


def _resolve_idx_paths(src: IdxSource, base_dir: Path) -> IdxSource:
    def fix(p: str) -> str:
        return p if Path(p).is_absolute() else str(base_dir / p)

    return IdxSource(
        fix(src.train_images), fix(src.train_labels), fix(src.test_images), fix(src.test_labels)
    )


def parse_spec(obj: dict, base_dir: Optional[Path] = None) -> ExperimentSpec:
    """Validate a parsed JSON tree into an ExperimentSpec."""
    if not isinstance(obj, dict):
        raise UsageError("spec must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "spec")
    for key in ("arch", "strategy", "mode", "dataset"):
        if key not in obj:
            raise UsageError(f"spec is missing required key {key!r}")
    for key in ("experiment_id", "output_dir"):
        if not isinstance(obj.get(key, ""), str):
            raise UsageError(f"{key} must be a string, got {obj[key]!r}")
    # The id names the record CSV and the checkpoint directories in output_dir.
    experiment_id = obj.get("experiment_id", "")
    if experiment_id in (".", "..") or {"/", os.sep, os.altsep} & set(experiment_id):
        raise UsageError(f"experiment_id must be a plain file name, got {experiment_id!r}")

    if not isinstance(obj["arch"], list):
        raise UsageError(f"arch must be a list of layer sizes, got {obj['arch']!r}")
    lottery_kwargs = {key: obj[key] for key in _LOTTERY_KEYS & set(obj)}
    lottery_kwargs["arch"] = tuple(obj["arch"])
    for key, cls in _SECTIONS.items():
        if key in obj:
            lottery_kwargs[key] = _section(cls, obj[key], key)

    dataset = _dataset_source(obj["dataset"])
    if isinstance(dataset, IdxSource) and base_dir is not None:
        dataset = _resolve_idx_paths(dataset, base_dir)

    seeds = obj.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not seeds:
            raise UsageError("seeds must be a non-empty list of integers")
        seeds = tuple(check_int(s, "seed") for s in seeds)
        if len(set(seeds)) != len(seeds):
            raise UsageError(f"seeds must not repeat, got {list(seeds)}")
    if obj.get("checkpoint", True) is not True:
        raise UsageError(
            f"checkpoint can only be true, got {obj['checkpoint']!r}: every run writes round files"
        )

    lottery = LotteryConfig(**lottery_kwargs)
    unread = sorted({"rounds", "per_round_fraction"} & set(obj))
    if lottery.mode == "one_shot" and unread:
        raise UsageError(f"one_shot mode never reads {' or '.join(unread)}, which the spec sets")

    return ExperimentSpec(
        lottery=lottery,
        dataset=dataset,
        output_dir=obj.get("output_dir", "results"),
        seeds=seeds,
    )


def load_spec(path) -> ExperimentSpec:
    """Read and validate a spec file; an unreadable one raises its OSError."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"spec {path} is not valid JSON: {exc}") from exc
    try:
        return parse_spec(obj, base_dir=path.parent)
    except TypeError as exc:
        raise UsageError(f"spec {path}: {exc}") from exc


def build_datasets(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) datasets from the spec's source."""
    src = spec.dataset
    if isinstance(src, IdxSource):
        return (
            load_idx(src.train_images, src.train_labels),
            load_idx(src.test_images, src.test_labels),
        )
    train = gen_synthetic(src.classes, src.dim, src.per_class, src.seed, noise=src.noise)
    test = gen_synthetic(
        src.classes,
        src.dim,
        src.test_per_class,
        rng.derive(src.seed, _TEST_SPLIT_STREAM),
        noise=src.noise,
    )
    return train, test


def seed_configs(spec: ExperimentSpec) -> list[LotteryConfig]:
    """One LotteryConfig per requested seed.

    Each seed s replaces the init, strategy, and training-shuffle seeds;
    data_seed stays fixed so every seed sees the same data presentation
    and Fisher subset.
    """
    base = spec.lottery
    if spec.seeds is None:
        return [base]
    return [
        replace(
            base,
            init_seed=s,
            strategy_seed=s,
            train=replace(base.train, seed=s),
            final_train=replace(base.final_train, seed=s),
        )
        for s in spec.seeds
    ]
