"""Command-line surface.

Commands: `train` (fit a dense classifier), `lottery` (run an experiment
spec, writing one round file per round and seed, which `--resume`
continues from), `report` (assemble figure data from record CSVs),
`inspect` (sparsity and connectivity of a checkpoint), `verify` (replay
each seed's newest round file and compare its bits). Exit codes: 0
success, 1 usage error, 2 data/format error or a file that cannot be
read or written (any OSError), 3 numerical failure or, for `verify`, a
replayed round that differs from its checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, NumericalError, UsageError
from .checkpoint import (
    CheckpointState,
    RunState,
    config_hash,
    latest_round_path,
    load_checkpoint,
    load_run_state,
    network_sha256,
    round_path,
    save_checkpoint,
)
from .config import build_datasets, load_spec, seed_configs
from .data import gen_synthetic, load_idx
from .lottery import LotteryConfig, replay_round, run_iterative, run_one_shot
from .masks import full_mask, sparsity
from .metrics import FIGURES, bit_difference, connectivity_report, figure_data
from .nn import TrainConfig, check_layer_sizes, init_network, parse_int, train
from .results import emit_csv, read_records_csv, record_table, written_in_place


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code mapping."""

    def error(self, message):
        raise UsageError(message)


def _parse_synthetic(text: str):
    """CLASSES,DIM,PER_CLASS[,NOISE[,SEED]]; gen_synthetic checks the integers' ranges."""
    usage = "--synthetic takes CLASSES,DIM,PER_CLASS[,NOISE[,SEED]]"
    parts = text.split(",")
    if len(parts) < 3 or len(parts) > 5:
        raise UsageError(usage)
    try:
        noise = float(parts[3]) if len(parts) > 3 else 0.1
    except ValueError as exc:
        raise UsageError(f"{usage}: {exc}") from exc
    names = ("classes", "dim", "per_class")
    counts = [parse_int(part, f"--synthetic {name}") for part, name in zip(parts, names)]
    seed = parse_int(parts[4], "--synthetic seed") if len(parts) > 4 else 0
    return gen_synthetic(*counts, seed, noise=noise)


def _cmd_train(args) -> int:
    arch = check_layer_sizes([parse_int(s, "--arch layer size") for s in args.arch.split(",")])
    if bool(args.test_images) != bool(args.test_labels):
        missing = "--test-labels" if args.test_images else "--test-images"
        raise UsageError(f"need --test-images and --test-labels together; {missing} is missing")
    if args.synthetic is not None:
        if args.images or args.labels:
            raise UsageError("give either --synthetic or --images/--labels, not both")
        dataset = _parse_synthetic(args.synthetic)
    else:
        if not (args.images and args.labels):
            raise UsageError("need --images and --labels (or --synthetic)")
        dataset = load_idx(args.images, args.labels)
    eval_data = None
    if args.test_images:
        eval_data = load_idx(args.test_images, args.test_labels)

    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        train_batch_size=args.batch_size,
        seed=args.seed,
    )
    net = init_network(arch, args.seed)
    mask = full_mask(arch)
    trained, history = train(net, mask, dataset, cfg, eval_data=eval_data)
    for epoch, (loss, acc) in enumerate(history):
        print(f"epoch {epoch + 1:3d}  loss {loss:.6f}  accuracy {acc:.4f}")
    print(f"final accuracy {history[-1][1]:.4f} (best {max(a for _, a in history):.4f})")

    if args.save:
        state = CheckpointState(arch=arch, round_index=0, config_hash=config_hash(cfg),
                                initial_sha256=network_sha256(net), mask=mask, trained=trained,
                                rows=[])
        save_checkpoint(state, args.save)
        print(f"checkpoint written to {args.save}")
    return 0


def _newest_run_state(checkpoint_dir: Path, cfg: LotteryConfig) -> Optional[RunState]:
    """Run state of the newest round file in `checkpoint_dir` that loads; None if there is none.

    Files that `load_run_state` refuses (damaged, unreadable, or of
    another run) are skipped and named on stderr. If round files exist but
    none loads, the DataFormatError names each one's fault.
    """
    faults = []
    path = latest_round_path(checkpoint_dir)
    while path is not None:
        try:
            state = load_run_state(path, cfg)
        except (DataFormatError, OSError) as exc:
            faults.append(str(exc))
            path = latest_round_path(checkpoint_dir, older_than=path)
            continue
        for fault in faults:
            print(f"skipped: {fault}", file=sys.stderr)
        return state
    if faults:
        raise DataFormatError(f"no checkpoint in {checkpoint_dir} loads: {'; '.join(faults)}")
    return None


def _checkpoint_dirs(spec, configs, make: bool) -> list[Path]:
    """The checkpoint directory of each of `configs`, made first if `make`.

    A `round_*.json` in one that exists but is no regular file raises
    DataFormatError before any training: a save would write into it in
    place (see `write_atomically`), and a resume would skip it.
    """
    dirs = []
    for cfg in configs:
        directory = Path(spec.output_dir) / f"checkpoints-{cfg.experiment_id}-seed{cfg.init_seed}"
        if make:
            directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(directory.glob("round_*.json")):
            if written_in_place(path):
                raise DataFormatError(f"{path} is not a regular file")
        dirs.append(directory)
    return dirs


def _cmd_lottery(args) -> int:
    spec = load_spec(args.config)
    train_data, test_data = build_datasets(spec)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = seed_configs(spec)
    checkpoint_dirs = _checkpoint_dirs(spec, configs, make=True)
    if not args.resume:
        # A fresh run starts over: an earlier, longer run's later rounds must not outlive it.
        for path in [p for directory in checkpoint_dirs for p in directory.glob("round_*.json")]:
            path.unlink()

    records = []
    for cfg, checkpoint_dir in zip(configs, checkpoint_dirs):
        print(f"running {cfg.experiment_id} (seed {cfg.init_seed}, {cfg.strategy}/{cfg.mode})")
        run = run_iterative if cfg.mode == "iterative" else run_one_shot
        # No reference of our own: a seed's state is freed before the next seed's loads.
        record = run(cfg, train_data, test_data, checkpoint_dir=checkpoint_dir,
                     resume_from=_newest_run_state(checkpoint_dir, cfg) if args.resume else None)
        for row in record.rows:
            print(
                f"  round {row.round:3d}  pruned {row.fraction_pruned:7.4f}  "
                f"accuracy {row.test_accuracy:.4f}  best {row.best_accuracy:.4f}"
            )
        records.append(record)

    out_path = out_dir / f"{spec.lottery.experiment_id}.csv"
    emit_csv(record_table(records), out_path)
    print(f"records written to {out_path}")
    return 0


def _cmd_report(args) -> int:
    records_by_file = [read_records_csv(p) for p in args.inputs]
    if args.labels is not None:
        labels = args.labels.split(",")
        if len(labels) != len(records_by_file):
            raise UsageError(
                f"--labels gives {len(labels)} labels for {len(records_by_file)} input CSVs"
            )
        for recs, label in zip(records_by_file, labels):
            for rec in recs:
                rec.label = label
    records = [rec for recs in records_by_file for rec in recs]
    table = figure_data(records, args.figure)
    emit_csv(table, args.out)
    print(f"{args.figure}: {len(table.rows)} rows written to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    state = load_checkpoint(args.checkpoint)
    report = sparsity(state.mask)
    print(f"architecture      {'-'.join(str(s) for s in state.arch)}")
    print(f"round index       {state.round_index}")
    print(f"config hash       {state.config_hash}")
    print(
        f"sparsity          {report.pruned_weights}/{report.total_weights} pruned "
        f"({report.fraction_pruned:.4%})"
    )
    for l, layer in enumerate(report.per_layer):
        print(f"  layer {l}: {layer.pruned}/{layer.total} pruned ({layer.fraction_pruned:.4%})")
    conn = connectivity_report(state.mask)
    print("incoming connections per unit (min/mean/max):")
    for l, layer in enumerate(conn.per_layer):
        print(f"  layer {l}: {layer.min}/{layer.mean:.2f}/{layer.max}")
    return 0


def _cmd_verify(args) -> int:
    spec = load_spec(args.config)
    configs = seed_configs(spec)
    checkpoint_dirs = _checkpoint_dirs(spec, configs, make=False)
    train_data, test_data = build_datasets(spec)
    equal = True
    for cfg, directory in zip(configs, checkpoint_dirs):
        newest = latest_round_path(directory)
        if newest is None:
            raise DataFormatError(f"no checkpoint in {directory}")
        stored = load_run_state(newest, cfg)
        k = stored.round_index
        previous = load_run_state(round_path(directory, k - 1), cfg) if k else None
        if previous is not None and previous.round_index != k - 1:
            raise DataFormatError(
                f"{round_path(directory, k - 1)} holds round {previous.round_index}")
        row, mask, trained = replay_round(cfg, train_data, test_data, previous)
        weights = bit_difference(stored.trained, trained)
        same_mask = all(map(np.array_equal, stored.mask.layers, mask.layers))
        same_row = dataclasses.replace(row, seconds=0.0) == dataclasses.replace(
            stored.rows[-1], seconds=0.0)
        notes = [
            "first in {}, differing values {}, max {} ULP".format(*weights) if weights
            else "weights equal",
            "masks equal" if same_mask else "masks differ",
            "row equal" if same_row else "row differs",
        ]
        differs = weights is not None or not (same_mask and same_row)
        equal = equal and not differs
        print(f"seed {cfg.init_seed} round {k}: "
              + ("differs: " + "; ".join(notes) if differs else "equal"))
    return 0 if equal else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ticketlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a dense classifier")
    p.add_argument("--arch", required=True, help="comma-separated layer sizes, e.g. 784,300,100,10")
    p.add_argument("--images", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--test-images", help="IDX image file for accuracy reporting")
    p.add_argument("--test-labels", help="IDX label file for accuracy reporting")
    p.add_argument("--synthetic", help="CLASSES,DIM,PER_CLASS[,NOISE[,SEED]] blob dataset")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", help="write a checkpoint of the trained network")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("lottery", help="run an experiment spec file")
    p.add_argument("--config", required=True, help="JSON experiment spec")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue each seed from its newest round file that loads",
    )
    p.set_defaults(func=_cmd_lottery)

    p = sub.add_parser("report", help="assemble figure data from record CSVs")
    p.add_argument("--figure", required=True, choices=FIGURES)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("inputs", nargs="+", help="record CSVs produced by `lottery`")
    p.add_argument("--labels", help="comma-separated series label per input CSV")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("inspect", help="sparsity and connectivity of a checkpoint")
    p.add_argument("checkpoint", help="checkpoint file (round_NNN.json)")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "verify", help="replay each seed's newest round file and compare its bits"
    )
    p.add_argument("--config", required=True, help="JSON experiment spec of a `lottery` run")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
