"""The ticketlab benchmark workloads: their inputs, one repetition, and its checks.

A repetition is one complete experiment (`run_s`), a simulated crash that
keeps only the checkpoint of round `resume_after`, and a resume from it to
the end (`resume_s`). The LeNet workloads call the Python API and write
the record CSV with `results.emit_csv`; `cli-checkpoint-resume` goes
through `ticketlab lottery --config` and `--resume`, as a user would.
Every repetition checks its own output; the checks feed `error_rate`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

LENET = (784, 300, 100, 10)
PER_ROUND = 0.2
KEEP_PER_ROUND = 0.8
NOISE = 0.3
# One short schedule for every round: the record, not accuracy, is the product here.
EPOCHS, LEARNING_RATE, BATCH = 1, 0.3, 128
# Same test-split derivation as `config.build_datasets` and the heavy_runs fixture.
TEST_SPLIT_STREAM = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    rounds: int
    resume_after: int  # the round whose checkpoint survives the simulated crash
    per_class: int
    test_per_class: int
    arch: tuple[int, ...] = LENET
    fisher: Optional[tuple[int, int]] = None  # (sample_count, fisher_batch_size)
    cli_seeds: Optional[tuple[int, ...]] = None  # set: run through `ticketlab lottery`

    @property
    def total_weights(self) -> int:
        return sum(a * b for a, b in zip(self.arch[:-1], self.arch[1:]))

    @property
    def runs(self) -> int:
        return len(self.cli_seeds) if self.cli_seeds else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lenet-l1-sweep",
            "nn.train is ~88% of run+resume and 15 of 26 rounds keep <10% of weights: sparse "
            "nn kernels show here, scorer changes do not",
            strategy="l1",
            rounds=25,
            resume_after=20,
            per_class=1000,
            test_per_class=200,
        ),
        Workload(
            "lenet-fisher-persample",
            "per-sample Fisher scoring is ~76% of run+resume and the mask keeps >=51%: one-pass "
            "Fisher shows here, sparse-kernel selection should not trigger",
            strategy="fisher",
            rounds=3,
            resume_after=2,
            per_class=1000,
            test_per_class=200,
            fisher=(1000, 1),
        ),
        Workload(
            "cli-checkpoint-resume",
            "JSON checkpoint saves are ~86% of run+resume and --resume is their read side; "
            "covers checkpoint, config, results and cli while compute layers do little",
            strategy="l1",
            rounds=6,
            resume_after=3,
            per_class=100,
            test_per_class=20,
            cli_seeds=(1, 2),
        ),
    )
}


@dataclass
class Inputs:
    out_dir: Path
    cfg: object = None  # LotteryConfig, API workloads
    train: object = None
    test: object = None
    spec_path: Optional[Path] = None  # experiment spec, CLI workload
    crash_checkpoint: Optional[Path] = None  # API workloads, written by the first repetition


def build_inputs(w: Workload, tl, seed: int, workdir: Path) -> Inputs:
    """Everything the program receives, made from the workload seed alone."""
    classes, dim = w.arch[-1], w.arch[0]
    out_dir = workdir / "out"
    if w.cli_seeds:
        spec = {
            "experiment_id": w.name,
            "arch": list(w.arch),
            "strategy": w.strategy,
            "mode": "iterative",
            "per_round_fraction": PER_ROUND,
            "rounds": w.rounds,
            "data_seed": seed,
            "train": {"epochs": EPOCHS, "learning_rate": LEARNING_RATE, "train_batch_size": BATCH},
            "dataset": {
                "synthetic": {
                    "classes": classes,
                    "dim": dim,
                    "per_class": w.per_class,
                    "test_per_class": w.test_per_class,
                    "noise": NOISE,
                    "seed": seed,
                }
            },
            "output_dir": str(out_dir),
            "seeds": list(w.cli_seeds),
            "checkpoint": True,
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
        return Inputs(out_dir, spec_path=spec_path)

    train = tl.data.gen_synthetic(classes, dim, w.per_class, seed, noise=NOISE)
    test = tl.data.gen_synthetic(
        classes, dim, w.test_per_class, tl.rng.derive(seed, TEST_SPLIT_STREAM), noise=NOISE
    )
    schedule = tl.nn.TrainConfig(
        epochs=EPOCHS, learning_rate=LEARNING_RATE, train_batch_size=BATCH, seed=seed
    )
    cfg = tl.lottery.LotteryConfig(
        arch=w.arch,
        strategy=w.strategy,
        mode="iterative",
        per_round_fraction=PER_ROUND,
        rounds=w.rounds,
        init_seed=seed,
        data_seed=seed,
        strategy_seed=seed,
        train=schedule,
        final_train=schedule,
        fisher=tl.strategies.FisherConfig(*w.fisher) if w.fisher else None,
        experiment_id=w.name,
    )
    return Inputs(out_dir, cfg=cfg, train=train, test=test)


class RoundWatch:
    """`on_round` hook: checks masked weights are exactly 0 and computes the work done.

    Multiply-accumulate counts are computed from layer shapes, kept
    counts, rows and epochs, not measured: per training row, forward and
    dW on every layer plus delta propagation into every layer but the
    first; per evaluation row, forward only.
    """

    def __init__(self, cfg, train_rows: int, eval_rows: int, keep_round: int = -1, tracer=None):
        self.cfg = cfg
        self.tracer = tracer
        self.train_rows, self.eval_rows = train_rows, eval_rows
        self.keep_round = keep_round
        self.dense = [a * b for a, b in zip(cfg.arch[:-1], cfg.arch[1:])]
        self.rounds: list[int] = []
        self.failures: list[str] = []
        self.sgd_steps = self.dense_macs = self.kept_macs = 0
        self.state: dict = {}

    def _macs(self, per_layer: list[int]) -> int:
        train = self.train_rows * (2 * sum(per_layer) + sum(per_layer[1:]))
        return train + self.eval_rows * sum(per_layer)

    def __call__(self, r, mask, start_net, trained) -> None:
        # Traced, the hook is a span of its own, so its time is not billed to `lottery`.
        with self.tracer.span("bench.on_round") if self.tracer else contextlib.nullcontext():
            self._watch(r, mask, start_net, trained)

    def _watch(self, r, mask, start_net, trained) -> None:
        kept = [int(np.count_nonzero(m)) for m in mask.layers]
        for l, (weights, m) in enumerate(zip(trained.weights, mask.layers)):
            if np.any(weights[m == 0]):
                self.failures.append(f"round {r}: masked weights of layer {l} are not 0")
        schedule = self.cfg.final_train if r == self.cfg.rounds else self.cfg.train
        self.sgd_steps += schedule.epochs * -(-self.train_rows // schedule.train_batch_size)
        self.dense_macs += schedule.epochs * self._macs(self.dense)
        self.kept_macs += schedule.epochs * self._macs(kept)
        self.rounds.append(r)
        if r == 0:
            self.state.update(initial=start_net, baseline=trained)
        if r == self.keep_round:
            self.state.update(mask=mask, trained=trained)


@dataclass
class Rep:
    traced: bool
    run_s: float
    resume_s: float
    disk_mb: float
    digest: str
    failures: list[str]
    counts: dict
    spans: range  # indices into Tracer.spans


def strip_column(text: str, column: str = "seconds") -> list[list[str]]:
    """CSV cells with one column removed, found by its header name."""
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index(column)
    return [row[:drop] + row[drop + 1 :] for row in rows]


def record_digest(text: str) -> str:
    """sha256 of a record CSV without its `seconds` column."""
    body = "\n".join(",".join(row) for row in strip_column(text))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def check_record(text: str, w: Workload) -> list[str]:
    """Row count, round-r sparsity within r/total of 1 - 0.8^r, backward-pass counts."""
    rows = list(csv.DictReader(io.StringIO(text)))
    failures = []
    if len(rows) != w.runs * (w.rounds + 1):
        failures.append(f"record has {len(rows)} rows, expected {w.runs * (w.rounds + 1)}")
    passes = -(-w.fisher[0] // w.fisher[1]) if w.fisher else 0
    for row in rows:
        r = int(row["round"])
        pruned = float(row["fraction_pruned"])
        if abs(pruned - (1 - KEEP_PER_ROUND**r)) > r / w.total_weights:
            failures.append(f"round {r}: fraction_pruned {pruned} too far from 1 - 0.8^{r}")
        expected = passes if r >= 1 else 0
        if int(row["backward_passes"]) != expected:
            failures.append(
                f"round {r}: {row['backward_passes']} backward passes, expected {expected}"
            )
    return failures


def trace_targets(tl) -> list[tuple[object, str]]:
    """Module attributes the program's callers look up, one span each.

    `config.gen_synthetic` is left alone, so that the data `build_datasets`
    generates counts as its own time. An attribute a later version of the
    program no longer has makes `Tracer.patched` raise, and the traced
    repetition fails.
    """
    names = (
        (tl.lottery, ("run_iterative", "train", "init_network", "score_l1", "score_random",
                      "score_fisher", "global_prune", "rewind", "apply_mask", "full_mask",
                      "sparsity", "weight_movement")),
        (tl.nn, ("evaluate",)),
        (tl.checkpoint, ("save_round", "save_checkpoint", "load_checkpoint", "config_hash")),
        (tl.cli, ("main", "load_spec", "build_datasets", "seed_configs", "run_iterative",
                  "latest_round_path", "emit_csv", "record_table")),
        (tl.data, ("gen_synthetic",)),
        (tl.results, ("emit_csv", "record_table")),
    )
    return [(module, attr) for module, attrs in names for attr in attrs]


def _first(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Fields noted on spans after they close; the mask is turned into a kept fraction later.
NOTES = {
    "nn.train": lambda args, kwargs, result: {"mask": _first(args, kwargs, 1, "mask")},
    "strategies.score_fisher": lambda args, kwargs, result: {"passes": int(result[1])},
    "checkpoint.save_checkpoint": lambda args, kwargs, result: {
        "bytes": Path(_first(args, kwargs, 1, "path")).stat().st_size
    },
}


@contextlib.contextmanager
def segment(tracer, name: str, tl):
    """Trace the block as one root span, or run it untouched without a tracer."""
    if tracer is None:
        yield
        return
    with tracer.patched(trace_targets(tl), NOTES), tracer.span(name):
        yield


def _api_rep(w: Workload, tl, inputs: Inputs, tracer, watches: list):
    cfg = inputs.cfg
    csv_path = inputs.out_dir / f"{cfg.experiment_id}.csv"
    inputs.out_dir.mkdir(parents=True)

    def watch():
        watches.append(
            RoundWatch(cfg, len(inputs.train), len(inputs.test), w.resume_after, tracer)
        )
        return watches[-1]

    with segment(tracer, "bench.run", tl):
        start = time.perf_counter()
        record = tl.lottery.run_iterative(cfg, inputs.train, inputs.test, on_round=watch())
        tl.results.emit_csv(tl.results.record_table([record]), csv_path)
        run_s = time.perf_counter() - start
    first = csv_path.read_text(encoding="utf-8")

    # The crash: only the checkpoint that a checkpointed run writes at round
    # `resume_after` survives, written here by the same function. Runs are
    # deterministic (the digest check enforces it), so one file serves every
    # repetition.
    if inputs.crash_checkpoint is None:
        state = watches[0].state
        inputs.crash_checkpoint = tl.checkpoint.save_round(
            inputs.out_dir.parent / "crash", cfg, w.resume_after, state["initial"],
            state["baseline"], state["mask"], state["trained"], record.rows[: w.resume_after + 1],
        )
    with segment(tracer, "bench.resume", tl):
        start = time.perf_counter()
        resumed = tl.lottery.run_iterative(
            cfg, inputs.train, inputs.test, resume_from=inputs.crash_checkpoint, on_round=watch()
        )
        tl.results.emit_csv(tl.results.record_table([resumed]), csv_path)
        resume_s = time.perf_counter() - start
    return run_s, resume_s, first, csv_path.read_text(encoding="utf-8"), []


def _cli(tl, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tl.cli.main(argv)


def _cli_rep(w: Workload, tl, inputs: Inputs, tracer, watches: list):
    original = tl.cli.run_iterative

    @functools.wraps(original)
    def watched(cfg, train_data, test_data, **kwargs):
        watches.append(RoundWatch(cfg, len(train_data), len(test_data), tracer=tracer))
        return original(cfg, train_data, test_data, on_round=watches[-1], **kwargs)

    csv_path = inputs.out_dir / f"{w.name}.csv"
    argv = ["lottery", "--config", str(inputs.spec_path)]
    failures = []
    tl.cli.run_iterative = watched
    try:
        with segment(tracer, "bench.run", tl):
            start = time.perf_counter()
            code = _cli(tl, argv)
            run_s = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"`ticketlab {' '.join(argv)}` exited {code}")
        first = csv_path.read_text(encoding="utf-8")

        # The crash: every checkpoint after round `resume_after` is lost.
        for path in inputs.out_dir.glob("checkpoints-*/round_*.json"):
            if int(path.stem.split("_")[1]) > w.resume_after:
                path.unlink()
        with segment(tracer, "bench.resume", tl):
            start = time.perf_counter()
            code = _cli(tl, argv + ["--resume"])
            resume_s = time.perf_counter() - start
        if code != 0:
            failures.append(f"`ticketlab {' '.join(argv)} --resume` exited {code}")
    finally:
        tl.cli.run_iterative = original
    return run_s, resume_s, first, csv_path.read_text(encoding="utf-8"), failures


def warm_up(w: Workload, tl, inputs: Inputs, seed: int, workdir: Path) -> None:
    """One untimed, checked repetition of a 1-round version of the workload.

    It pays the process's first-touch costs (allocator growth, page faults,
    first file writes) so that every measured repetition starts warm.
    """
    small = replace(w, rounds=1, resume_after=1)
    workdir.mkdir()
    if w.cli_seeds:
        warm = build_inputs(small, tl, seed, workdir)
    else:
        warm = replace(inputs, cfg=replace(inputs.cfg, rounds=1), out_dir=workdir / "out")
    rep = run_rep(small, tl, warm)
    if rep.failures:
        raise RuntimeError(f"warm-up failed its checks: {rep.failures}")


def run_rep(w: Workload, tl, inputs: Inputs, tracer=None) -> Rep:
    """One experiment and its resume, checked; raises if the program fails outright."""
    shutil.rmtree(inputs.out_dir, ignore_errors=True)
    first_span = len(tracer.spans) if tracer else 0
    watches: list[RoundWatch] = []
    rep = _cli_rep if w.cli_seeds else _api_rep
    run_s, resume_s, first, second, failures = rep(w, tl, inputs, tracer, watches)

    failures += check_record(first, w) + check_record(second, w)
    if strip_column(first) != strip_column(second):
        failures.append("resumed record differs from the uninterrupted one")
    expected = [list(range(w.rounds + 1))] * w.runs
    expected += [list(range(w.resume_after + 1, w.rounds + 1))] * w.runs
    if [watch.rounds for watch in watches] != expected:
        failures.append(f"on_round saw rounds {[watch.rounds for watch in watches]}")
    failures += [f for watch in watches for f in watch.failures]

    files = [p for p in inputs.out_dir.rglob("*") if p.is_file()]
    disk_mb = sum(p.stat().st_size for p in files) / 1e6
    shutil.rmtree(inputs.out_dir)
    counts = {
        key: sum(getattr(watch, key) for watch in watches)
        for key in ("sgd_steps", "dense_macs", "kept_macs")
    }
    return Rep(
        traced=tracer is not None,
        run_s=run_s,
        resume_s=resume_s,
        disk_mb=disk_mb,
        digest=record_digest(first),
        failures=failures,
        counts=counts,
        spans=range(first_span, len(tracer.spans) if tracer else 0),
    )
