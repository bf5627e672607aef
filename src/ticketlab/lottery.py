"""One-shot and iterative winning-ticket experiments.

Iterative mode repeats train -> score -> prune -> rewind-to-init ->
retrain, compounding the per-round pruning fraction; the last round's
retraining uses the dedicated final schedule and its best epoch is the
headline result. One-shot mode trains the dense network once, then prunes
each requested target fraction in a single step from that same trained
network, rewinds, and retrains. Both modes run the same round loop, so
both write per-round checkpoints and resume from them.

Before round 0 the training rows get one seeded presentation order (from
`data_seed`). Every round trains through it as an index into the caller's
dataset (`train(..., rows=order)`), so a run holds a single copy of its
training set. The Fisher scorer reads its set, the first `sample_count`
rows of that order, through the same index (`score_fisher(..., rows=order)`).

Every round records sparsity, final-epoch and best-epoch test accuracy,
train loss, movement relative to the round-0 trained baseline, Fisher
backward-pass counts, and wall-clock seconds; row 1 of a one-shot record
(after a resume, its first new row) also times the sweep's one scoring
pass. Identical configs (and datasets) reproduce identical records apart
from the seconds column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import NumericalError, TicketLabError, UsageError
from . import checkpoint as ckpt
from . import rng
from .masks import PruneMask, apply_mask, full_mask, rewind, sparsity
from .metrics import MovementReport, weight_movement
from .nn import Dataset, DenseNetwork, TrainConfig, check_int_fields, check_layer_sizes
from .nn import init_network, is_number, train
from .results import ExperimentRecord, RoundRow
from .strategies import FisherConfig, global_prune, score_fisher, score_l1, score_random

STRATEGIES = ("random", "l1", "fisher")
MODES = ("one_shot", "iterative")

# Stream tag for the one-time presentation order of the training rows.
_DATA_STREAM = 6


@dataclass(frozen=True)
class LotteryConfig:
    """Everything needed to reproduce one experiment bit-for-bit.

    An omitted `final_train` is `train`; an omitted `experiment_id` is
    `<strategy>-<mode>` (the record's seed column tells seeds apart).
    A config holds only what its run reads: the fisher strategy requires
    `fisher` and the others refuse it; one-shot mode requires
    `one_shot_targets` (numbers in [0, 1], kept sorted), iterative mode
    refuses it, and only iterative mode reads `rounds` and `per_round_fraction`.
    """

    arch: tuple[int, ...]
    strategy: str
    mode: str
    per_round_fraction: float = 0.2
    rounds: int = 10
    init_seed: int = 0
    data_seed: int = 0
    strategy_seed: int = 0
    train: TrainConfig = TrainConfig()
    final_train: Optional[TrainConfig] = None
    fisher: Optional[FisherConfig] = None
    one_shot_targets: Optional[tuple[float, ...]] = None
    experiment_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "arch", check_layer_sizes(self.arch))
        check_int_fields(self, rounds=1, init_seed=None, data_seed=None, strategy_seed=None)
        if self.final_train is None:
            object.__setattr__(self, "final_train", self.train)
        if self.strategy not in STRATEGIES:
            raise UsageError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (is_number(self.per_round_fraction) and 0.0 < self.per_round_fraction < 1.0):
            raise UsageError(
                f"per_round_fraction must be a number in (0, 1), got {self.per_round_fraction!r}"
            )
        if (self.fisher is None) == (self.strategy == "fisher"):
            raise UsageError("fisher is read only by the fisher strategy, which needs it; "
                             f"got strategy {self.strategy!r} with fisher={self.fisher!r}")
        targets = self.one_shot_targets
        if (targets is None) == (self.mode == "one_shot"):
            raise UsageError("one_shot_targets is read only in one_shot mode, which needs them; "
                             f"got mode {self.mode!r} with one_shot_targets={targets!r}")
        if targets is not None:
            if not (isinstance(targets, list | tuple) and targets and all(map(is_number, targets))):
                raise UsageError(f"one_shot_targets must be a list of numbers, got {targets!r}")
            targets = tuple(sorted(float(t) for t in targets))
            if any(not 0.0 <= t <= 1.0 for t in targets):
                raise UsageError(f"one_shot_targets must lie in [0, 1], got {targets}")
            object.__setattr__(self, "one_shot_targets", targets)
        if not self.experiment_id:
            object.__setattr__(self, "experiment_id", f"{self.strategy}-{self.mode}")


if TYPE_CHECKING:
    # Not made at run time: typing caches the subscription, and with it these
    # classes and every module they reach, across re-imports of the package.
    RoundHook = Callable[[int, PruneMask, DenseNetwork, DenseNetwork], None]


def _ensure_finite(net: DenseNetwork, context: str) -> None:
    if not net.all_finite():
        raise NumericalError(f"non-finite weights after {context}; aborting experiment")


def _compute_scores(
    cfg: LotteryConfig,
    trained: DenseNetwork,
    mask: PruneMask,
    train_data: Dataset,
    order: np.ndarray,
    round_index: int,
) -> tuple[list[np.ndarray], int]:
    """Dispatch to the configured scorer; returns (scores, backward passes)."""
    if cfg.strategy == "random":
        # A fresh seed each round; reusing one would re-rank the same draws.
        return score_random(mask, cfg.strategy_seed + round_index), 0
    if cfg.strategy == "l1":
        return score_l1(trained, mask), 0
    return score_fisher(trained, mask, train_data, cfg.fisher, rows=order)


def _prune_step(mask: PruneMask, scores: list[np.ndarray], fraction: float) -> PruneMask:
    """Globally prune and verify the kept-set only ever shrinks."""
    new_mask = global_prune(mask, scores, fraction)
    for l, (old, new) in enumerate(zip(mask.layers, new_mask.layers)):
        if np.any(new > old):
            raise TicketLabError(f"mask monotonicity violated at layer {l}")
    return new_mask


def _round_row(
    round_index: int,
    mask: PruneMask,
    history: list[tuple[float, float]],
    baseline: DenseNetwork,
    trained: DenseNetwork,
    backward_passes: int,
    seconds: float,
) -> RoundRow:
    if mask.kept_count() == 0:
        # Everything pruned: the movement sum is empty and the average undefined.
        movement = MovementReport(0.0, 0.0, 0)
    else:
        movement = weight_movement(baseline, trained, mask)
    return RoundRow(
        round=round_index,
        fraction_pruned=sparsity(mask).fraction_pruned,
        test_accuracy=history[-1][1],
        best_accuracy=max(acc for _, acc in history),
        train_loss=history[-1][0],
        weight_abs_dif=movement.weight_abs_dif,
        weight_avg_dif=movement.weight_avg_dif,
        backward_passes=backward_passes,
        seconds=seconds,
    )


def _run_rounds(
    cfg: LotteryConfig,
    train_data: Dataset,
    test_data: Dataset,
    checkpoint_dir,
    resume_from,
    on_round: Optional[RoundHook],
    stop: Optional[int] = None,
) -> ExperimentRecord:
    """The round loop of both modes; round 0 trains the dense network; `stop` ends it early."""
    if cfg.fisher is not None and cfg.fisher.sample_count > len(train_data):
        raise UsageError(
            f"fisher sample_count {cfg.fisher.sample_count} exceeds the "
            f"{len(train_data)} available training rows"
        )
    # The presentation order: every round trains through it, and its first rows are the Fisher set.
    order = rng.permutation(rng.derive(cfg.data_seed, _DATA_STREAM), len(train_data))
    one_shot = cfg.mode == "one_shot"
    last = len(cfg.one_shot_targets) if one_shot else cfg.rounds

    if resume_from is not None:
        state = resume_from
        if not isinstance(state, ckpt.RunState):
            state = ckpt.load_run_state(resume_from, cfg)
        initial, baseline = state.initial, state.baseline
        mask, trained = state.mask, state.trained
        rows = list(state.rows)
        first_round = state.round_index + 1
        # load_run_state has checked these against cfg and the regenerated `initial`.
        run = dict(arch=state.arch, config_hash=state.config_hash,
                   initial_sha256=state.initial_sha256)
        # Let go once unpacked: unless a caller holds it, its network and mask go at the prune.
        state = resume_from = None
    else:
        initial = init_network(cfg.arch, cfg.init_seed)
        rows = []
        first_round = 0
        run = ckpt.run_fields(cfg, initial) if checkpoint_dir is not None else None

    scores = None
    for r in range(first_round, (last if stop is None else stop) + 1):
        start = time.perf_counter()
        if r == 0:
            mask, passes = full_mask(cfg.arch), 0
            start_net = apply_mask(initial, mask)
        else:
            if one_shot:
                # Every target prunes the dense round's network, scored once as round 1.
                trained, mask = baseline, full_mask(cfg.arch)
            if scores is None:
                scores, passes = _compute_scores(
                    cfg, trained, mask, train_data, order, 1 if one_shot else r
                )
            fraction = cfg.one_shot_targets[r - 1] if one_shot else cfg.per_round_fraction
            mask = _prune_step(mask, scores, fraction)
            # Nothing after this reads them: they are not held while the round rewinds and trains.
            trained = None
            if not one_shot:
                scores = None
            start_net = rewind(initial, mask)
        schedule = cfg.final_train if r == last or (one_shot and r > 0) else cfg.train
        trained, history = train(
            start_net, mask, train_data, schedule, eval_data=test_data, rows=order
        )
        _ensure_finite(trained, f"round {r} training")
        if r == 0:
            baseline = trained
        rows.append(
            _round_row(r, mask, history, baseline, trained, passes, time.perf_counter() - start)
        )
        if on_round is not None:
            on_round(r, mask, start_net, trained)
        if checkpoint_dir is not None:
            ckpt.save_round(checkpoint_dir, cfg, r, initial, baseline, mask, trained, rows, run)

    return ExperimentRecord(
        experiment_id=cfg.experiment_id,
        method=cfg.strategy,
        mode=cfg.mode,
        seed=cfg.init_seed,
        arch=cfg.arch,
        fisher_batch_size=None if cfg.fisher is None else cfg.fisher.fisher_batch_size,
        rows=rows,
    )


def run_iterative(
    cfg: LotteryConfig,
    train_data: Dataset,
    test_data: Dataset,
    checkpoint_dir=None,
    resume_from=None,
    on_round: Optional[RoundHook] = None,
) -> ExperimentRecord:
    """Run (or resume) an iterative pruning experiment.

    Round 0 trains the dense network and becomes the movement baseline;
    each later round scores the previous round's trained network, prunes
    the per-round fraction globally, rewinds kept weights to their
    round-0 initialization, and retrains (the last round with the
    final-training schedule). `on_round(index, mask, start_net, trained)`
    fires after every round. With `checkpoint_dir`, a checkpoint is
    written per round; `resume_from`, a round file's path, continues from
    it bit-identically to an uninterrupted run. It is read by
    `load_run_state(resume_from, cfg)`, which regenerates the iteration-0
    network from `cfg`, takes the baseline from `round_000.json` beside
    the file, and raises DataFormatError when either file belongs to
    another run (another config hash, arch or iteration-0 network).
    `resume_from` may also be the RunState it returned for `cfg`.
    """
    if cfg.mode != "iterative":
        raise UsageError(f"run_iterative needs mode='iterative', got {cfg.mode!r}")
    return _run_rounds(cfg, train_data, test_data, checkpoint_dir, resume_from, on_round)


def run_one_shot(
    cfg: LotteryConfig,
    train_data: Dataset,
    test_data: Dataset,
    checkpoint_dir=None,
    resume_from=None,
    on_round: Optional[RoundHook] = None,
) -> ExperimentRecord:
    """Run (or resume) a one-shot pruning sweep.

    The dense network is trained exactly once; every target fraction is
    pruned in a single step from that same trained network (scored once,
    since scores do not depend on the fraction), rewound, and retrained
    with the final-training schedule. Targets are processed in ascending
    order, one row each after the round-0 baseline row. `on_round`,
    `checkpoint_dir` and `resume_from` work as in `run_iterative`, with
    one round per target; a resumed run scores the baseline again.
    """
    if cfg.mode != "one_shot":
        raise UsageError(f"run_one_shot needs mode='one_shot', got {cfg.mode!r}")
    return _run_rounds(cfg, train_data, test_data, checkpoint_dir, resume_from, on_round)


def replay_round(
    cfg: LotteryConfig, train_data: Dataset, test_data: Dataset, previous=None
) -> tuple[RoundRow, PruneMask, DenseNetwork]:
    """The row, mask and trained network of the round after `previous` (the RunState
    of a round file of a run of `cfg`; round 0 without it), run again as a resume
    from it would, writing no checkpoint."""
    replayed = []
    record = _run_rounds(cfg, train_data, test_data, None, previous,
                         lambda r, mask, start_net, trained: replayed.extend((mask, trained)),
                         stop=0 if previous is None else previous.round_index + 1)
    return record.rows[-1], *replayed
