"""Lottery-ticket pruning laboratory.

Train small dense classifiers, prune them globally (random, L1 magnitude,
Fisher, batched Fisher), rewind kept weights to their initialization, and
retrain, recording accuracy-vs-sparsity curves, weight movement,
connectivity, and backward-pass counts along the way. Everything is
seeded and bit-reproducible.
"""

from .errors import (
    DataFormatError,
    NumericalError,
    ShapeError,
    TicketLabError,
    UsageError,
)
from .nn import (
    Dataset,
    DenseNetwork,
    TrainConfig,
    check_layer_sizes,
    evaluate,
    forward,
    init_network,
    loss_and_grads,
    sgd_step,
    train,
)
from .masks import (
    LayerSparsity,
    PruneMask,
    SparsityReport,
    apply_mask,
    full_mask,
    rewind,
    sparsity,
)
from .strategies import (
    FisherConfig,
    global_prune,
    removal_count,
    score_fisher,
    score_l1,
    score_random,
)
from .lottery import LotteryConfig, run_iterative, run_one_shot
from .metrics import (
    ConnectivityReport,
    MovementReport,
    connectivity_report,
    figure_data,
    weight_movement,
)
from .data import gen_synthetic, load_idx, write_idx
from .results import (
    ExperimentRecord,
    RoundRow,
    Table,
    emit_csv,
    read_records_csv,
    record_table,
)
from .checkpoint import CheckpointState, config_hash, load_checkpoint, save_checkpoint
from .config import ExperimentSpec, build_datasets, load_spec, seed_configs

__version__ = "0.1.0"

__all__ = [
    "CheckpointState",
    "ConnectivityReport",
    "DataFormatError",
    "Dataset",
    "DenseNetwork",
    "ExperimentRecord",
    "ExperimentSpec",
    "FisherConfig",
    "LayerSparsity",
    "LotteryConfig",
    "MovementReport",
    "NumericalError",
    "PruneMask",
    "RoundRow",
    "ShapeError",
    "SparsityReport",
    "Table",
    "TicketLabError",
    "TrainConfig",
    "UsageError",
    "apply_mask",
    "build_datasets",
    "check_layer_sizes",
    "config_hash",
    "connectivity_report",
    "emit_csv",
    "evaluate",
    "figure_data",
    "forward",
    "full_mask",
    "gen_synthetic",
    "global_prune",
    "init_network",
    "load_checkpoint",
    "load_idx",
    "load_spec",
    "loss_and_grads",
    "read_records_csv",
    "record_table",
    "removal_count",
    "rewind",
    "run_iterative",
    "run_one_shot",
    "save_checkpoint",
    "score_fisher",
    "score_l1",
    "score_random",
    "seed_configs",
    "sgd_step",
    "sparsity",
    "train",
    "weight_movement",
    "write_idx",
]
