"""Experiment records, tables, and their CSV serialization.

One fixed schema covers every experiment record, one line per round:

    experiment_id, method, mode, seed, arch, fisher_batch_size,
    round, fraction_pruned, test_accuracy, best_accuracy, train_loss,
    weight_abs_dif, weight_avg_dif, backward_passes, seconds

The first six columns describe the experiment and repeat on each of its
rows; the rest are the fields of `RoundRow`, in order. `arch` is written
as `784-300-100-10`; `fisher_batch_size` is empty for strategies other
than Fisher. Floats are printed as the shortest text that parses back to
the same bits (`float.__repr__`); lines end with LF; identical runs
therefore produce byte-identical files (the seconds column, always last,
is the only non-deterministic content).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import DataFormatError, UsageError
from .nn import check_layer_sizes, parse_int


@dataclass(frozen=True)
class RoundRow:
    """One recorded round (or one-shot target)."""

    round: int
    fraction_pruned: float
    test_accuracy: float
    best_accuracy: float
    train_loss: float
    weight_abs_dif: float
    weight_avg_dif: float
    backward_passes: int
    seconds: float


@dataclass(eq=False)
class ExperimentRecord:
    """All rows of one experiment plus the metadata the figures need."""

    experiment_id: str
    method: str
    mode: str
    seed: int
    arch: tuple[int, ...]
    fisher_batch_size: Optional[int]
    rows: list[RoundRow]
    label: Optional[str] = None


_ROW_FIELDS = fields(RoundRow)
# Field types are annotation strings here (postponed evaluation of annotations).
_PARSE = {"int": int, "float": float}
_EXPERIMENT_COLUMNS = ("experiment_id", "method", "mode", "seed", "arch", "fisher_batch_size")
RECORD_COLUMNS = _EXPERIMENT_COLUMNS + tuple(f.name for f in _ROW_FIELDS)


@dataclass(frozen=True)
class Table:
    """Column names plus rows of plain Python values."""

    columns: tuple[str, ...]
    rows: Sequence[tuple]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise UsageError(
                    f"row has {len(row)} cells but table has {len(self.columns)} columns"
                )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        # Not repr(): numpy 2 spells repr(np.float64(x)) as "np.float64(x)".
        return float.__repr__(value)
    return str(value)


def render_csv(table: Table) -> str:
    """Serialize a table to CSV text (header row, LF newlines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def written_in_place(path) -> bool:
    """Whether `write_atomically` writes `path` directly: it exists and is no regular file."""
    return os.path.exists(path) and not os.path.isfile(path)


def write_atomically(path, chunks: Iterable) -> None:
    """Write byte chunks to `path`: a synced temporary file, then a rename.

    The temporary file (`.<name>.tmp`, matching neither `*.csv` nor
    `round_*.json`) is removed if the write fails, so an earlier file at
    `path` stays whole, and an OSError that names no file gets `path` as
    its file name. A symlink's target is replaced, not the link; a path
    that is no regular file (`/dev/stdout`, a pipe) is written directly.
    """
    if written_in_place(path):
        with open(path, "wb") as f:
            f.writelines(chunks)
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is None and exc.errno is not None:
            exc.filename = str(path)
        raise


def emit_csv(table: Table, path) -> None:
    """Write a table to `path` as UTF-8 CSV, atomically (see `write_atomically`).

    A failed write raises its OSError and leaves an earlier file at `path` whole.
    """
    write_atomically(path, [render_csv(table).encode("utf-8")])


def record_table(records: Iterable[ExperimentRecord]) -> Table:
    """Flatten ExperimentRecords into the fixed schema, one row per round."""
    rows = []
    for rec in records:
        head = (
            rec.experiment_id,
            rec.method,
            rec.mode,
            rec.seed,
            "-".join(map(str, rec.arch)),
            rec.fisher_batch_size,
        )
        for row in rec.rows:
            rows.append(head + tuple(getattr(row, f.name) for f in _ROW_FIELDS))
    return Table(RECORD_COLUMNS, rows)


def _parse_record(cells: list[str]) -> ExperimentRecord:
    experiment_id, method, mode, seed, arch, batch = cells
    return ExperimentRecord(
        experiment_id=experiment_id,
        method=method,
        mode=mode,
        seed=parse_int(seed, "seed"),
        arch=check_layer_sizes([parse_int(size, "arch layer size") for size in arch.split("-")]),
        fisher_batch_size=parse_int(batch, "fisher_batch_size", 1) if batch else None,
        rows=[],
    )


def read_records_csv(path) -> list[ExperimentRecord]:
    """Rebuild ExperimentRecords from a CSV in the fixed schema.

    Rows that share their first six cells form one record; records keep
    the order of their first rows. A file in any other schema, or with a
    cell that does not parse, raises DataFormatError.
    """
    records: dict[tuple, ExperimentRecord] = {}
    head = len(_EXPERIMENT_COLUMNS)
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_COLUMNS:
                raise DataFormatError(
                    f"{path}: expected header {','.join(RECORD_COLUMNS)}, got {header}"
                )
            for line in reader:
                if len(line) != len(RECORD_COLUMNS):
                    raise DataFormatError(f"{path}: row has {len(line)} cells")
                key = tuple(line[:head])
                if key not in records:
                    records[key] = _parse_record(line[:head])
                cells = zip(_ROW_FIELDS, line[head:])
                records[key].rows.append(RoundRow(*(_PARSE[f.type](c) for f, c in cells)))
    except (ValueError, UsageError) as exc:
        raise DataFormatError(f"{path}: malformed cell: {exc}") from exc
    return list(records.values())
