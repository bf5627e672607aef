import os
import struct
import threading
from dataclasses import astuple

import numpy as np
import pytest

from ticketlab import DataFormatError, Table, UsageError, emit_csv, read_records_csv, record_table
from ticketlab.results import RECORD_COLUMNS, render_csv

from test_metrics import make_record, row


class TestEmitCsv:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(Table(("a", "b"), []), path)
        assert path.read_text() == "a,b\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        values = [0.5, 0.1 + 0.2, 1 / 3, 1e-300, 123456.789]
        path = tmp_path / "f.csv"
        emit_csv(Table(("v",), [(v,) for v in values]), path)
        lines = path.read_text().splitlines()[1:]
        assert [float(line) for line in lines] == values

    def test_floats_written_as_shortest_round_trip_text(self):
        """float.__repr__ spelling, numpy floats included: 0.265, not 0.26500000000000001."""
        text = render_csv(Table(("v",), [(0.265,), (np.float64(0.265),), (0.1 + 0.2,), (1.0,)]))
        assert text == "v\n0.265\n0.265\n0.30000000000000004\n1.0\n"

    def test_identical_tables_byte_identical(self, tmp_path):
        table = Table(("x", "y"), [(1, 0.25), (2, 2 / 7)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, a)
        emit_csv(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        emit_csv(Table(("x",), [(1,), (2,)]), path)
        before = path.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left on device") as exc:
            emit_csv(Table(("x",), [(3,), (4,)]), path)
        assert str(path) in str(exc.value)  # fsync names no file; the target is set
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]

    def test_symlink_kept_and_its_target_replaced(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        emit_csv(Table(("x",), [(1,)]), link)
        assert link.is_symlink() and target.read_text() == "x\n1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_pipe_written_not_replaced(self, tmp_path):
        """A path that is no regular file, as `report --out /dev/stdout` gives, is written to."""
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        emit_csv(Table(("x",), [(1,)]), pipe)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"x\n1\n"]
        assert pipe.is_fifo()

    def test_lf_newlines(self):
        text = render_csv(Table(("x",), [(1,), (2,)]))
        assert "\r" not in text
        assert text.endswith("\n")

    def test_row_width_validated(self):
        with pytest.raises(UsageError):
            Table(("a", "b"), [(1,)])


def float_bits(record):
    """Each round's cells, floats as their IEEE-754 bytes (so -0.0 differs from 0.0)."""
    return [
        struct.pack("<d", v) if isinstance(v, float) else v
        for r in record.rows
        for v in astuple(r)
    ]


class TestRecordRoundTrip:
    def test_schema(self):
        """Six experiment columns, then the RoundRow fields with `seconds` last."""
        table = record_table([make_record([row(0, 0.0, 0.9)])])
        assert table.columns == RECORD_COLUMNS
        assert RECORD_COLUMNS[:7] == (
            "experiment_id", "method", "mode", "seed", "arch", "fisher_batch_size", "round"
        )
        assert RECORD_COLUMNS[-1] == "seconds"

    def test_records_survive_csv_round_trip(self, tmp_path):
        """Every field survives, arch and fisher_batch_size too, and floats come back bit-equal."""
        awkward = [0.1 + 0.2, 1 / 3, 5e-324, -0.0, 1e300, np.float64(0.265), np.float64(2 / 7)]
        records = [
            make_record([row(0, 0.0, 0.9), row(1, 0.2, 0.88)], seed=0,
                        method="fisher", arch=(784, 300, 100, 10), batch=100),
            make_record([row(r, f, f, movement=f) for r, f in enumerate(awkward)], seed=1,
                        method="random"),
        ]
        path = tmp_path / "records.csv"
        emit_csv(record_table(records), path)
        assert ",fisher,iterative,0,784-300-100-10,100,0," in path.read_text()
        back = read_records_csv(path)
        assert len(back) == 2
        for orig, loaded in zip(records, back):
            assert loaded.experiment_id == orig.experiment_id
            assert loaded.method == orig.method
            assert loaded.mode == orig.mode
            assert loaded.seed == orig.seed
            assert loaded.arch == orig.arch
            assert loaded.fisher_batch_size == orig.fisher_batch_size
            assert loaded.rows == orig.rows
            assert float_bits(loaded) == float_bits(orig)
        assert back[1].fisher_batch_size is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(DataFormatError):
            read_records_csv(path)
