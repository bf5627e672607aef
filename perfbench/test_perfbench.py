"""Self-test of the benchmark's own code: `python3 -m pytest perfbench -q`."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from spans import Span, Tracer, self_times, totals_by_name
from workloads import WORKLOADS, Rep, Workload, check_record, record_digest

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("a", 6.0, 7.0, parent=2),
    ]
    own = self_times(spans)
    assert own == [3.0, 3.0, 3.0, 1.0]
    assert totals_by_name(spans, own, range(4)) == {"root": 3.0, "a": 4.0, "b": 3.0}
    assert sum(own) == spans[0].end - spans[0].start


def inner(x):
    return x + 1


def outer(x):
    return program.inner(x) * 2


program = SimpleNamespace(inner=inner, outer=outer)


def test_patched_records_nested_spans_and_restores():
    tracer = Tracer()
    notes = {"test_perfbench.inner": lambda args, kwargs, result: {"arg": args[0]}}
    with tracer.patched([(program, "outer"), (program, "inner")], notes):
        with tracer.span("bench.run"):
            assert program.outer(3) == 8
    assert program.outer is outer and program.inner is inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("bench.run", -1), ("test_perfbench.outer", 0), ("test_perfbench.inner", 1)]
    assert tracer.spans[2].notes == {"arg": 3}
    assert all(s.start <= s.end for s in tracer.spans)


def test_unrecorded_names_the_metrics_of_this_workload_without_spans():
    tracer = Tracer()
    for name in ["bench.run", "nn.train", "strategies.score_l1"]:
        with tracer.span(name):
            pass
    rep = Rep(True, 1.0, 1.0, 0.0, "", [], {}, range(3))
    missing = run.unrecorded(tracer, rep, range(0), "lenet-l1-sweep")
    assert "nn.train_s" not in missing and "strategies.score_s" not in missing
    assert "masks.rewind_s" in missing  # meant for every workload
    assert "data.gen_synthetic_s" in missing  # meant for both LeNet workloads
    assert "checkpoint.save_s" not in missing  # meant for the CLI workload only
    cli = run.unrecorded(tracer, rep, range(0), "cli-checkpoint-resume")
    assert "checkpoint.save_s" in cli and "data.gen_synthetic_s" not in cli


def test_peak_rss_sees_memory_allocated_inside_the_block():
    with run.PeakRss() as rss:
        block = bytearray(64 * 2**20)
        block[:: 4096] = b"x" * len(block[:: 4096])
        del block
    assert rss.peak_mb >= 64


def test_digest_ignores_only_the_seconds_column():
    csv = "round,fraction_pruned,seconds,backward_passes\n0,0.0,{s},0\n1,0.2,{s},0\n"
    a, b = record_digest(csv.format(s="0.5")), record_digest(csv.format(s="1.25"))
    assert a == b and re.fullmatch(r"[0-9a-f]{64}", a)
    assert record_digest(csv.format(s="0.5").replace("0.2", "0.3")) != a


def test_check_record_flags_wrong_sparsity_and_passes():
    w = Workload("t", "why", "fisher", rounds=1, resume_after=0, per_class=1, test_per_class=1,
                 arch=(10, 10), fisher=(4, 2))
    good = "round,fraction_pruned,backward_passes,seconds\n0,0.0,0,1.0\n1,0.2,2,1.0\n"
    assert check_record(good, w) == []
    assert len(check_record(good.replace("1,0.2,2", "1,0.3,3"), w)) == 2
    assert len(check_record(good.splitlines()[0] + "\n", w)) == 1


def test_benchmark_json_describes_this_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        m[:3] for m in run.LAYER_METRICS
    ]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[group]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer_names = {m[0] for m in run.LAYER_METRICS}
    assert set(run.SELF_TIME) <= layer_names and run.COMPUTED <= layer_names


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    return replace(
        w,
        arch=(16, 12, 8, 4),
        per_class=20,
        test_per_class=5,
        rounds=min(w.rounds, 4),
        resume_after=min(w.resume_after, 2),
        fisher=(40, 1) if w.fisher else None,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace, capsys, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, workload, smoke(WORKLOADS[workload]))
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
