"""ticketlab benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload lenet-l1-sweep --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from `--seed`, warms the process up with an
untimed 1-round version of the workload, then repeats the workload (one
experiment, a simulated crash and a resume, each repetition starting when
the previous one ends) at least twice and for about `--seconds`,
checking every repetition's output. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` the first repetition runs untraced
and the rest run with every layer's public functions wrapped in timing
spans, and it reports per-layer self times and computed work counts. BLAS keeps the machine's
default thread count, which the environment line records. The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, self_times, to_json, totals_by_name  # noqa: E402
from workloads import WORKLOADS, build_inputs, run_rep, segment, warm_up  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("lottery", "nn", "strategies", "masks", "metrics", "checkpoint", "config", "data",
           "results", "cli", "rng")
# Set-up repeats at least 10 times and until 5 s is spent, up to 50 times.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 10, 5.0, 50

END_TO_END = (
    ("run_s", "s"),  # one complete experiment as the user invokes it
    ("resume_s", "s"),  # finishing it from the checkpoint a crash left behind
    ("setup_s", "s"),  # importing ticketlab and building the workload inputs
    ("peak_rss_mb", "MB"),  # resident memory while the measured repetitions run
    ("disk_mb", "MB"),  # bytes the run leaves in its output directory, 10^6 per MB
)

# name, unit, better, the end-to-end metric it should move, and on which workload.
LAYER_METRICS = (
    ("nn.train_s", "s", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.train_s.kept-lt-10pct", "s", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.evaluate_s", "s", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.train_step_us", "us", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.sgd_steps", "count", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.dense_macs", "count", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.kept_macs", "count", "lower", "run_s", "lenet-l1-sweep"),
    ("nn.useful_mac_ratio", "fraction", "higher", "run_s", "lenet-l1-sweep"),
    ("strategies.score_s", "s", "lower", "run_s", "lenet-fisher-persample"),
    ("strategies.backward_passes", "count", "lower", "run_s", "lenet-fisher-persample"),
    ("strategies.score_us_per_pass", "us", "lower", "run_s", "lenet-fisher-persample"),
    ("strategies.prune_s", "s", "lower", "run_s", "lenet-l1-sweep"),
    ("masks.rewind_s", "s", "lower", "run_s", "all"),
    ("metrics.movement_s", "s", "lower", "run_s", "all"),
    ("lottery.self_s", "s", "lower", "run_s", "all"),
    ("checkpoint.save_s", "s", "lower", "run_s", "cli-checkpoint-resume"),
    ("checkpoint.saves", "count", "lower", "run_s disk_mb", "cli-checkpoint-resume"),
    ("checkpoint.bytes_per_save", "bytes", "lower", "disk_mb", "cli-checkpoint-resume"),
    ("checkpoint.load_s", "s", "lower", "resume_s", "cli-checkpoint-resume"),
    ("config.load_spec_s", "s", "lower", "run_s resume_s", "cli-checkpoint-resume"),
    ("config.build_datasets_s", "s", "lower", "run_s resume_s", "cli-checkpoint-resume"),
    ("results.emit_csv_s", "s", "lower", "run_s", "cli-checkpoint-resume"),
    ("cli.self_s", "s", "lower", "run_s", "cli-checkpoint-resume"),
    ("data.gen_synthetic_s", "s", "lower", "setup_s", "lenet-l1-sweep lenet-fisher-persample"),
    ("trace.overhead_frac", "fraction", "lower", "none", "all"),
    ("trace.unattributed_s", "s", "lower", "none", "all"),
)
# Work counts computed from shapes, masks, file sizes and the program's own
# pass counter, not timed: they repeat exactly for a given program and seed.
COMPUTED = {"nn.sgd_steps", "nn.dense_macs", "nn.kept_macs", "nn.useful_mac_ratio",
            "strategies.backward_passes", "checkpoint.saves", "checkpoint.bytes_per_save"}

# Self-time metrics: the span names (`<module>.<function>`) whose self times each sums.
SELF_TIME = {
    "nn.train_s": ("nn.train",),
    "nn.evaluate_s": ("nn.evaluate",),
    "strategies.score_s": ("strategies.score_l1", "strategies.score_random",
                           "strategies.score_fisher"),
    "strategies.prune_s": ("strategies.global_prune",),
    "masks.rewind_s": ("masks.rewind", "masks.apply_mask"),
    "metrics.movement_s": ("metrics.weight_movement",),
    "lottery.self_s": ("lottery.run_iterative",),
    "checkpoint.save_s": ("checkpoint.save_round", "checkpoint.save_checkpoint"),
    "checkpoint.load_s": ("checkpoint.load_checkpoint", "checkpoint.latest_round_path"),
    "config.load_spec_s": ("config.load_spec",),
    "config.build_datasets_s": ("config.build_datasets",),
    "results.emit_csv_s": ("results.emit_csv",),
    "cli.self_s": ("cli.main",),
    "data.gen_synthetic_s": ("data.gen_synthetic",),
}
CLAIMED = {name for names in SELF_TIME.values() for name in names}


def load_program(src: Path) -> SimpleNamespace:
    """A fresh import of ticketlab from `src`, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "ticketlab" or m.startswith("ticketlab.")]:
        del sys.modules[name]
    importlib.import_module("ticketlab.cli")
    package = Path(sys.modules["ticketlab"].__file__).resolve()
    if src.resolve() not in package.parents:
        raise ImportError(f"ticketlab was imported from {package}, not from {src}")
    return SimpleNamespace(**{name: sys.modules[f"ticketlab.{name}"] for name in MODULES})


class PeakRss:
    """Peak resident memory while the block runs, sampled every 10 ms.

    Read from /proc/self/statm by a thread of its own, so that the memory
    set-up used and freed before the block does not count.
    """

    INTERVAL = 0.01

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        resident = int(os.pread(self._fd, 64, 0).split()[1])
        self.peak_mb = max(self.peak_mb, resident * self._page_mb)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        os.close(self._fd)


def blas_threads(np):
    """OpenBLAS's effective thread count, read from the library numpy bundles."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_rev(root: Path):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(w, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ticketlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(ROOT),
        "source_sha256": sources.hexdigest(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values themselves, without extrapolating past them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def setup(w, seed: int, workdir: Path, tracer):
    """Import plus input building, timed repeatedly; then once traced if tracing."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        inputs = None  # peak_rss_mb should not count two input sets at once
        start = time.perf_counter()
        tl = load_program(ROOT / "src")
        inputs = build_inputs(w, tl, seed, workdir)
        times.append(time.perf_counter() - start)
    if tracer is not None:
        inputs = None
        tl = load_program(ROOT / "src")
        with segment(tracer, "bench.setup", tl):
            inputs = build_inputs(w, tl, seed, workdir)
    return tl, inputs, times


def layer_values(tracer: Tracer, own: list[float], rep, setup_spans: range) -> dict:
    spans = tracer.spans
    totals = totals_by_name(spans, own, list(rep.spans) + list(setup_spans))
    values = {m: sum(totals.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    # The benchmark's own spans and the small calls no metric claims.
    values["trace.unattributed_s"] = sum(
        own[i] for i in rep.spans if spans[i].name not in CLAIMED
    )
    trains = [i for i in rep.spans if spans[i].name == "nn.train"]
    values["nn.train_s.kept-lt-10pct"] = sum(
        own[i] for i in trains if spans[i].notes["kept_fraction"] < 0.1
    )
    steps = rep.counts["sgd_steps"]
    values["nn.sgd_steps"] = steps
    values["nn.train_step_us"] = values["nn.train_s"] / steps * 1e6
    values["nn.dense_macs"] = rep.counts["dense_macs"]
    values["nn.kept_macs"] = rep.counts["kept_macs"]
    values["nn.useful_mac_ratio"] = rep.counts["kept_macs"] / rep.counts["dense_macs"]
    passes = sum(spans[i].notes.get("passes", 0) for i in rep.spans)
    values["strategies.backward_passes"] = passes
    values["strategies.score_us_per_pass"] = (
        values["strategies.score_s"] / passes * 1e6 if passes else 0.0
    )
    saved = [spans[i].notes["bytes"] for i in rep.spans if "bytes" in spans[i].notes]
    values["checkpoint.saves"] = len(saved)
    values["checkpoint.bytes_per_save"] = statistics.mean(saved) if saved else 0.0
    return values


def unrecorded(tracer: Tracer, rep, setup_spans: range, workload: str) -> list[str]:
    """Self-time metrics meant for this workload that no span fed in this repetition.

    A renamed or re-routed function would otherwise read 0 and move its
    time into its caller's self time without a sign.
    """
    seen = {tracer.spans[i].name for i in [*rep.spans, *setup_spans]}
    meant = {name for name, *_, on in LAYER_METRICS if on == "all" or workload in on.split()}
    return [m for m, names in SELF_TIME.items() if m in meant and not seen.intersection(names)]


def note_kept_fractions(tracer: Tracer, rep) -> None:
    """Replace the mask each `nn.train` span noted by the fraction of weights it keeps."""
    for i in rep.spans:
        span = tracer.spans[i]
        if span.name == "nn.train":
            layers = span.notes.pop("mask").layers
            kept = sum(int((m != 0).sum()) for m in layers)
            span.notes["kept_fraction"] = kept / sum(m.size for m in layers)


def report_layers(tracer, reps, setup_spans, untraced_run_s, w, seed, env) -> dict:
    own = self_times(tracer.spans)
    per_rep = []
    for rep in reps:
        note_kept_fractions(tracer, rep)
        per_rep.append(layer_values(tracer, own, rep, setup_spans))
    traced_run_s = statistics.median(rep.run_s for rep in reps)
    # Computed counts repeat exactly; median_low keeps them whole numbers.
    values = {
        name: (statistics.median_low if name in COMPUTED else statistics.median)(
            v[name] for v in per_rep
        )
        for name in per_rep[0]
    }
    values["trace.overhead_frac"] = traced_run_s / untraced_run_s - 1

    traced_total = statistics.median(rep.run_s + rep.resume_s for rep in reps)
    shares = sorted(
        (
            (values[m] / traced_total, m)
            for m in [*SELF_TIME, "trace.unattributed_s"]
            if m != "data.gen_synthetic_s"
        ),
        reverse=True,
    )
    print("self-time shares of a traced run + resume: "
          + ", ".join(f"{m} {share:.1%}" for share, m in shares if share >= 0.005))
    for name, unit, _, moves, workload in LAYER_METRICS:
        kind = "computed" if name in COMPUTED else "measured"
        print(f"{name:28s} {values[name]:>16.6g} {unit:8s} {kind}, moves {moves} on {workload}")

    out = ROOT / ".perfbench" / f"trace-{w.name}-seed{seed}.json"
    trace = {"env": env, "per_rep": per_rep, "spans": to_json(tracer.spans, own)}
    out.write_text(json.dumps(trace))
    print(f"spans written to {out.relative_to(ROOT)}")
    return values


def report_end_to_end(reps, setup_times, peak_rss_mb: float) -> dict:
    values = {
        "run_s": [rep.run_s for rep in reps],
        "resume_s": [rep.resume_s for rep in reps],
        "setup_s": setup_times,
        "disk_mb": [rep.disk_mb for rep in reps],
    }
    result = {name: statistics.median(v) for name, v in values.items()}
    result["peak_rss_mb"] = peak_rss_mb
    for name, unit in END_TO_END:
        if name in values:
            q1, median, q3 = quartiles(values[name])
            n = len(values[name])
            print(f"{name:12s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n {n} {unit}")
        else:
            print(f"{name:12s} {result[name]:.6g} {unit}")
    return result


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    tracer = Tracer() if trace else None
    tl, inputs, setup_times = setup(w, seed, workdir, tracer)
    setup_spans = range(len(tracer.spans) if tracer else 0)
    env = environment(w, seed)
    print("env " + json.dumps(env))

    start = time.perf_counter()
    warm_up(w, tl, inputs, seed, workdir / "warm-up")
    print(f"warm-up {time.perf_counter() - start:.3g} s, not measured")

    reps, errors = [], 0
    start = time.perf_counter()
    with PeakRss() as rss:
        while True:
            traced = tracer is not None and len(reps) + errors > 0
            try:
                reps.append(run_rep(w, tl, inputs, tracer if traced else None))
            except Exception:
                traceback.print_exc()
                errors += 1
                if not reps:
                    break  # the program fails outright; repeating it measures nothing
            attempts = len(reps) + errors
            elapsed = time.perf_counter() - start
            # At least two repetitions, so that one slowed by a busy machine
            # is not the whole measurement (and a traced run has an untraced
            # one). Then stop where the measured time ends nearest to
            # `seconds`: one more repetition would overshoot by more than
            # stopping undershoots.
            if attempts >= 2 and elapsed + elapsed / attempts / 2 >= seconds:
                break

    for rep in reps:
        if rep.traced:
            rep.failures += [f"traced repetition recorded no span for {metric}"
                             for metric in unrecorded(tracer, rep, setup_spans, w.name)]
        if rep.digest != reps[0].digest:
            rep.failures.append("record digest differs from the first repetition's")
        for failure in rep.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    failed = errors + sum(1 for rep in reps if rep.failures)
    attempted = errors + len(reps)
    print(f"workload {w.name} seed {seed}: {attempted} repetitions, "
          f"{sum(r.traced for r in reps)} traced, closed loop, 1 client")
    if reps:
        print(f"record digest {reps[0].digest}")
    print(f"error_rate   {failed / attempted:.6g} fraction ({failed} of {attempted})")

    untraced = [rep for rep in reps if not rep.traced]
    traced = [rep for rep in reps if rep.traced]
    if not untraced or (trace and not traced):
        return 1
    if trace:
        untraced_run_s = statistics.median(rep.run_s for rep in untraced)
        values = report_layers(tracer, traced, setup_spans, untraced_run_s, w, seed, env)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        values = report_end_to_end(untraced, setup_times, rss.peak_mb)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ticketlab" / "__init__.py").is_file():
        print(f"perfbench: no ticketlab sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
