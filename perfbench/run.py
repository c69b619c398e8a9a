"""Pipeline benchmark for pufsim.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; pufsim is imported from ./src.
Each workload is a closed loop with one client in one process: the next
operation starts only when the previous one has finished, until S seconds
have passed (at least one operation always runs).

Workloads (inputs generated from --seed, see workloads.py):

  sim-population  the paper-sim preset shape, 10000 devices x 64 cells:
                  per-row stream setup, the O(d^2) pairwise pass and a
                  10 MB population snapshot dominate.
  board-repeat    1000 devices x 1024 cells in the d2 placement with 8
                  biased positions, 5-trial sessions, a 2-thread readout
                  pool, per-bit CSV and a 1000-sequence battery.
  battery         passes of unbiased 1e5-bit sequences through
                  run_suite one by one, then aggregate_suite; no pipeline,
                  readout or file I/O.

An operation is one `pufsim run` (through pufsim.cli.main, in process, on
a config written by the set-up step) or one battery sequence. It fails
if it raises, ends with a manifest status other than "complete", or fails
an output check (workloads.py).

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json:

  setup_s           median over 8 fresh processes (half before, half
                    after the operations) of the time to import pufsim
                    and build, validate and write the config
  latency_ms        mean wall time of one operation: a pipeline run, or
                    one sequence's run_suite call on battery
  throughput_per_s  operations completed per second of the operations'
                    summed wall time: pipeline runs, or battery sequences
                    with their generation and aggregate_suite counted
                    (battery_seq_per_s)
  peak_rss_mb       peak resident set size of the benchmark process

The host's speed shifts between a few levels that each last seconds.
A median of single operations jumps between those levels from one run to
the next; a mean over the whole run moves smoothly with the share of time
spent at each, so the gated figures are means.

The lines before it print every end-to-end figure by its own name:
pipeline_s, artifact_mb, battery_seq_per_s, battery_seq_p50_ms,
battery_seq_p98_ms (with the sample count), peak_rss_mb, setup_s and
failed_ratio, plus the environment and the exact work counts.

With --trace 1, untraced and traced operations alternate; the last line
reports the per-layer metrics of BENCHMARK.json (medians over the traced
operations, spans.py) and the tracing overhead. Spans are written to
.perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 8
MIB = 1 << 20


def _median(values):
    return statistics.median(values) if values else 0.0


class Setup:
    """Set-up step: fresh processes that import pufsim and build, validate
    and write the workload config (configure.py). Half of the processes
    run before the operations and half after them, so the median samples
    the host at both ends of the run. Every process must write the same
    bytes."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.args = [sys.executable, str(HERE / "configure.py"), workload,
                     str(seed)]
        self.work = work
        self.times = []
        self.config_path = work / "config-0.json"

    def measure(self, repeats: int) -> None:
        for _ in range(repeats):
            path = self.work / f"config-{len(self.times)}.json"
            proc = subprocess.run(self.args + [str(path)], capture_output=True,
                                  text=True, timeout=120, check=True)
            self.times.append(float(proc.stdout.split()[-1]))
            if path.read_bytes() != self.config_path.read_bytes():
                raise RuntimeError("set-up processes wrote different configs")


def _repeatable(units: dict, metrics: dict) -> dict:
    """The per-layer metrics that must repeat exactly between operations:
    counts, bytes and ratios, not times."""
    return {k: v for k, v in metrics.items()
            if not k.startswith("trace.") and units[k] not in ("s", "us", "1/s")}


class Loop:
    """Closed loop of operations plus the bookkeeping shared by the
    workloads: deadline, alternation of traced operations, failures and
    the exact-repeat check of traced work counts."""

    def __init__(self, seconds: float, trace: bool, units: dict):
        self.deadline = perf_counter() + seconds
        self.trace = trace
        self.units = units
        self.k = 0
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}  # traced -> operation seconds
        self.layers = []  # per-layer metrics of each traced operation
        self.span_records = []
        self.first_counts = None

    def more(self) -> bool:
        """True while time is left; the first operation, and with tracing
        the first traced one, always run."""
        return self.k < (2 if self.trace else 1) or perf_counter() < self.deadline

    def next_traced(self) -> bool:
        traced = self.trace and self.k % 2 == 1
        self.k += 1
        return traced

    def record_trace(self, tracer, wall: float, extra_counts: dict):
        layer = spans.layer_metrics(tracer, wall)
        layer.update(extra_counts)
        self.layers.append(layer)
        self.span_records.append(tracer.records())
        failures = []
        if abs(layer["trace.self_sum_ratio"] - 1) > 0.02:
            failures.append("span self times cover "
                            f"{layer['trace.self_sum_ratio']:.4f} of the wall time")
        counts = _repeatable(self.units, layer)
        if self.first_counts is None:
            self.first_counts = counts
        failures += [f"traced work count {k} = {v!r}, first traced operation "
                     f"{self.first_counts[k]!r}"
                     for k, v in counts.items() if self.first_counts[k] != v]
        return failures

    def layer_medians(self) -> dict:
        return {k: _median([m[k] for m in self.layers]) for k in self.layers[0]}


def _traced(tracer):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def run_pipeline(loop: Loop, config_path: Path, work: Path) -> dict:
    import workloads
    from pufsim import cli
    from pufsim.config import load

    expect = workloads.Expectations(load(config_path))
    first_manifest = None
    artifact_bytes = None
    while loop.more():
        traced = loop.next_traced()
        tracer = spans.Tracer() if traced else None
        out = work / f"run-{loop.k}"
        failures = []
        loop.attempted += 1
        with _traced(tracer):
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(config_path),
                                     "--out", str(out)])
            except Exception:  # noqa: BLE001 - a raising run is a failed operation
                traceback.print_exc()
                code = None
            wall = perf_counter() - t0
        loop.walls[traced].append(wall)
        if code != 0:
            failures.append(f"pufsim run returned {code!r}")
        try:
            manifest = workloads.load_manifest(out)
            failures += workloads.check_pipeline(expect, out, manifest, first_manifest)
            if first_manifest is None:
                first_manifest = manifest
                artifact_bytes = sum(a["bytes"] for a in manifest["artifacts"])
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"unreadable outputs: {exc!r}")
        if tracer is not None:
            failures += loop.record_trace(
                tracer, wall, {"work.artifact_bytes": artifact_bytes or 0})
        shutil.rmtree(out, ignore_errors=True)
        if failures:
            loop.failed += 1
            print(f"run {loop.k} failed: " + "; ".join(failures), file=sys.stderr)
    untraced = loop.walls[False]
    return {
        "pipeline_s": _median(untraced),
        "latency_ms": 1e3 * statistics.fmean(untraced),
        "throughput_per_s": len(untraced) / sum(untraced),
        "artifact_mb": (artifact_bytes or 0) / MIB,
        "trace.overhead_pipeline_s": (
            _median(loop.walls[True]) - _median(untraced) if loop.trace else 0.0),
        "trace.overhead_battery_seq_per_s": 0.0,
    }


def run_battery(loop: Loop, config_path: Path) -> dict:
    import workloads
    from pufsim import harness, randomness

    params = json.loads(config_path.read_text())
    n, nbits, alpha = params["sequences"], params["bits"], params["alpha"]
    seed = params["master_seed"]
    first = None
    latencies = []
    done = {False: 0, True: 0}  # traced -> sequences completed
    while loop.more():
        traced = loop.next_traced()
        tracer = spans.Tracer() if traced else None
        lat, results = [], []
        loop.attempted += n
        try:
            with _traced(tracer):
                t0 = perf_counter()
                for seq in harness.unbiased_sequences(n, nbits, seed):
                    s0 = perf_counter()
                    try:
                        res = randomness.run_suite(seq, alpha=alpha)
                    except Exception:  # noqa: BLE001 - a failed sequence
                        traceback.print_exc()
                        res = None
                    lat.append(perf_counter() - s0)
                    results.append(res)
                agg = randomness.aggregate_suite(
                    [r for r in results if r is not None], alpha=alpha)
                wall = perf_counter() - t0
        except Exception:  # noqa: BLE001 - the whole pass failed
            traceback.print_exc()
            loop.failed += n
            continue
        loop.walls[traced].append(wall)
        done[traced] += len(results)
        failures = workloads.check_battery_pass(params, results, agg, first)
        if tracer is not None:
            trace_failures = loop.record_trace(
                tracer, wall, {"work.artifact_bytes": 0})
            if trace_failures:
                failures = ["; ".join(trace_failures)] * len(failures)
        if first is None:
            first = results
        if not traced:
            latencies += lat
        bad = [f for f in failures if f]
        loop.failed += len(bad)
        if bad:
            print(f"pass {loop.k}: {len(bad)} sequences failed: {bad[0]}",
                  file=sys.stderr)
    lat_ms = [1e3 * x for x in latencies]
    p98 = statistics.quantiles(lat_ms, n=50)[-1] if len(lat_ms) >= 2 else 0.0
    rate = {t: done[t] / sum(w) if w else 0.0 for t, w in loop.walls.items()}
    return {
        "battery_seq_per_s": rate[False],
        "battery_seq_p50_ms": _median(lat_ms),
        "battery_seq_p98_ms": p98,
        "battery_seq_samples": len(lat_ms),
        "latency_ms": statistics.fmean(lat_ms),
        "throughput_per_s": rate[False],
        "trace.overhead_pipeline_s": 0.0,
        "trace.overhead_battery_seq_per_s": (
            rate[True] - rate[False] if loop.trace else 0.0),
    }


def environment() -> dict:
    import numpy
    import scipy
    from pufsim import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pufsim_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _report(workload, seed, loop, figures, setup_s, peak_rss_mb, env):
    """Human-readable lines: every end-to-end figure by name and unit."""
    pipeline = workload != "battery"

    def row(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:20s} {shown:>12s} {unit:5s} {note}")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload} seed {seed}: {loop.attempted} operations, "
          f"{loop.failed} failed")
    for traced, walls in loop.walls.items():
        if walls:
            print(f"  {'traced' if traced else 'untraced'} "
                  f"{'runs' if pipeline else 'passes'} (s): "
                  + " ".join(f"{w:.3f}" for w in walls))
    row("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh processes")
    row("pipeline_s", figures.get("pipeline_s"), "s",
        f"median of {len(loop.walls[False])} runs" if pipeline else "")
    row("artifact_mb", figures.get("artifact_mb"), "MiB",
        "exact, per run" if pipeline else "")
    row("battery_seq_per_s", figures.get("battery_seq_per_s"), "1/s")
    row("battery_seq_p50_ms", figures.get("battery_seq_p50_ms"), "ms")
    samples = figures.get("battery_seq_samples")
    row("battery_seq_p98_ms", figures.get("battery_seq_p98_ms"), "ms",
        f"{samples} samples" if samples else "")
    row("peak_rss_mb", peak_rss_mb, "MiB")
    row("failed_ratio", loop.failed / loop.attempted, "",
        f"{loop.failed}/{loop.attempted}")
    if loop.layers:
        counts = _repeatable(loop.units, loop.layers[0])
        print(f"work per traced operation {json.dumps(counts, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pufsim" / "__init__.py").is_file():
        print(f"error: no pufsim source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = Setup(args.workload, args.seed, work)
        setup.measure(SETUP_REPEATS // 2)
        loop = Loop(seconds, bool(args.trace), units)
        if args.workload == "battery":
            figures = run_battery(loop, setup.config_path)
        else:
            figures = run_pipeline(loop, setup.config_path, work)
        setup.measure(SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_s = statistics.median(setup.times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    env = environment()
    _report(args.workload, args.seed, loop, figures, setup_s, peak_rss_mb, env)

    if args.trace:
        values = loop.layer_medians()
        values.update({k: v for k, v in figures.items() if k.startswith("trace.")})
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"environment": env, "workload": args.workload,
                       "seed": args.seed, "operations": loop.span_records}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        values = dict(figures, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
