"""Outside-in tracing: spans around the calls into pufsim's public
functions, recorded from the benchmark process without editing pufsim.

Each traced function is rebound in every pufsim module that holds it, so
a call is caught wherever its caller looks it up (`pufsim.harness
.read_signatures` and `pufsim.metrics.read_signatures` are separate
bindings of one function). Methods are rebound on their class. A span
records its name, start, end, parent (the innermost open span of the same
thread) and thread; self time is the duration minus the time covered by
child spans. `noise_stream` runs once per readout row, inside the readout
thread pool, so it is counted (calls and summed seconds per thread) rather
than recorded as a span. Spans stay in memory until the benchmark writes
them out at the end of the run.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MODULES = ("pufsim", "pufsim.cli", "pufsim.config", "pufsim.entropy",
            "pufsim.harness", "pufsim.kernels", "pufsim.metrics",
            "pufsim.population", "pufsim.randomness", "pufsim.signature")

# battery test functions and the short names used in metric names
TESTS = {
    "frequency_test": "frequency",
    "block_frequency_test": "block_frequency",
    "cumulative_sums_test": "cusum",
    "runs_test": "runs",
    "longest_run_test": "longest_run",
    "rank_test": "rank",
    "dft_test": "dft",
}

# ---------------------------------------------------------------------------
# counters taken from a traced call's arguments and result


def _file_bytes(key, path_arg):
    def count(tally, args, kwargs, result):
        tally[key] += os.path.getsize(args[path_arg])
    return count


def _count_generate(tally, args, kwargs, result):
    tally["devices"] += result.num_devices


def _count_read(tally, args, kwargs, result):
    d, t, n = result.bits.shape
    tally["rows"] += d * t
    tally["cells"] += d * t * n


def _count_pairwise(tally, args, kwargs, result):
    d, words = args[0].shape
    pairs = d * (d - 1) // 2
    tally["pairs"] += pairs
    # operand bytes: two packed rows per pair, from shapes, not measured
    tally["pair_bytes"] += pairs * 2 * words * 8


def _count_rank(tally, args, kwargs, result):
    tally["rank_matrices"] += args[0].shape[0]


def _count_longest_run(tally, args, kwargs, result):
    tally["longest_run_blocks"] += len(args[0])


def _count_suite(tally, args, kwargs, result):
    tally["sequences"] += 1
    tally["bits"] += len(args[0])


def _count_rejects(short):
    def count(tally, args, kwargs, result):
        tally[f"{short}_rejects"] += 0 if result.passed else 1
    return count


# (module, attribute, span name, counter); attribute "Class.method" rebinds
# the method on its class
SPANS = [
    ("pufsim.cli", "main", "cli.main", None),
    ("pufsim.config", "load", "config.load", None),
    ("pufsim.harness", "run_experiment", "harness.run", None),
    ("pufsim.harness", "save_population", "harness.save_population",
     _file_bytes("population_bytes", 0)),
    ("pufsim.harness", "save_golden", "harness.save_golden",
     _file_bytes("golden_bytes", 0)),
    ("pufsim.harness", "RunManifest.add", "harness.manifest_add", None),
    ("pufsim.population", "generate_population", "population.generate",
     _count_generate),
    ("pufsim.signature", "read_signatures", "signature.read", _count_read),
    ("pufsim.signature", "SignatureSet.to_binary", "signature.to_binary", None),
    ("pufsim.signature", "SignatureSet.to_csv", "signature.to_csv",
     _file_bytes("csv_bytes", 1)),
    ("pufsim.signature", "enroll_golden", "signature.enroll", None),
    ("pufsim.signature", "eliminate_biased_positions", "signature.mask", None),
    ("pufsim.metrics", "inter_hd", "metrics.inter_hd", None),
    ("pufsim.metrics", "mean_intra_hd", "metrics.mean_intra_hd", None),
    ("pufsim.metrics", "compute_report", "metrics.compute_report", None),
    ("pufsim.metrics", "robustness_sweep", "metrics.robustness_sweep", None),
    ("pufsim.kernels", "pairwise_hd_stats", "kernels.pairwise", _count_pairwise),
    ("pufsim.kernels", "gf2_rank32", "kernels.gf2_rank", _count_rank),
    ("pufsim.kernels", "longest_one_run", "kernels.longest_run",
     _count_longest_run),
    ("pufsim.randomness", "run_suite", "randomness.run_suite", _count_suite),
    ("pufsim.randomness", "aggregate_suite", "randomness.aggregate", None),
] + [
    ("pufsim.randomness", fn, f"randomness.{short}", _count_rejects(short))
    for fn, short in TESTS.items()
]


class Tracer:
    """Span recorder plus per-thread counters for one traced operation."""

    def __init__(self):
        # span record: [name, start, end, parent record, thread, child seconds]
        self.spans = []
        self._local = threading.local()
        self._tallies = {}  # thread id -> counter dict, written by that thread

    def tally(self) -> dict:
        tid = threading.get_ident()
        tally = self._tallies.get(tid)
        if tally is None:
            tally = self._tallies[tid] = defaultdict(int)
        return tally

    def counters(self) -> dict:
        out = defaultdict(int)
        for tally in self._tallies.values():
            for key, value in tally.items():
                out[key] += value
        return out

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = [name, 0.0, 0.0, stack[-1] if stack else None,
               threading.get_ident(), 0.0]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._local.stack.pop()
        if rec[3] is not None:
            rec[3][5] += rec[2] - rec[1]

    def span_wrapper(self, name, fn, count):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self.tally(), args, kwargs, result)
            return result
        return wrapper

    def counting_wrapper(self, name, fn):
        seconds, calls = f"{name}_s", f"{name}_calls"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            tally = self.tally()
            tally[seconds] += perf_counter() - t0
            tally[calls] += 1
            return result
        return wrapper

    def generator_wrapper(self, name, fn):
        """Each step of the generator is one span; a yielded item counts
        as one device."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                self.tally()["devices"] += 1
                yield item
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        modules = [importlib.import_module(m) for m in _MODULES]
        undo = []

        def rebind(module_name, attr, make):
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, make(original))
                undo.append((owner, attr, original))
                return
            original = getattr(owner, attr)
            wrapper = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))

        try:
            for module_name, attr, name, count in SPANS:
                rebind(module_name, attr,
                       lambda fn, n=name, c=count: self.span_wrapper(n, fn, c))
            rebind("pufsim.signature", "noise_stream",
                   lambda fn: self.counting_wrapper("noise_stream", fn))
            rebind("pufsim.harness", "unbiased_sequences",
                   lambda fn: self.generator_wrapper("population.iter_mismatch", fn))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- summaries -----------------------------------------------------------

    def by_name(self) -> dict:
        """{span name: [calls, self seconds]}."""
        out = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start - child
        return out

    def main_thread_self_s(self) -> float:
        main = threading.main_thread().ident
        return sum(end - start - child
                   for _, start, end, _, tid, child in self.spans if tid == main)

    def records(self) -> list:
        """Spans as [name, start, end, parent index, thread] rows."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[name, start, end, -1 if parent is None else index[id(parent)], tid]
                for name, start, end, parent, tid, _ in self.spans]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation whose wall time was
    wall_s. Every `_s` metric of a span is its self time."""
    spans = tracer.by_name()
    counts = tracer.counters()

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    def calls(name):
        return spans[name][0] if name in spans else 0

    devices = counts["devices"]
    rows = counts["rows"]
    out = {
        "population.generate_s": self_s("population.generate"),
        "population.us_per_device": (
            1e6 * self_s("population.generate") / devices if devices else 0.0),
        "population.iter_mismatch_s": self_s("population.iter_mismatch"),
        "signature.read_s": self_s("signature.read"),
        "signature.rows": rows,
        "signature.us_per_row": 1e6 * self_s("signature.read") / rows if rows else 0.0,
        "signature.noise_stream_calls": counts["noise_stream_calls"],
        "signature.noise_stream_s": counts["noise_stream_s"],
        "signature.to_csv_s": self_s("signature.to_csv"),
        "signature.csv_bytes": counts["csv_bytes"],
        "signature.to_binary_s": self_s("signature.to_binary"),
        "signature.enroll_s": self_s("signature.enroll"),
        "signature.mask_s": self_s("signature.mask"),
        "metrics.inter_hd_calls": calls("metrics.inter_hd"),
        "metrics.inter_hd_s": self_s("metrics.inter_hd"),
        "metrics.mean_intra_hd_s": self_s("metrics.mean_intra_hd"),
        "metrics.compute_report_s": self_s("metrics.compute_report"),
        "metrics.sweep_self_s": self_s("metrics.robustness_sweep"),
        "kernels.pairwise_calls": calls("kernels.pairwise"),
        "kernels.pairwise_pairs": counts["pairs"],
        "kernels.pairwise_s": self_s("kernels.pairwise"),
        "kernels.pairwise_bytes": counts["pair_bytes"],
        "kernels.gf2_rank_s": self_s("kernels.gf2_rank"),
        "kernels.rank_matrices": counts["rank_matrices"],
        "kernels.longest_run_s": self_s("kernels.longest_run"),
        "kernels.longest_run_blocks": counts["longest_run_blocks"],
    }
    for short in TESTS.values():
        n = calls(f"randomness.{short}")
        out[f"randomness.{short}_s"] = self_s(f"randomness.{short}")
        out[f"randomness.{short}_calls"] = n
        out[f"randomness.{short}_reject_ratio"] = (
            counts[f"{short}_rejects"] / n if n else 0.0)
    out.update({
        "randomness.run_suite_self_s": self_s("randomness.run_suite"),
        "randomness.aggregate_s": self_s("randomness.aggregate"),
        "randomness.sequences": counts["sequences"],
        "randomness.bits": counts["bits"],
        "harness.save_population_s": self_s("harness.save_population"),
        "harness.population_bytes": counts["population_bytes"],
        "harness.save_golden_s": self_s("harness.save_golden"),
        "harness.golden_bytes": counts["golden_bytes"],
        "harness.manifest_add_s": self_s("harness.manifest_add"),
        "harness.run_self_s": self_s("harness.run"),
        "cli.main_self_s": self_s("cli.main"),
        "config.load_s": self_s("config.load"),
        "work.devices": devices,
        "work.cells_read": counts["cells"],
        "trace.self_sum_ratio": tracer.main_thread_self_s() / wall_s,
    })
    return out
