"""End-to-end benchmark of `pufsim run` over the preset ladder.

The ladder is the one the digest gate runs (tests/test_ladder_digests.py):
the presets paper-sim, paper-fpga and d1..d4, and the perfbench
sim-population and board-repeat configs stored in tests/data. For each
rung, over K repeats, the script records:

* fresh process: the wall time and peak RSS of `python -m pufsim.cli run`,
  a new interpreter per run. The RSS is the child's own `ru_maxrss`, read
  from `os.wait4` on that child, so no run's peak hides another's;
* in process: K runs through `pufsim.cli.main` in one new interpreter
  (a child of this script, so each rung starts from a fresh heap), with
  each run's wall time, the process's peak RSS after it, and per stage
  the manifest's wall time and the peak RSS when the stage returned
  (the `harness.*_stage` functions are wrapped), so the stage that sets
  the peak shows.

It also records the bare `import pufsim.cli` as a fresh process, the
baseline every run pays, and the environment: python, numpy and scipy
versions, the CPU count and `sys.flags.dont_write_bytecode` (without a
bytecode cache every process compiles pufsim's sources, which moves the
import's RSS by about 1.5 MiB). Every series is stored as its median, its
interquartile range and its runs, and the whole record is written to
OUT/BENCH_<pr>.json. The child processes import pufsim from the `src`
directory beside this script, so a copy of the script in another checkout
measures that checkout.

`--compare A B` prints, for every series in both files, A's and B's
medians and B / A, and flags with "~" every change smaller than the larger
of the two IQRs, which the runs cannot tell from noise.

Run:  python3 benchmarks/bench_pipeline.py --pr 31 -k 5
      python3 benchmarks/bench_pipeline.py --compare BENCH_30.json BENCH_31.json
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
PRESETS = ("paper-sim", "paper-fpga", "d1", "d2", "d3", "d4")
CONFIGS = ("sim-population", "board-repeat")
STAGES = ("generate", "readout", "enroll", "mask", "metrics", "sweep", "randomness")


def _run_args(rung: str, out: str) -> list:
    source = (["--preset", rung] if rung in PRESETS
              else ["--config", str(DATA / f"{rung}.json")])
    return ["run", *source, "--out", out]


def _summary(runs: list) -> dict:
    """Median, interquartile range (0 for one run) and the runs."""
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": round(statistics.median(runs), 3),
            "iqr": round(q3 - q1, 3), "runs": [round(v, 3) for v in runs]}


def _fresh(argv: list) -> tuple:
    """(wall ms, peak RSS MiB) of one child `python argv`, stdout dropped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = (time.perf_counter() - t0) * 1e3
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024


def _fresh_series(argv_of, k: int) -> dict:
    walls, rss = [], []
    for _ in range(k):
        with tempfile.TemporaryDirectory() as tmp:
            wall, peak = _fresh(argv_of(tmp))
        walls.append(wall)
        rss.append(peak)
    return {"wall_ms": _summary(walls), "peak_rss_mib": _summary(rss)}


def _in_process(rung: str, k: int) -> dict:
    """K runs of one rung through cli.main in this process (the
    --in-process mode of a child): wall, peak RSS and per-stage figures."""
    from pufsim import cli, harness

    def rss() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    after = {}  # peak RSS when each stage of the current run returned

    def recorded(name, stage):
        def wrapped(*args, **kw):
            result = stage(*args, **kw)
            after[name] = rss()
            return result
        return wrapped

    for name in STAGES:
        attr = f"{name}_stage"
        setattr(harness, attr, recorded(name, getattr(harness, attr)))
    walls, peaks, stages = [], [], {}
    for _ in range(k):
        after.clear()
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(_run_args(rung, tmp))
            walls.append((time.perf_counter() - t0) * 1e3)
            if code != 0:
                raise SystemExit(f"pufsim run {rung} exited {code}")
            timings = harness.load_manifest(os.path.join(tmp, "manifest.json"))["timings"]
        peaks.append(rss())
        for name in STAGES:
            if name in timings:
                stage = stages.setdefault(name, {"ms": [], "rss_after_mib": []})
                stage["ms"].append(timings[name] * 1e3)
                stage["rss_after_mib"].append(after[name])
    return {"wall_ms": _summary(walls), "peak_rss_mib": _summary(peaks),
            "stages": {name: {key: _summary(v) for key, v in s.items()}
                       for name, s in stages.items()}}


def _environment(k: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "repeats": k}


def measure(rungs: list, k: int, pr: int) -> dict:
    record = {"pr": pr, "environment": _environment(k),
              "import": _fresh_series(lambda tmp: ["-c", "import pufsim.cli"], k),
              "rungs": {}}
    for rung in rungs:
        fresh = _fresh_series(lambda tmp: ["-m", "pufsim.cli", *_run_args(rung, tmp)], k)
        child = subprocess.run(
            [sys.executable, __file__, "--in-process", rung, "-k", str(k)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
            capture_output=True, text=True)
        record["rungs"][rung] = {"fresh": fresh, "in_process": json.loads(child.stdout)}
    return record


def _series(record: dict, path: str = "") -> dict:
    """{path: summary} of every series in a record."""
    if "median" in record:
        return {path: record}
    return {key: s for name, v in record.items() if isinstance(v, dict)
            for key, s in _series(v, f"{path}/{name}" if path else name).items()}


def compare(path_a: str, path_b: str) -> None:
    a = _series(json.loads(Path(path_a).read_text()))
    b = _series(json.loads(Path(path_b).read_text()))
    print(f"{'series':62s} {'A':>10s} {'B':>10s} {'B/A':>7s}")
    for key in (k for k in a if k in b):
        ma, mb = a[key]["median"], b[key]["median"]
        noise = abs(mb - ma) < max(a[key]["iqr"], b[key]["iqr"])
        ratio = f"{mb / ma:7.3f}" if ma else f"{'-':>7s}"
        print(f"{key:62s} {ma:10.2f} {mb:10.2f} {ratio} {'~' if noise else ''}")
    print("~: the change is smaller than the larger IQR")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("-k", type=int, default=5, help="repeats per measurement")
    parser.add_argument("--rungs", nargs="+", default=list(PRESETS + CONFIGS),
                        choices=PRESETS + CONFIGS, metavar="RUNG")
    parser.add_argument("--out", default=str(ROOT), help="directory of BENCH_<pr>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--in-process", metavar="RUNG", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.k < 1:
        parser.error("-k must be at least 1")
    if args.compare:
        compare(*args.compare)
    elif args.in_process:
        print(json.dumps(_in_process(args.in_process, args.k)))
    elif args.pr is None:
        parser.error("--pr is required unless --compare is given")
    else:
        path = Path(args.out) / f"BENCH_{args.pr}.json"
        record = measure(args.rungs, args.k, args.pr)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
