"""Smoke test of benchmarks/bench_pipeline.py on one rung and one repeat,
and its --compare verdicts on two small synthetic records."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_pipeline.py"
STAGES = {"generate", "readout", "enroll", "mask", "metrics", "sweep", "randomness"}


def _numbers(value, path=""):
    """(path, number) of every number in a JSON value, bools left out."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _numbers(v, f"{path}/{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _numbers(v, f"{path}/{i}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def test_bench_pipeline_record_and_compare(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), "--pr", "1", "-k", "1",
                    "--rungs", "paper-fpga", "--out", str(tmp_path)],
                   check=True, capture_output=True)
    path = tmp_path / "BENCH_1.json"
    record = json.loads(path.read_text())
    assert set(record) == {"pr", "environment", "import", "rungs"}
    assert set(record["environment"]) == {"python", "numpy", "scipy", "nproc",
                                          "dont_write_bytecode", "repeats"}
    rung = record["rungs"]["paper-fpga"]
    for part in (record["import"], rung["fresh"], rung["in_process"]):
        assert {"wall_ms", "peak_rss_mib"} <= set(part)
    assert set(rung["in_process"]["stages"]) == STAGES
    numbers = list(_numbers(record))
    assert len(numbers) > 50
    for where, value in numbers:
        # one run has no spread
        assert value == 0 if where.endswith("/iqr") else value > 0, where
    out = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(path), str(path)],
                         check=True, capture_output=True, text=True).stdout
    assert "rungs/paper-fpga/fresh/wall_ms" in out
    assert "rungs/paper-fpga/in_process/stages/randomness/ms" in out


def _summary(median, iqr):
    return {"median": median, "iqr": iqr, "runs": [median - iqr / 2, median + iqr / 2]}


def _record(wall_ms, peak_rss_mib, stage_rss_mib):
    return {"pr": 0, "rungs": {"d1": {
        "fresh": {"wall_ms": _summary(wall_ms, 10.0),
                  "peak_rss_mib": _summary(peak_rss_mib, 0.2)},
        "in_process": {"stages": {"generate": {
            "ms": _summary(wall_ms / 10, 1.0),
            "rss_after_mib": _summary(stage_rss_mib, 0.2)}}}}}}


def test_compare_judges_memory_and_not_times(tmp_path):
    # times doubled far beyond their IQRs are still not judged across two
    # files; a memory change inside the IQR is "~", one outside is unmarked
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record(500.0, 60.0, 61.0)))
    b.write_text(json.dumps(_record(1000.0, 60.1, 65.0)))
    out = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)],
                         check=True, capture_output=True, text=True).stdout
    marks = {line.split()[0]: line.split()[4:] for line in out.splitlines()
             if line.startswith("rungs/")}
    assert marks == {
        "rungs/d1/fresh/wall_ms": ["?"],
        "rungs/d1/fresh/peak_rss_mib": ["~"],
        "rungs/d1/in_process/stages/generate/ms": ["?"],
        "rungs/d1/in_process/stages/generate/rss_after_mib": [],
    }
    assert "?: a time; times from two invocations cannot be compared" in out
