"""Smoke test of benchmarks/bench_pipeline.py on one rung and one repeat."""

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
