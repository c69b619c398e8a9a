"""Artifact digests of the preset ladder, compared with a committed record.

A rung is one `pufsim run` through `pufsim.cli.main`: the presets
paper-sim, paper-fpga and d1..d4, and the perfbench sim-population and
board-repeat configs (benchmark seed 1), stored under tests/data. Every
rung runs at `--threads 1`, and board-repeat also at `--threads 2`.

tests/data/ladder_digests.json holds, per run, every artifact's name,
sha256 and size as the run's manifest lists them (manifest.json is not an
artifact), and the python, numpy and scipy versions it was made with. A
version mismatch does not skip the comparison; a failure names both
version sets. A change that moves an output rewrites the record, and the
two workload configs from perfbench/workloads.py, in the same commit:

    PYTHONPATH=src python tests/test_ladder_digests.py

which first prints, for each run, the artifacts whose sha256 or size
differs from the committed record.

The chunk knobs (module constants that set how much one step of a loop
takes) must not move an artifact either: six rungs also run with every
knob set small at once, and a check keeps that table complete.
"""

import ast
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import pufsim
from pufsim import kernels, population, randomness, signature
from pufsim.cli import main
from pufsim.config import PRESET_NAMES
from pufsim.population import BUILTIN_PLACEMENTS

DATA = Path(__file__).resolve().parent / "data"
RECORD = DATA / "ladder_digests.json"
WORKLOADS = ("sim-population", "board-repeat")
WORKLOAD_SEED = 1  # perfbench/run.py's default --seed
RUNS = [(rung, "1") for rung in PRESET_NAMES + WORKLOADS] + [("board-repeat", "2")]


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _digests(rung: str, threads: str, out: Path) -> dict:
    """{artifact name: {"sha256", "bytes"}} of one run into out."""
    source = (["--preset", rung] if rung in PRESET_NAMES
              else ["--config", str(DATA / f"{rung}.json")])
    assert main(["run", *source, "--out", str(out), "--threads", threads]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {a["name"]: {"sha256": a["sha256"], "bytes": a["bytes"]}
            for a in manifest["artifacts"]}


def _moved(want: dict, got: dict) -> list:
    """Names of the artifacts whose digest or size differs, or that only
    one of two runs has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def _assert_recorded(rung: str, threads: str, out: Path) -> None:
    record = json.loads(RECORD.read_text())
    want = record["runs"][f"{rung} --threads {threads}"]
    moved = _moved(want, _digests(rung, threads, out))
    assert not moved, (
        f"{rung} at --threads {threads}: artifacts {moved} differ from "
        f"{RECORD.name}, recorded with {record['versions']}, run with {_versions()}")


@pytest.mark.parametrize("rung,threads", RUNS)
def test_ladder_artifacts_match_record(rung, threads, tmp_path):
    _assert_recorded(rung, threads, tmp_path)


# Naming rule: a chunk knob is a module-level constant of the package whose
# name ends in the unit its chunk is counted in, one of _KNOB_UNITS. Each
# is set here to a small value that splits every rung into many uneven
# chunks (one device per draw, range and CSV write; 7 x 61 distance tiles;
# one or two battery sequences per block).
_KNOB_UNITS = ("_WORDS", "_VALUES", "_BYTES", "_ROWS", "_COLS", "_BITS")
_SMALL_CHUNKS = {
    (population, "_DRAW_WORDS"): 4,
    (signature, "_RANGE_VALUES"): 3,
    (signature, "_CSV_CHUNK_BYTES"): 1,
    (kernels, "_TILE_ROWS"): 7,
    (kernels, "_TILE_COLS"): 61,
    (randomness, "_BLOCK_BITS"): 2**11,
}


@pytest.fixture
def small_chunks(monkeypatch):
    for (module, name), value in _SMALL_CHUNKS.items():
        monkeypatch.setattr(module, name, value)


def test_every_chunk_knob_is_set_small():
    found = set()
    for path in Path(pufsim.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found |= {(path.stem, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith(_KNOB_UNITS)}
    assert found == {(module.__name__.split(".")[-1], name)
                     for module, name in _SMALL_CHUNKS}


@pytest.mark.parametrize("rung", BUILTIN_PLACEMENTS + ("paper-fpga", "board-repeat"))
def test_small_chunks_match_record(rung, small_chunks, tmp_path):
    _assert_recorded(rung, "1", tmp_path)


def test_small_chunks_match_record_back_to_back(small_chunks, tmp_path):
    # a second rung in the same process must not see the first one's state
    for rung in ("d4", "d2"):
        _assert_recorded(rung, "1", tmp_path / rung)


def test_record_thread_values_differ_only_in_config():
    # config.json records the threads field; no other output may depend on it
    runs = json.loads(RECORD.read_text())["runs"]
    one = dict(runs["board-repeat --threads 1"])
    two = dict(runs["board-repeat --threads 2"])
    assert one.pop("config") != two.pop("config")
    assert one == two


def rewrite() -> None:
    sys.path.insert(0, str(DATA.parents[1] / "perfbench"))
    from workloads import write_config

    for workload in WORKLOADS:
        write_config(workload, WORKLOAD_SEED, str(DATA / f"{workload}.json"))
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{rung} --threads {threads}":
                _digests(rung, threads, Path(tmp) / f"{rung}-{threads}")
                for rung, threads in RUNS}
    recorded = json.loads(RECORD.read_text())["runs"]
    for run, got in runs.items():
        moved = _moved(recorded.get(run, {}), got)
        print(f"{run}: {'moved ' + ', '.join(moved) if moved else 'unchanged'}")
    RECORD.write_text(json.dumps({"versions": _versions(), "runs": runs},
                                 indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    rewrite()
