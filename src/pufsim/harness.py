"""End-to-end experiment orchestration: generate, readout, enroll, mask,
metrics, sweep, randomness battery, and the run manifest.

Each stage is one function here (`generate_stage` through
`randomness_stage`, plus `battery_stage` for any batch of sequences) that
writes its artifacts through an emit(name, filename, write, *args) writer,
so every artifact's file name, format and write path live in this module.
`run_experiment` chains the stages with a writer that records each file
in the manifest; the stage subcommands of `pufsim.cli` call the same
functions one at a time with a writer that does not.

Every stage writes its artifacts before the next stage starts, and each
file is written under a temporary name and then renamed into place, so a
late failure never corrupts earlier outputs, not even within a file; the
manifest then carries an "incomplete" status plus the failing stage. All
stage seeds derive from the config's master seed, which makes outputs
independent of the thread count; machine-readable files keep full
precision while the human report rounds to 6 significant digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .artifacts import read_container, write_atomic, write_container
from .config import ExperimentConfig, config_digest
from .config import save as save_config
from .entropy import EnvironmentCondition
from .errors import InvalidArgumentError, InvalidSpecError, StageError
from .kernels import unpack_bits
from .metrics import compute_report, robustness_sweep
from .population import (
    _TAG_LOCAL,
    DevicePopulation,
    PlacementConfig,
    PopulationSpec,
    generate_population,
    keyed_philox,
)
from .randomness import (
    TEST_NAMES,
    SuiteTable,
    aggregate_suite,
    rank_test,
    run_suite_block,
)
from .signature import (
    GoldenSignature,
    ReadoutSession,
    SignatureSet,
    count_dtype,
    eliminate_biased_positions,
    enroll_golden,
    read_signatures,
)

OUTPUT_DIR_ENV = "PUFSIM_OUT_DIR"

_POP_MAGIC = b"PUFP"
_POP_VERSION = 2
_POP_HEADER = "<HI"  # version, meta length
_GOLD_MAGIC = b"PUFG"
_GOLD_VERSION = 2
_GOLD_HEADER = "<HHIII"  # as signatures: version, flags (0), devices, trials, n


def _sig6(value):
    """Round to 6 significant digits for the human-readable report."""
    if value is None or not isinstance(value, (int, float)):
        return value
    if value == 0 or not math.isfinite(value):
        return value
    return float(f"{value:.6g}")


# ---------------------------------------------------------------------------
# artifact persistence

def _mismatch_digest(population: DevicePopulation) -> str:
    return hashlib.sha256(population.mismatch.tobytes()).hexdigest()


def save_population(path, population: DevicePopulation) -> None:
    """Write the population's spec plus a sha256 of its mismatch; the
    arrays themselves are regenerated from the spec on load."""
    spec = population.spec
    meta = asdict(spec)
    meta["bias_map"] = [[r, c, v] for (r, c), v in (spec.bias_map or {}).items()] or None
    meta["mismatch_sha256"] = _mismatch_digest(population)
    blob = json.dumps(meta, sort_keys=True).encode()
    write_container(path, _POP_MAGIC, _POP_HEADER, (_POP_VERSION, len(blob)), blob)


def load_population(path) -> DevicePopulation:
    """Regenerate the population a snapshot describes, and check that the
    generator still reproduces the mismatch it was saved with."""
    _, blob = read_container(path, _POP_MAGIC, _POP_VERSION, _POP_HEADER,
                             lambda _, size: size)
    try:
        meta = json.loads(blob)
        digest = meta.pop("mismatch_sha256")
        placement = PlacementConfig(**meta.pop("placement"))
        bias_map = {(r, c): v for r, c, v in meta.pop("bias_map") or ()} or None
        spec = PopulationSpec(**meta, placement=placement, bias_map=bias_map)
        population = generate_population(spec)
    except KeyError as exc:
        raise InvalidArgumentError(f"{path}: population meta lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: unreadable population meta ({exc})") from exc
    found = _mismatch_digest(population)
    if found != digest:
        raise InvalidArgumentError(
            f"{path}: regenerated mismatch has sha256 {found}, snapshot "
            f"recorded {digest}; the generator no longer reproduces it"
        )
    return population


def _golden_size(_version, _flags, d, t, n) -> int:
    counts = d * n * count_dtype(t).itemsize if t > 1 else 0
    return d * ((n + 7) // 8) + counts


def save_golden(path, golden: GoldenSignature) -> None:
    """Golden v2: the packed bits, one row per device, then the agreement
    counts; with one trial every count is 1 and none is stored."""
    d, n = golden.bits.shape
    t = golden.trials
    parts = [np.packbits(golden.bits, axis=-1, bitorder="little")]
    if t > 1:
        parts.append(np.ascontiguousarray(golden.counts, dtype=count_dtype(t)))
    write_container(path, _GOLD_MAGIC, _GOLD_HEADER, (_GOLD_VERSION, 0, d, t, n),
                    *parts)


def load_golden(path) -> GoldenSignature:
    (_, _, d, t, n), payload = read_container(
        path, _GOLD_MAGIC, _GOLD_VERSION, _GOLD_HEADER, _golden_size
    )
    nbytes = (n + 7) // 8
    packed = np.frombuffer(payload, dtype=np.uint8, count=d * nbytes)
    counts = (np.frombuffer(payload, count_dtype(t), offset=d * nbytes).reshape(d, n)
              if t > 1 else np.ones((d, n), dtype=np.uint8))
    try:
        return GoldenSignature(unpack_bits(packed.reshape(d, nbytes), n), counts, t)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None


def _write_text(path, text: str) -> None:
    with write_atomic(path) as fh:
        fh.write(text)


def _write_json(path, payload) -> None:
    with write_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_mask(path, mask: np.ndarray) -> None:
    kept = int(mask.sum())
    _write_json(path, {"kept": kept, "eliminated": mask.size - kept,
                       "mask": "".join("1" if b else "0" for b in mask)})


def load_mask(path, n: int) -> np.ndarray:
    """The 0/1 mask of a mask.json, checked against signature length n."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise StageError("mask", f"{path}: not JSON ({exc})") from exc
    text = payload.get("mask") if isinstance(payload, dict) else None
    if not isinstance(text, str):
        raise StageError("mask", f"{path}: not a mask file (no \"mask\" string)")
    if set(text) - {"0", "1"}:
        raise StageError("mask", f"{path}: mask may contain only '0' and '1'")
    mask = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    if mask.size != n:
        raise StageError(
            "mask", f"{path}: mask length {mask.size} != signature length {n}"
        )
    return mask


def _write_nist_csv(path, table) -> None:
    with write_atomic(path) as fh:
        fh.write("sequence,test,p_value,passed\n")
        fh.writelines(f"{idx},{name},{p!r},{int(passed)}\n"
                      for idx, name, p, passed in table.cells())


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# manifest

@dataclass
class RunManifest:
    config_digest: str
    tool_version: str
    master_seed: int
    status: str = "incomplete"
    error: Optional[dict] = None
    artifacts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, name: str, path: str, root: str) -> None:
        self.artifacts.append(
            {
                "name": name,
                "path": os.path.relpath(path, root),
                "sha256": _sha256(path),
                "bytes": os.path.getsize(path),
            }
        )

    def to_dict(self) -> dict:
        return asdict(self)


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# pipeline stages
#
# Each stage computes its result, writes its artifacts through
# emit(name, filename, write, *args) and returns the result the next stage
# needs. run_experiment chains them with an emit that also records each file
# in the manifest; the CLI's stage subcommands call them one at a time.

def output_root(out: Optional[str] = None,
                config: Optional[ExperimentConfig] = None) -> str:
    """The directory a command writes into, created if missing: `out`, else
    the config's output_dir, else $PUFSIM_OUT_DIR, else ./pufsim-out."""
    root = (out or (config and config.output_dir)
            or os.environ.get(OUTPUT_DIR_ENV, "pufsim-out"))
    os.makedirs(root, exist_ok=True)
    return root


def writer(root: str, record):
    """An emit that writes each artifact as write(path, *args) at
    root/filename, then calls record(name, path)."""
    def emit(name: str, filename: str, write, *args) -> None:
        path = os.path.join(root, filename)
        write(path, *args)
        record(name, path)
    return emit


def generate_stage(emit, config: ExperimentConfig) -> DevicePopulation:
    population = generate_population(config.build_population_spec())
    emit("population", "population.bin", save_population, population)
    return population


def readout_stage(emit, config: ExperimentConfig, population: DevicePopulation,
                  names=None) -> dict:
    """Read the named sessions (default: every session, in config order)
    and write each as signatures_<name>.bin and .csv; returns
    {name: SignatureSet}."""
    calibration = config.build_calibration()
    sessions = {}
    for name in names or [s.name for s in config.sessions]:
        index, session_cfg = config.get_session(name)
        session = ReadoutSession(session_cfg.env(), session_cfg.trials,
                                 config.session_seed(index), calibration,
                                 session_cfg.target_ber)
        sigs = sessions[name] = read_signatures(population, session,
                                                threads=config.threads)
        emit(f"signatures_{name}", f"signatures_{name}.bin", sigs.to_binary)
        emit(f"signatures_{name}_csv", f"signatures_{name}.csv", sigs.to_csv)
    return sessions


def enroll_stage(emit, sigs: SignatureSet) -> GoldenSignature:
    golden = enroll_golden(sigs)
    emit("golden", "golden.bin", save_golden, golden)
    return golden


def mask_stage(emit, sigs: SignatureSet, bias_threshold: float,
               stability_threshold: float, golden=None) -> np.ndarray:
    mask = eliminate_biased_positions(sigs, bias_threshold, stability_threshold,
                                      golden)
    emit("mask", "mask.json", _write_mask, mask)
    return mask


def metrics_stage(emit, sessions: dict, golden: GoldenSignature, mask,
                  enroll_session: Optional[str] = None,
                  bucket_width: float = 1.0) -> str:
    """metrics.json, one compute_report entry per {name: SignatureSet},
    and report.txt; returns the report text. The inter-HD of
    `enroll_session` describes the golden bits, every other session's its
    trial-0 rows."""
    payload = {"sessions": {
        name: compute_report(sigs, golden,
                             golden.bits if name == enroll_session else None,
                             mask, bucket_width)
        for name, sigs in sessions.items()
    }}
    report = _human_report(payload)
    emit("metrics", "metrics.json", _write_json, payload)
    emit("report", "report.txt", _write_text, report)
    return report


def _human_report(payload: dict) -> str:
    lines = ["signature quality report", "========================"]
    for name, entry in sorted(payload["sessions"].items()):
        lines.append(f"session {name}:")
        lines.append(f"  inter-HD %       : {_sig6(entry['inter_hd_percent'])}")
        lines.append(f"  intra-HD %       : {_sig6(entry['intra_hd_percent'])}")
        lines.append(f"  ones fraction    : {_sig6(entry['ones_fraction'])}")
        if "masked" in entry:
            m = entry["masked"]
            lines.append(
                f"  masked inter-HD %: {_sig6(m['inter_hd_percent'])}"
                f"  intra-HD %: {_sig6(m['intra_hd_percent'])}"
                f"  kept {m['effective_length']} positions"
            )
    return "\n".join(lines) + "\n"


def sweep_stage(emit, config: ExperimentConfig,
                population: DevicePopulation) -> Optional[list]:
    """Mean intra-HD at each configured temperature and voltage point,
    written as sweep.json; None, and nothing written, when the config names
    no sweep point."""
    calibration = config.build_calibration()
    envs = [
        EnvironmentCondition(t, config.reference_voltage)
        for t in config.sweep_temperatures
    ] + [
        EnvironmentCondition(config.reference_temperature, v)
        for v in config.sweep_voltages
    ]
    if not envs:
        return None
    results = robustness_sweep(population, calibration, envs,
                               trials=config.sweep_trials,
                               base_seed=config.session_seed(10_000),
                               threads=config.threads)
    rows = [{"temperature_celsius": env.temperature_celsius,
             "supply_voltage_volts": env.supply_voltage_volts,
             "mean_intra_hd_percent": value} for env, value in results]
    emit("sweep", "sweep.json", _write_json, rows)
    return rows


def battery_stage(emit, sequences, alpha: float, tests) -> SuiteTable:
    """Battery results in input order, written as nist.csv, for a
    (sequences, n) array or for a list of 1-D sequences run in one block
    per length. The per-length tables are joined into one; a test a length
    does not run is NaN there."""
    if isinstance(sequences, np.ndarray):
        table = run_suite_block(sequences, alpha=alpha, tests=tests)
    else:
        p, statistics = np.full((2, len(sequences), len(TEST_NAMES)), np.nan)
        for n in dict.fromkeys(seq.size for seq in sequences):
            rows = [i for i, seq in enumerate(sequences) if seq.size == n]
            part = run_suite_block(np.stack([sequences[i] for i in rows]),
                                   alpha=alpha, tests=tests)
            cells = np.ix_(rows, [TEST_NAMES.index(t) for t in part.tests])
            p[cells], statistics[cells] = part.p_values, part.statistics
        ran = ~np.isnan(p).all(axis=0)  # the columns some length ran
        table = SuiteTable(tuple(t for t, r in zip(TEST_NAMES, ran) if r),
                           p[:, ran], statistics[:, ran], alpha)
    emit("nist_csv", "nist.csv", _write_nist_csv, table)
    return table


def randomness_stage(emit, config: ExperimentConfig, golden: GoldenSignature,
                     mask) -> None:
    """The battery over the kept golden bits, per signature or
    concatenated: nist.csv, and nist.json with the settings, the aggregate
    over two or more sequences and the concatenated rank verdict."""
    bits = golden.bits
    if mask is not None:
        bits = bits[:, mask.astype(bool)]
    concatenated = config.randomness_mode == "concatenated"
    sequences = bits.reshape(1, -1) if concatenated else bits
    table = battery_stage(emit, sequences, config.alpha, config.nist_tests)
    payload: dict = {
        "alpha": config.alpha,
        "mode": config.randomness_mode,
        "num_sequences": len(sequences),
    }
    if len(table) >= 2:
        agg = aggregate_suite(table, alpha=config.alpha)
        payload["aggregate"] = {
            name: {
                "passing": agg.passing_string(name),
                "uniformity_p": row["uniformity_p"],
            }
            for name, row in agg.rows.items()
        }
    seq_len = sequences.shape[1]
    if (
        config.randomness_mode == "per-signature"
        and config.rank_concatenation
        and (config.nist_tests is None or "rank" in config.nist_tests)
        and seq_len < 38912
        and bits.size >= 38912
    ):
        # single rank verdict over the concatenated stream; flagged as an
        # interpretation since no per-signature rank is possible at this n
        r = rank_test(bits.reshape(-1), alpha=config.alpha)
        payload["rank_concatenated"] = {
            "p_value": r.p_value,
            "passed": r.passed,
        }
    emit("nist", "nist.json", _write_json, payload)


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> tuple:
    """Execute the full pipeline; returns (manifest, manifest_path).

    Raises StageError after persisting an incomplete manifest when any
    stage fails; earlier artifacts are left intact.
    """
    root = output_root(out_dir, config)
    manifest = RunManifest(
        config_digest=config_digest(config),
        tool_version=__version__,
        master_seed=config.master_seed,
    )
    manifest_path = os.path.join(root, "manifest.json")
    emit = writer(root, lambda name, path: manifest.add(name, path, root))
    stage = "configure"

    def finish(status, error=None):
        manifest.status = status
        manifest.error = error
        _write_json(manifest_path, manifest.to_dict())
        return manifest, manifest_path

    @contextmanager
    def timed(name: str):
        """Tag failures with the stage and record its wall time."""
        nonlocal stage
        stage = name
        t0 = time.perf_counter()
        yield
        manifest.timings[name] = time.perf_counter() - t0

    try:
        emit("config", "config.json", lambda path: save_config(config, path))
        with timed("generate"):
            population = generate_stage(emit, config)
        with timed("readout"):
            sessions = readout_stage(emit, config, population)
        with timed("enroll"):
            enroll_sigs = sessions[config.enroll_session]
            golden = enroll_stage(emit, enroll_sigs)
        mask = None
        if config.masking_enabled and config.num_devices >= 2:
            with timed("mask"):
                mask = mask_stage(emit, enroll_sigs, config.bias_threshold,
                                  config.stability_threshold, golden)
        with timed("metrics"):
            metrics_stage(emit, sessions, golden, mask, config.enroll_session,
                          config.histogram_bucket_percent)
        with timed("sweep"):
            sweep_stage(emit, config, population)
        with timed("randomness"):
            randomness_stage(emit, config, golden, mask)
    except Exception as exc:  # noqa: BLE001 - every stage error becomes diagnostic
        finish("incomplete", {"stage": stage, "message": str(exc)})
        raise StageError(stage, str(exc)) from exc

    return finish("complete")


# ---------------------------------------------------------------------------
# run comparison

def _load_artifact(manifest_path: str, manifest: dict, name: str):
    root = os.path.dirname(os.path.abspath(manifest_path))
    for item in manifest["artifacts"]:
        if item["name"] == name:
            full = os.path.join(root, item["path"])
            if not os.path.exists(full):
                return None, full
            with open(full) as fh:
                return json.load(fh), full
    return None, os.path.join(root, f"<missing artifact {name}>")


def compare_runs(manifest_path_a: str, manifest_path_b: str) -> dict:
    """Per-metric deltas (b minus a) and per-test passing-count deltas."""
    man_a = load_manifest(manifest_path_a)
    man_b = load_manifest(manifest_path_b)
    missing = []
    metrics = []
    for path, man in ((manifest_path_a, man_a), (manifest_path_b, man_b)):
        payload, full = _load_artifact(path, man, "metrics")
        if payload is None:
            missing.append(full)
        metrics.append(payload)
    if missing:
        raise InvalidArgumentError(
            "cannot compare runs; missing artifacts: " + ", ".join(missing)
        )
    deltas: dict = {"sessions": {}}
    sessions_a, sessions_b = metrics[0]["sessions"], metrics[1]["sessions"]
    for name in sorted(set(sessions_a) & set(sessions_b)):
        a, b = sessions_a[name], sessions_b[name]

        def delta(key, a=a, b=b):
            if a.get(key) is None or b.get(key) is None:
                return None
            return b[key] - a[key]

        entry = {
            "inter_hd_percent_delta": delta("inter_hd_percent"),
            "intra_hd_percent_delta": delta("intra_hd_percent"),
            "ones_fraction_delta": delta("ones_fraction"),
        }
        if "masked" in a and "masked" in b:
            for key in ("inter_hd_percent", "intra_hd_percent"):
                entry[f"masked_{key}_delta"] = b["masked"][key] - a["masked"][key]
        deltas["sessions"][name] = entry

    nist_a, _ = _load_artifact(manifest_path_a, man_a, "nist")
    nist_b, _ = _load_artifact(manifest_path_b, man_b, "nist")
    if nist_a and nist_b and "aggregate" in nist_a and "aggregate" in nist_b:
        rows = {}
        for test in sorted(set(nist_a["aggregate"]) & set(nist_b["aggregate"])):
            ka = int(nist_a["aggregate"][test]["passing"].split("/")[0])
            kb = int(nist_b["aggregate"][test]["passing"].split("/")[0])
            rows[test] = kb - ka
        deltas["nist_passing_delta"] = rows
    return deltas


# ---------------------------------------------------------------------------
# simulator-backed bit sequences for the battery

# raw words per draw of the battery's generator: 64 KiB, under glibc's
# 128 KiB mmap threshold, so no draw maps and unmaps fresh pages
_SEQUENCE_CHUNK = 8192


def unbiased_sequences(num_sequences: int, nbits: int, master_seed: int):
    """Yield noiseless power-up bit sequences of unbiased simulated
    devices (pure local mismatch), one device per sequence.

    Bit i of device d is the top bit of raw 64-bit word i of
    `keyed_philox(master_seed, local tag)` from counter block
    d * ceil(nbits / 4), the readout's addressing. That is the sign of the
    cell's mismatch sigma * ndtri(u) with u on the open 52-bit grid
    u = ((word >> 12) + 1/2) * 2**-52: ndtri(u) > 0 exactly when
    word >> 12 >= 2**51, that is when the top bit is set. The population
    draws its local component from the same words, so the sequences are
    `iter_device_mismatch(spec) > 0` of a pure-local spec of nbits cells.

    One generator serves the whole call and draws each sequence's words in
    chunks of at most 8192, so no draw allocates more than 64 KiB.
    """
    if num_sequences <= 0 or nbits <= 0:
        raise InvalidSpecError("population sizes must be positive")
    if not (0 <= int(master_seed) < 2**64):
        raise InvalidSpecError("master_seed must fit in 64 unsigned bits")
    bitgen = keyed_philox(int(master_seed), _TAG_LOCAL)
    row_words = 4 * -(-nbits // 4)  # whole counter blocks per device
    for _ in range(num_sequences):
        seq = np.empty(nbits, dtype=np.uint8)
        for lo in range(0, row_words, _SEQUENCE_CHUNK):
            hi = min(lo + _SEQUENCE_CHUNK, row_words)
            words = bitgen.random_raw(hi - lo)
            words >>= 63
            seq[lo:hi] = words[: nbits - lo]
        yield seq
