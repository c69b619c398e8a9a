"""End-to-end experiment orchestration: generate, readout, enroll, mask,
metrics, sweep, randomness battery, and the run manifest.

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
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .artifacts import read_container, write_atomic, write_container
from .config import ExperimentConfig, SessionConfig, config_digest
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


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "pufsim-out")


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

def _session_readout(
    config: ExperimentConfig,
    population: DevicePopulation,
    session_cfg: SessionConfig,
    index: int,
    threads: int,
) -> SignatureSet:
    session = ReadoutSession(
        env=session_cfg.env(),
        trials=session_cfg.trials,
        session_seed=config.session_seed(index),
        calibration=config.build_calibration(),
        target_ber=session_cfg.target_ber,
    )
    return read_signatures(population, session, threads=threads)


def _metrics_payload(config, sessions_sigs, golden, mask):
    return {
        "sessions": {
            name: compute_report(
                sigs,
                golden,
                golden.bits if name == config.enroll_session else None,
                mask,
                config.histogram_bucket_percent,
            )
            for name, sigs in sessions_sigs.items()
        }
    }


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


def _randomness_payload(config: ExperimentConfig, golden: GoldenSignature, mask):
    bits = golden.bits
    if mask is not None:
        bits = bits[:, mask.astype(bool)]
    concatenated = config.randomness_mode == "concatenated"
    sequences = bits.reshape(1, -1) if concatenated else bits
    table = run_suite_block(sequences, alpha=config.alpha, tests=config.nist_tests)
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
    return payload, table


def sweep_payload(config: ExperimentConfig, population, threads: int):
    """Robustness sweep over the configured temperature and voltage axes;
    None when the config names no sweep points."""
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
    results = robustness_sweep(
        population,
        calibration,
        envs,
        trials=config.sweep_trials,
        base_seed=config.session_seed(10_000),
        threads=threads,
    )
    return [
        {
            "temperature_celsius": env.temperature_celsius,
            "supply_voltage_volts": env.supply_voltage_volts,
            "mean_intra_hd_percent": value,
        }
        for env, value in results
    ]


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    threads: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple:
    """Execute the full pipeline; returns (manifest, manifest_path).

    Raises StageError after persisting an incomplete manifest when any
    stage fails; earlier artifacts are left intact.
    """
    if seed is not None:
        config = replace(config, master_seed=int(seed)).validate()
    threads = threads if threads is not None else config.threads
    root = out_dir or config.output_dir or default_output_dir()
    os.makedirs(root, exist_ok=True)
    manifest = RunManifest(
        config_digest=config_digest(config),
        tool_version=__version__,
        master_seed=config.master_seed,
    )
    manifest_path = os.path.join(root, "manifest.json")

    def finish(status, error=None):
        manifest.status = status
        manifest.error = error
        _write_json(manifest_path, manifest.to_dict())
        return manifest, manifest_path

    def emit(name: str, filename: str, write, *args) -> None:
        """Write one artifact as write(path, *args) and record it."""
        path = os.path.join(root, filename)
        write(path, *args)
        manifest.add(name, path, root)

    stage = "configure"
    try:
        emit("config", "config.json", lambda path: save_config(config, path))

        stage = "generate"
        t0 = time.perf_counter()
        population = generate_population(config.build_population_spec())
        emit("population", "population.bin", save_population, population)
        manifest.timings[stage] = time.perf_counter() - t0

        stage = "readout"
        t0 = time.perf_counter()
        sessions_sigs = {}
        for idx, session_cfg in enumerate(config.sessions):
            name = f"signatures_{session_cfg.name}"
            sigs = _session_readout(config, population, session_cfg, idx, threads)
            sessions_sigs[session_cfg.name] = sigs
            emit(name, f"{name}.bin", sigs.to_binary)
            emit(f"{name}_csv", f"{name}.csv", sigs.to_csv)
        manifest.timings[stage] = time.perf_counter() - t0

        stage = "enroll"
        t0 = time.perf_counter()
        enroll_sigs = sessions_sigs[config.enroll_session]
        golden = enroll_golden(enroll_sigs)
        emit("golden", "golden.bin", save_golden, golden)
        manifest.timings[stage] = time.perf_counter() - t0

        mask = None
        if config.masking_enabled and config.num_devices >= 2:
            stage = "mask"
            t0 = time.perf_counter()
            mask = eliminate_biased_positions(
                enroll_sigs,
                bias_threshold=config.bias_threshold,
                stability_threshold=config.stability_threshold,
                golden=golden,
            )
            emit("mask", "mask.json", _write_mask, mask)
            manifest.timings[stage] = time.perf_counter() - t0

        stage = "metrics"
        t0 = time.perf_counter()
        payload = _metrics_payload(config, sessions_sigs, golden, mask)
        emit("metrics", "metrics.json", _write_json, payload)
        emit("report", "report.txt", _write_text, _human_report(payload))
        manifest.timings[stage] = time.perf_counter() - t0

        stage = "sweep"
        t0 = time.perf_counter()
        sweep = sweep_payload(config, population, threads)
        if sweep is not None:
            emit("sweep", "sweep.json", _write_json, sweep)
        manifest.timings[stage] = time.perf_counter() - t0

        stage = "randomness"
        t0 = time.perf_counter()
        payload, table = _randomness_payload(config, golden, mask)
        emit("nist", "nist.json", _write_json, payload)
        emit("nist_csv", "nist.csv", _write_nist_csv, table)
        manifest.timings[stage] = time.perf_counter() - t0
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
