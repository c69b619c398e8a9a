"""Experiment configuration: a versioned, JSON-serializable description of
population, calibration, readout sessions, masking, metrics, and the
randomness battery, plus the built-in presets.

The schema is versioned with a major.minor string; configs whose major
differs from the supported one are rejected. parse(serialize(config))
round-trips to an equal config.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .artifacts import read_json, write_json
from .entropy import EnvironmentCondition, NoiseCalibration, calibrate_noise_for_ber
from .errors import ExtrapolationRefusedError, InvalidArgumentError, InvalidSpecError
from .kernels import check_int
from .metrics import check_bucket_width
from .population import (
    _TAG_SESSION,
    BUILTIN_PLACEMENTS,
    PlacementConfig,
    PopulationSpec,
    builtin_placement,
    derived_seed,
)
from .randomness import check_alpha, check_test_names
from .signature import check_mask_thresholds

SCHEMA_VERSION = "1.0"

PRESET_NAMES = ("paper-sim", "paper-fpga", "d1", "d2", "d3", "d4")


@dataclass(frozen=True)
class SessionConfig:
    """One readout acquisition in the pipeline."""

    name: str
    temperature_celsius: float
    supply_voltage_volts: float
    trials: int = 1
    target_ber: Optional[float] = None

    def env(self) -> EnvironmentCondition:
        return EnvironmentCondition(self.temperature_celsius, self.supply_voltage_volts)


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: str = SCHEMA_VERSION
    # population
    num_devices: int = 100
    cells_per_device: int = 64
    sigma_mismatch: float = 0.25
    weights: tuple = (0.0, 0.0, 1.0)  # (global, regional, local)
    placement: str | dict = "single-region"  # or a custom placement object
    bias: Optional[dict] = None  # {"positions": [[r, c]], "offset": x, "entries": [[r, c, x]]}
    master_seed: int = 1
    # calibration
    reference_temperature: float = 25.0
    reference_voltage: float = 1.0
    temperature_anchors: tuple = ()  # ((celsius, ber), ...)
    voltage_anchors: tuple = ()
    bias_noise_coupling: float = 2.0
    # pipeline
    sessions: tuple = (SessionConfig("enroll", 25.0, 1.0, trials=1),)
    enroll_session: str = "enroll"
    masking_enabled: bool = True
    bias_threshold: float = 0.3
    stability_threshold: float = 0.9
    histogram_bucket_percent: float = 1.0
    # randomness battery
    alpha: float = 0.001
    randomness_mode: str = "per-signature"  # or "concatenated"
    rank_concatenation: bool = True
    nist_tests: Optional[tuple] = None  # None: every test the length allows
    # sweeps
    sweep_temperatures: tuple = ()
    sweep_voltages: tuple = ()
    sweep_trials: int = 1
    # execution
    output_dir: Optional[str] = None
    # accepted and validated for saved configs and scripts that set it; the
    # readout is serial and no stage reads it
    threads: int = 1

    def __post_init__(self):
        def floats(values):
            return tuple(float(v) for v in values)

        def pairs(values):
            return tuple((float(a), float(b)) for a, b in values)

        for name, normalize in (
            ("weights", floats), ("temperature_anchors", pairs),
            ("voltage_anchors", pairs), ("sessions", tuple),
            ("sweep_temperatures", floats), ("sweep_voltages", floats),
        ):
            object.__setattr__(self, name, normalize(getattr(self, name)))
        if self.nist_tests is not None:
            object.__setattr__(self, "nist_tests", tuple(self.nist_tests))

    # -- builders ----------------------------------------------------------

    def build_placement(self) -> PlacementConfig:
        if isinstance(self.placement, str):
            if self.placement in BUILTIN_PLACEMENTS:
                return builtin_placement(self.placement)
            if self.placement == "single-region":
                w, h = near_square(self.cells_per_device)
                return PlacementConfig("single-region", w, h,
                                       (0,) * self.cells_per_device, ())
            raise InvalidSpecError(f"unknown placement {self.placement!r}")
        p = self.placement
        return PlacementConfig(
            kind=p.get("kind", "custom"),
            grid_width=p["grid_width"],
            grid_height=p["grid_height"],
            region_of=tuple(p["region_of"]),
            adjacency=tuple(tuple(e) for e in p.get("adjacency", ())),
        )

    def build_bias_map(self, placement: PlacementConfig) -> Optional[dict]:
        if not self.bias:
            return None
        bias_map = {}
        for entry in self.bias.get("entries", ()):
            row, col, off = entry
            bias_map[(row, col)] = float(off)
        offset = self.bias.get("offset")
        for pos in self.bias.get("positions", ()):
            if offset is None:
                raise InvalidSpecError("bias.positions given without bias.offset")
            bias_map[(pos[0], pos[1])] = float(offset)
        return bias_map or None

    def build_population_spec(self) -> PopulationSpec:
        placement = self.build_placement()
        return PopulationSpec(
            num_devices=self.num_devices,
            cells_per_device=self.cells_per_device,
            sigma_mismatch=self.sigma_mismatch,
            weights=self.weights,
            placement=placement,
            master_seed=self.master_seed,
            bias_map=self.build_bias_map(placement),
        )

    def build_calibration(self) -> NoiseCalibration:
        return NoiseCalibration(
            sigma_mismatch=self.sigma_mismatch,
            reference=EnvironmentCondition(
                self.reference_temperature, self.reference_voltage
            ),
            temperature_anchors=self.temperature_anchors,
            voltage_anchors=self.voltage_anchors,
            bias_noise_coupling=self.bias_noise_coupling,
        )

    def sweep_envs(self) -> list:
        """The sweep's points: each sweep temperature at the reference
        voltage, then each sweep voltage at the reference temperature. A
        point outside the model range or the calibration's anchor hull is
        refused by name."""
        calibration = self.build_calibration()
        points = ([(t, self.reference_voltage) for t in self.sweep_temperatures]
                  + [(self.reference_temperature, v) for v in self.sweep_voltages])
        envs = []
        for celsius, volts in points:
            try:
                env = EnvironmentCondition(celsius, volts)
                calibration.target_ber_at(env)
            except (ExtrapolationRefusedError, InvalidArgumentError) as exc:
                raise InvalidSpecError(
                    f"sweep point {celsius:g} C, {volts:g} V: {exc}") from None
            envs.append(env)
        return envs

    def session_seed(self, index: int) -> int:
        return derived_seed(self.master_seed, _TAG_SESSION, index)

    def get_session(self, name: str) -> tuple:
        for idx, s in enumerate(self.sessions):
            if s.name == name:
                return idx, s
        raise InvalidSpecError(f"no session named {name!r}")

    def validate(self) -> "ExperimentConfig":
        _check_schema_version(self.schema_version)
        for name in ("num_devices", "cells_per_device", "threads", "sweep_trials"):
            check_int(getattr(self, name), name, 1, error=InvalidSpecError)
        if self.randomness_mode not in ("per-signature", "concatenated"):
            raise InvalidSpecError(f"unknown randomness mode {self.randomness_mode!r}")
        _stage_bound("alpha", check_alpha, self.alpha)
        names = [s.name for s in self.sessions]
        if len(set(names)) != len(names):
            raise InvalidSpecError("session names must be unique")
        self.get_session(self.enroll_session)
        self.build_population_spec()
        calibration = self.build_calibration()
        for s in self.sessions:
            check_int(s.trials, f"session {s.name!r} trials", 1, error=InvalidSpecError)
            if s.target_ber is not None:
                _stage_bound(f"session {s.name!r} target_ber", calibrate_noise_for_ber,
                             s.target_ber, self.sigma_mismatch)
            elif not calibration.covers(s.env()):
                raise InvalidSpecError(
                    f"session {s.name!r} environment lies outside the "
                    "calibration anchor hull"
                )
        _stage_bound("histogram_bucket_percent", check_bucket_width,
                     self.histogram_bucket_percent)
        self.sweep_envs()
        _stage_bound("nist_tests", check_test_names, self.nist_tests or ())
        if self.masking_enabled:
            _stage_bound("masking", check_mask_thresholds,
                         self.bias_threshold, self.stability_threshold)
        return self


def _stage_bound(setting: str, check, *args) -> None:
    """Run a stage's own argument check at load time, as a spec error
    naming the setting."""
    try:
        check(*args)
    except InvalidArgumentError as exc:
        raise InvalidSpecError(f"{setting}: {exc}") from None


def near_square(n: int) -> tuple:
    """Grid (w, h) with w * h == n and w the largest divisor <= sqrt(n)."""
    w = int(math.isqrt(n))
    while n % w:
        w -= 1
    return w, n // w


def _check_schema_version(version: str):
    try:
        major = int(str(version).split(".")[0])
    except ValueError:
        raise InvalidSpecError(f"malformed schema version {version!r}") from None
    if major != int(SCHEMA_VERSION.split(".")[0]):
        raise InvalidSpecError(
            f"unsupported schema major in {version!r}; this build reads "
            f"{SCHEMA_VERSION}"
        )


# ---------------------------------------------------------------------------
# serialization

def to_dict(config: ExperimentConfig) -> dict:
    """The config's fields as plain data; tuples stay tuples, which json
    writes as lists."""
    return asdict(config)


def from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidSpecError(f"a config is a JSON object, not {type(data).__name__}")
    data = dict(data)
    _check_schema_version(data.get("schema_version", "0"))
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise InvalidSpecError(f"unknown config keys: {sorted(unknown)}")
    if "sessions" in data:
        data["sessions"] = tuple(
            s if isinstance(s, SessionConfig) else SessionConfig(**s)
            for s in data["sessions"]
        )
    config = ExperimentConfig(**data)
    return config.validate()


def serialize(config: ExperimentConfig) -> str:
    return json.dumps(to_dict(config), indent=2, sort_keys=True)


def parse(text: str) -> ExperimentConfig:
    return from_dict(json.loads(text))


def load(path) -> ExperimentConfig:
    """The config in the JSON file at path, or InvalidSpecError naming it."""
    data = read_json(path, "config", error=InvalidSpecError)
    try:
        return from_dict(data)
    except KeyError as exc:
        raise InvalidSpecError(f"{path}: config lacks key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc


def save(config: ExperimentConfig, path) -> None:
    write_json(path, to_dict(config))


def config_digest(config: ExperimentConfig) -> str:
    import hashlib

    canonical = json.dumps(to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# presets

def preset(name: str) -> ExperimentConfig:
    """Built-in experiment presets.

    paper-sim: simulation-scale study, 10000 devices of 64 cells with pure
    local mismatch and the temperature anchor table; battery runs on the
    concatenated response stream.
    paper-fpga: board-scale study, 10 devices of 5120 cells (five 1024-cell
    regions), four-trial repeatability at a 3.07% target bit-error rate,
    voltage anchor table, per-signature battery.
    d1..d4: placement study, 10 devices of 1024 cells at regional weight
    0.3 under the four built-in placements, noiseless readout.
    """
    if name == "paper-sim":
        return ExperimentConfig(
            num_devices=10000,
            cells_per_device=64,
            sigma_mismatch=0.25,
            weights=(0.0, 0.0, 1.0),
            placement="single-region",
            master_seed=424242,
            reference_temperature=25.0,
            reference_voltage=1.0,
            temperature_anchors=(
                (0.0, 0.0837),
                (20.0, 0.0123),
                (25.0, 0.0),
                (45.0, 0.0603),
                (65.0, 0.1149),
                (85.0, 0.1589),
            ),
            sessions=(SessionConfig("enroll", 25.0, 1.0, trials=1),),
            randomness_mode="concatenated",
            sweep_temperatures=(0.0, 20.0, 45.0, 65.0, 85.0),
        ).validate()
    if name == "paper-fpga":
        region_of = tuple(i // 1024 for i in range(5120))
        return ExperimentConfig(
            num_devices=10,
            cells_per_device=5120,
            sigma_mismatch=0.25,
            weights=(0.0, 0.0, 1.0),
            placement={
                "kind": "five-regions",
                "grid_width": 64,
                "grid_height": 80,
                "region_of": list(region_of),
                "adjacency": [],
            },
            master_seed=515151,
            reference_temperature=25.0,
            reference_voltage=3.3,
            voltage_anchors=((2.0, 0.12), (2.5, 0.023), (3.0, 0.026), (3.3, 0.0)),
            sessions=(
                SessionConfig("enroll", 25.0, 3.3, trials=1),
                SessionConfig("repeat", 25.0, 3.3, trials=4, target_ber=0.0307),
            ),
            randomness_mode="per-signature",
            sweep_voltages=(3.0, 2.5, 2.0),
        ).validate()
    if name in BUILTIN_PLACEMENTS:
        w_r = 0.3
        return ExperimentConfig(
            num_devices=10,
            cells_per_device=1024,
            sigma_mismatch=0.25,
            weights=(0.0, w_r, math.sqrt(1.0 - w_r**2)),
            placement=name,
            master_seed=616161,
            reference_temperature=25.0,
            reference_voltage=1.0,
            temperature_anchors=((25.0, 0.0),),
            sessions=(SessionConfig("enroll", 25.0, 1.0, trials=1),),
            randomness_mode="per-signature",
        ).validate()
    raise InvalidArgumentError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
    )
