"""Behavioral simulator and evaluation toolkit for memory-in-logic
power-up signatures: process-variation population models, environmental
noise calibration, enrollment and bias masking, Hamming-distance quality
metrics, and a statistical randomness battery.
"""

__version__ = "0.1.0"

from .entropy import (  # noqa: E402
    EnvironmentCondition,
    NoiseCalibration,
    calibrate_noise_for_ber,
    expected_flip_probability,
)
from .errors import (  # noqa: E402
    EmptySignatureError,
    ExtrapolationRefusedError,
    InsufficientLengthError,
    InvalidArgumentError,
    InvalidSpecError,
    StageError,
)
from .population import (  # noqa: E402
    DevicePopulation,
    PlacementConfig,
    PopulationSpec,
    builtin_placement,
    generate_population,
    inject_position_bias,
    iter_device_mismatch,
    regional_overlap_score,
    unbiased_sequences,
)
from .signature import (  # noqa: E402
    GoldenSignature,
    ReadoutSession,
    SignatureSet,
    apply_mask,
    eliminate_biased_positions,
    enroll_golden,
    read_signatures,
)
from .metrics import (  # noqa: E402
    compute_report,
    hd_histogram,
    inter_hd,
    intra_hd,
    mean_intra_hd,
    robustness_sweep,
)
from .randomness import (  # noqa: E402
    SuiteAggregate,
    SuiteTable,
    TestResult,
    aggregate_suite,
    run_suite,
    run_suite_block,
)
from .config import ExperimentConfig, SessionConfig, preset  # noqa: E402
from .harness import compare_runs, run_experiment  # noqa: E402

__all__ = [
    "__version__",
    "EnvironmentCondition",
    "NoiseCalibration",
    "calibrate_noise_for_ber",
    "expected_flip_probability",
    "EmptySignatureError",
    "ExtrapolationRefusedError",
    "InsufficientLengthError",
    "InvalidArgumentError",
    "InvalidSpecError",
    "StageError",
    "DevicePopulation",
    "PlacementConfig",
    "PopulationSpec",
    "builtin_placement",
    "generate_population",
    "inject_position_bias",
    "iter_device_mismatch",
    "regional_overlap_score",
    "GoldenSignature",
    "ReadoutSession",
    "SignatureSet",
    "apply_mask",
    "eliminate_biased_positions",
    "enroll_golden",
    "read_signatures",
    "compute_report",
    "hd_histogram",
    "inter_hd",
    "intra_hd",
    "mean_intra_hd",
    "robustness_sweep",
    "SuiteAggregate",
    "SuiteTable",
    "TestResult",
    "aggregate_suite",
    "run_suite",
    "run_suite_block",
    "ExperimentConfig",
    "SessionConfig",
    "preset",
    "compare_runs",
    "run_experiment",
    "unbiased_sequences",
]
