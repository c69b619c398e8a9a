"""Workload definitions and output checks for the pipeline benchmark.

Every input is generated from the benchmark seed. The pipeline workloads
are experiment configs written as JSON and run through the CLI; the
battery workload is a parameter set for `unbiased_sequences`.

The statistical checks use tolerances derived from the simulation model,
not byte digests, so a declared change to the random streams still passes
as long as the statistics hold. Each tolerance is six standard deviations
(or a binomial tail of 1e-6), so a correct program fails a check on a
given seed with probability far below one in a million.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
from scipy.special import ndtr

from pufsim.config import ExperimentConfig, SessionConfig, preset, save
from pufsim.randomness import TEST_NAMES

PIPELINES = ("sim-population", "board-repeat")
WORKLOADS = PIPELINES + ("battery",)

# battery workload: sequences per pass, bits per sequence, significance
BATTERY_SEQUENCES = 250
BATTERY_BITS = 100_000
BATTERY_ALPHA = 0.001

Z_TOL = 6.0  # standard deviations allowed by the Gaussian checks
CHECK_TAIL = 1e-6  # tail probability allowed by the binomial check

_BIAS_COLUMNS = tuple(range(0, 32, 4))  # 8 positions in row 0
_BIAS_OFFSET = 0.5


def master_seed(seed: int) -> int:
    """Map the benchmark seed onto pufsim's unsigned 64-bit seed range."""
    return int(seed) % 2**64


def build_config(workload: str, seed: int):
    """Validated ExperimentConfig for a pipeline workload; a plain dict of
    parameters for the battery."""
    if workload == "sim-population":
        return replace(preset("paper-sim"), master_seed=master_seed(seed),
                       threads=1).validate()
    if workload == "board-repeat":
        sim = preset("paper-sim")
        w_r = 0.3
        return ExperimentConfig(
            num_devices=1000,
            cells_per_device=1024,
            sigma_mismatch=0.25,
            weights=(0.0, w_r, math.sqrt(1.0 - w_r**2)),
            placement="d2",
            bias={"positions": [[0, c] for c in _BIAS_COLUMNS],
                  "offset": _BIAS_OFFSET},
            master_seed=master_seed(seed),
            reference_temperature=25.0,
            reference_voltage=1.0,
            temperature_anchors=sim.temperature_anchors,
            sessions=(
                SessionConfig("enroll", 25.0, 1.0, trials=5, target_ber=0.02),
                SessionConfig("hot", 85.0, 1.0, trials=5),
            ),
            randomness_mode="per-signature",
            sweep_temperatures=(45.0, 85.0),
            sweep_trials=2,
            threads=2,
        ).validate()
    if workload == "battery":
        return {
            "sequences": BATTERY_SEQUENCES,
            "bits": BATTERY_BITS,
            "alpha": BATTERY_ALPHA,
            "master_seed": master_seed(seed),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_config(workload: str, seed: int, path: str) -> None:
    config = build_config(workload, seed)
    if workload == "battery":
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        save(config, path)


# ---------------------------------------------------------------------------
# model-derived expectations


def _mismatch_correlation(config: ExperimentConfig) -> np.ndarray:
    """Correlation of the static mismatch between every pair of cells of
    one device: w_g^2, plus w_r^2 within a region and w_r^2 / 2 between
    regions of one adjacency component; 1 on the diagonal."""
    placement = config.build_placement()
    region = np.asarray(placement.region_of)
    comp_of = placement.adjacency_components()
    comp = np.array([comp_of.get(r, -1 - r) for r in placement.region_of])
    w_g, w_r, _ = config.weights
    shared = np.where(region[:, None] == region[None, :], 1.0,
                      np.where(comp[:, None] == comp[None, :], 0.5, 0.0))
    rho = w_g**2 + w_r**2 * shared
    np.fill_diagonal(rho, 1.0)
    return rho


def _bias_offsets(config: ExperimentConfig) -> np.ndarray:
    placement = config.build_placement()
    offsets = np.zeros(config.cells_per_device)
    for (row, col), value in (config.build_bias_map(placement) or {}).items():
        offsets[row * placement.grid_width + col] = value
    return offsets


def _session_noise_sigma(config: ExperimentConfig, session: SessionConfig) -> float:
    """Noise magnitude from the closed form BER = atan(sigma_n/sigma_m)/pi,
    with the BER interpolated from the temperature anchors (the sessions
    of these workloads sit at the reference voltage)."""
    ber = session.target_ber
    if ber is None:
        temps, bers = zip(*config.temperature_anchors)
        ber = float(np.interp(session.temperature_celsius, temps, bers))
    return config.sigma_mismatch * math.tan(math.pi * ber)


class Expectations:
    """Expected values and tolerances for one pipeline config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        d = config.num_devices
        self.offsets = _bias_offsets(config)
        keep = np.flatnonzero(self.offsets == 0)
        self.kept = keep.size
        rho = _mismatch_correlation(config)
        n = rho.shape[0]
        off_diag = rho - np.eye(n)
        # a thresholded bivariate normal has covariance at most
        # asin(rho) / (2 pi), whatever the thresholds and extra noise
        var_device = (n / 4 + np.arcsin(off_diag).sum() / (2 * math.pi)) / n**2
        self.ones_tol = Z_TOL * math.sqrt(var_device / d)
        # per kept column, inter-HD - 50% is (1 - Z_j^2) / (2 (d - 1)) with
        # Z_j standard normal; Cov(Z_i^2, Z_j^2) = 2 rho_bits(i, j)^2
        rho_bits = (2 / math.pi) * np.arcsin(rho[np.ix_(keep, keep)])
        sd = math.sqrt(2 * (rho_bits**2).sum()) / keep.size / (2 * (d - 1))
        self.inter_tol = 100 * Z_TOL * sd

    def ones_fraction(self, session: SessionConfig) -> float:
        """Expected fraction of ones in one noisy read: 1/2 at unbiased
        positions, Phi(b / sqrt(sigma_m^2 + sigma_eff^2)) at biased ones."""
        cfg = self.config
        sigma_n = _session_noise_sigma(cfg, session)
        b = self.offsets
        sigma_eff = sigma_n * (1 + cfg.bias_noise_coupling * np.abs(b)
                               / cfg.sigma_mismatch)
        p = ndtr(b / np.sqrt(cfg.sigma_mismatch**2 + sigma_eff**2))
        return float(p.mean())


# ---------------------------------------------------------------------------
# pipeline checks


def load_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def check_pipeline(expect: Expectations, out_dir: str, manifest: dict,
                   first_manifest) -> list:
    """Failures of one pipeline run, as messages; empty when it passed.

    first_manifest is the first run's manifest (None for the first run):
    every artifact must hash and size exactly as it did there.
    """
    failures = []
    if manifest["status"] != "complete":
        return [f"manifest status {manifest['status']!r}: {manifest['error']}"]
    if first_manifest is not None:
        first = {a["name"]: (a["sha256"], a["bytes"])
                 for a in first_manifest["artifacts"]}
        now = {a["name"]: (a["sha256"], a["bytes"]) for a in manifest["artifacts"]}
        if now != first:
            changed = sorted(k for k in first.keys() | now.keys()
                             if first.get(k) != now.get(k))
            failures.append(f"artifacts differ from the first run: {changed}")
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        sessions = json.load(fh)["sessions"]
    cfg = expect.config
    for session in cfg.sessions:
        entry = sessions[session.name]
        masked = entry.get("masked", entry)
        inter = masked["inter_hd_percent"]
        if abs(inter - 50.0) > expect.inter_tol:
            failures.append(f"{session.name}: inter-HD {inter!r}% not within "
                            f"{expect.inter_tol:.3g} of 50%")
        ones, want = entry["ones_fraction"], expect.ones_fraction(session)
        if abs(ones - want) > expect.ones_tol:
            failures.append(f"{session.name}: ones fraction {ones!r} not within "
                            f"{expect.ones_tol:.3g} of {want:.6f}")
        if "masked" in entry and entry["masked"]["effective_length"] != expect.kept:
            failures.append(f"{session.name}: mask kept "
                            f"{entry['masked']['effective_length']} positions, "
                            f"expected {expect.kept}")
    # every non-enrollment session of these workloads reads under more
    # noise than enrollment, so its intra-HD must be higher
    enroll = sessions[cfg.enroll_session]["intra_hd_percent"]
    for name, entry in sessions.items():
        if name != cfg.enroll_session and not enroll < entry["intra_hd_percent"]:
            failures.append(f"intra-HD of {cfg.enroll_session} ({enroll!r}) is not "
                            f"below {name} ({entry['intra_hd_percent']!r})")
    return failures


# ---------------------------------------------------------------------------
# battery checks


def rejection_bound(sequences: int, alpha: float) -> int:
    """Largest per-test rejection count that a correct battery exceeds
    with probability at most CHECK_TAIL."""
    pmf = cdf = (1 - alpha) ** sequences
    k = 0
    while 1 - cdf > CHECK_TAIL:
        pmf *= (sequences - k) / (k + 1) * alpha / (1 - alpha)
        k += 1
        cdf += pmf
    return k


def check_battery_pass(params: dict, results: list, aggregate,
                       first_results) -> list:
    """Failure message per sequence (None where it passed) of one pass.

    A sequence fails when run_suite raised (its result is None), skipped a
    test, or gave p-values that differ from the first pass (first_results
    is None for the first pass). Every sequence of the pass fails when the
    pass is short, when a test rejects more sequences than the binomial
    bound allows, or when aggregate_suite miscounts the passing sequences.
    """
    out = []
    for i, res in enumerate(results):
        if res is None:
            out.append("run_suite raised")
        elif tuple(res) != TEST_NAMES:
            out.append(f"ran tests {sorted(res)}")
        elif first_results is not None and _p_values(res) != _p_values(
                first_results[i]):
            out.append("p-values differ from the first pass")
        else:
            out.append(None)
    n = params["sequences"]
    pass_failures = []
    if len(results) != n:
        pass_failures.append(f"{len(results)} sequences of {n}")
    bound = rejection_bound(n, params["alpha"])
    for name in TEST_NAMES:
        passing = sum(1 for r in results if r and name in r and r[name].passed)
        if n - passing > bound:
            pass_failures.append(f"{name} rejected {n - passing} of {n} "
                                 f"(bound {bound})")
        if aggregate.rows.get(name, {}).get("passing") != passing:
            pass_failures.append(f"aggregate passing count of {name} is wrong")
    if pass_failures:
        msg = "; ".join(pass_failures)
        return [msg] * max(n, len(results))
    return out


def _p_values(results: dict) -> list:
    return [results[name].p_values for name in results]
