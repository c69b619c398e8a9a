"""Command-line front end.

Subcommands mirror the pipeline stages (generate, readout, enroll, mask,
metrics, nist, sweep) plus the end-to-end run and a run comparison. Every
stage writes artifacts in the same formats the pipeline uses, so a file
produced by one subcommand feeds the next. Failures exit nonzero with a
stage-tagged diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import PRESET_NAMES, ExperimentConfig
from .config import load as load_config
from .config import preset as load_preset
from .errors import StageError
from .harness import (
    _human_report,
    _write_json,
    _write_mask,
    _write_nist_csv,
    compare_runs,
    default_output_dir,
    load_population,
    run_experiment,
    save_golden,
    save_population,
    load_golden,
    sweep_payload,
)
from .metrics import compute_report
from .population import generate_population
from .randomness import (
    TEST_NAMES,
    SuiteTable,
    aggregate_suite,
    read_ascii_sequences,
    read_packed_sequences,
    run_suite_block,
)
from .signature import (
    SignatureSet,
    eliminate_biased_positions,
    enroll_golden,
)


def _add_common(p: argparse.ArgumentParser, need_config: bool = True):
    if need_config:
        p.add_argument("--config", metavar="PATH", help="experiment config JSON")
        p.add_argument(
            "--preset",
            choices=PRESET_NAMES,
            help="use a built-in experiment config",
        )
        p.add_argument(
            "--seed", type=int, metavar="U64", help="override the master seed"
        )
        p.add_argument(
            "--threads", type=int, metavar="N", help="worker threads for readout"
        )
    p.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default: $PUFSIM_OUT_DIR or pufsim-out)",
    )


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise StageError("configure", "--config and --preset are mutually exclusive")
    if args.config:
        config = load_config(args.config)
    elif args.preset:
        config = load_preset(args.preset)
    else:
        raise StageError("configure", "one of --config or --preset is required")
    if args.seed is not None:
        config = replace(config, master_seed=int(args.seed)).validate()
    if args.threads is not None:
        config = replace(config, threads=int(args.threads)).validate()
    return config


def _out_dir(args) -> str:
    root = args.out or default_output_dir()
    os.makedirs(root, exist_ok=True)
    return root


def _load_mask(path, n: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    config = _resolve_config(args)
    root = _out_dir(args)
    population = generate_population(config.build_population_spec())
    path = os.path.join(root, "population.bin")
    save_population(path, population)
    print(f"wrote {path} ({population.num_devices} devices x "
          f"{population.cells_per_device} cells)")
    return 0


def cmd_readout(args) -> int:
    from .harness import _session_readout

    config = _resolve_config(args)
    root = _out_dir(args)
    if args.population:
        population = load_population(args.population)
    else:
        population = generate_population(config.build_population_spec())
    names = args.session or [s.name for s in config.sessions]
    threads = config.threads
    for name in names:
        idx, session_cfg = config.get_session(name)
        sigs = _session_readout(config, population, session_cfg, idx, threads)
        path = os.path.join(root, f"signatures_{name}.bin")
        sigs.to_binary(path)
        sigs.to_csv(os.path.join(root, f"signatures_{name}.csv"))
        print(f"wrote {path} ({sigs.num_devices} devices x {sigs.trials} trials "
              f"x {sigs.n} bits)")
    return 0


def cmd_enroll(args) -> int:
    root = _out_dir(args)
    sigs = SignatureSet.from_binary(args.signatures)
    golden = enroll_golden(sigs)
    path = os.path.join(root, "golden.bin")
    save_golden(path, golden)
    print(f"wrote {path} (mean stability {golden.stability.mean():.6g})")
    return 0


def cmd_mask(args) -> int:
    root = _out_dir(args)
    sigs = SignatureSet.from_binary(args.signatures)
    mask = eliminate_biased_positions(
        sigs,
        bias_threshold=args.bias_threshold,
        stability_threshold=args.stability_threshold,
    )
    path = os.path.join(root, "mask.json")
    _write_mask(path, mask)
    print(f"wrote {path} (kept {int(mask.sum())} of {mask.size} positions)")
    return 0


def cmd_metrics(args) -> int:
    root = _out_dir(args)
    sigs = SignatureSet.from_binary(args.signatures)
    golden = load_golden(args.golden) if args.golden else enroll_golden(sigs)
    mask = _load_mask(args.mask, sigs.n) if args.mask else sigs.mask
    payload = {"sessions": {"input": compute_report(sigs, golden, mask=mask)}}
    _write_json(os.path.join(root, "metrics.json"), payload)
    sys.stdout.write(_human_report(payload))
    return 0


def _suite_by_length(sequences, alpha: float, tests) -> SuiteTable:
    """Battery results in input order for a (sequences, n) array, or for a
    list of 1-D sequences run in one block per length. The per-length
    tables are joined into one; a test a length does not run is NaN there."""
    if isinstance(sequences, np.ndarray):
        return run_suite_block(sequences, alpha=alpha, tests=tests)
    p, statistics = np.full((2, len(sequences), len(TEST_NAMES)), np.nan)
    for n in dict.fromkeys(seq.size for seq in sequences):
        rows = [i for i, seq in enumerate(sequences) if seq.size == n]
        part = run_suite_block(np.stack([sequences[i] for i in rows]),
                               alpha=alpha, tests=tests)
        cells = np.ix_(rows, [TEST_NAMES.index(t) for t in part.tests])
        p[cells], statistics[cells] = part.p_values, part.statistics
    ran = ~np.isnan(p).all(axis=0)  # the columns some length ran
    return SuiteTable(tuple(t for t, r in zip(TEST_NAMES, ran) if r),
                      p[:, ran], statistics[:, ran], alpha)


def cmd_nist(args) -> int:
    root = _out_dir(args)
    if args.format == "ascii":
        sequences = read_ascii_sequences(args.input)
    elif args.format == "packed":
        if not args.bits:
            raise StageError("randomness", "--bits is required with --format packed")
        sequences = read_packed_sequences(args.input, args.bits)
    else:
        sigs = SignatureSet.from_binary(args.input)
        sequences = sigs.bits[:, 0, sigs.kept_positions()]
    if args.concatenate:
        sequences = np.concatenate(sequences)[None]
    tests = tuple(args.tests) if args.tests else None
    table = _suite_by_length(sequences, args.alpha, tests)
    for idx, name, p, passed in table.cells():
        print(f"seq {idx:4d}  {name:24s}  p={p:.6g}  "
              f"{'pass' if passed else 'FAIL'}")
    if len(table) >= 2:
        agg = aggregate_suite(table, alpha=args.alpha)
        print(f"aggregate over {agg.num_sequences} sequences:")
        for name, row in agg.rows.items():
            print(f"  {name:24s}  passing {agg.passing_string(name)}"
                  f"  uniformity p={row['uniformity_p']:.6g}")
    path = os.path.join(root, "nist.csv")
    _write_nist_csv(path, table)
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    root = _out_dir(args)
    if args.population:
        population = load_population(args.population)
    else:
        population = generate_population(config.build_population_spec())
    payload = sweep_payload(config, population, config.threads)
    if payload is None:
        raise StageError("sweep", "config defines no sweep points")
    _write_json(os.path.join(root, "sweep.json"), payload)
    for row in payload:
        print(f"T={row['temperature_celsius']:g}C V={row['supply_voltage_volts']:g}V"
              f"  intra-HD {row['mean_intra_hd_percent']:.6g}%")
    return 0


def cmd_run(args) -> int:
    config = _resolve_config(args)
    manifest, path = run_experiment(
        config,
        out_dir=args.out,
        threads=config.threads,
        seed=None,
    )
    print(f"wrote {path} (status {manifest.status}, "
          f"{len(manifest.artifacts)} artifacts)")
    return 0


def cmd_compare(args) -> int:
    deltas = compare_runs(args.manifest_a, args.manifest_b)
    print(json.dumps(deltas, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufsim",
        description="power-up signature simulation and evaluation harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a device population")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("readout", help="read signatures for configured sessions")
    _add_common(p)
    p.add_argument("--population", metavar="PATH", help="population snapshot")
    p.add_argument("--session", action="append", metavar="NAME",
                   help="session to read (repeatable; default all)")
    p.set_defaults(func=cmd_readout)

    p = sub.add_parser("enroll", help="derive golden signatures from a readout")
    _add_common(p, need_config=False)
    p.add_argument("signatures", help="signature set (.bin)")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("mask", help="eliminate biased or unstable positions")
    _add_common(p, need_config=False)
    p.add_argument("signatures", help="enrollment signature set (.bin)")
    p.add_argument("--bias-threshold", type=float, default=0.3)
    p.add_argument("--stability-threshold", type=float, default=0.9)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("metrics", help="quality metrics for a signature set")
    _add_common(p, need_config=False)
    p.add_argument("signatures", help="signature set (.bin)")
    p.add_argument("--golden", metavar="PATH", help="golden snapshot")
    p.add_argument("--mask", metavar="PATH",
                   help="mask.json to apply (default: the file's own mask, if any)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("nist", help="run the randomness battery")
    _add_common(p, need_config=False)
    p.add_argument("input", help="sequence file")
    p.add_argument("--format", choices=("ascii", "packed", "signatures"),
                   default="signatures")
    p.add_argument("--bits", type=int, help="bits per sequence (packed format)")
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--tests", nargs="+", metavar="NAME",
                   help="explicit test subset (default: all that fit)")
    p.add_argument("--concatenate", action="store_true",
                   help="join all sequences into one before testing")
    p.set_defaults(func=cmd_nist)

    p = sub.add_parser("sweep", help="intra-HD across environment points")
    _add_common(p)
    p.add_argument("--population", metavar="PATH", help="population snapshot")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("run", help="full pipeline with manifest")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="diff metrics between two runs")
    p.add_argument("manifest_a")
    p.add_argument("manifest_b")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
