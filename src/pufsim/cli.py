"""Command-line front end.

Subcommands mirror the pipeline stages (generate, readout, enroll, mask,
metrics, nist, sweep) plus the end-to-end run and a run comparison. Each
stage subcommand calls the harness stage function that `run` chains, so it
writes the same files in the same formats, and a file produced by one
subcommand feeds the next. Failures exit nonzero with a stage-tagged
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .config import PRESET_NAMES, ExperimentConfig
from .config import load as load_config
from .config import preset as load_preset
from .errors import InvalidArgumentError, StageError
from .harness import (
    battery_stage,
    compare_runs,
    enroll_stage,
    generate_stage,
    load_golden,
    load_mask,
    load_population,
    mask_stage,
    metrics_stage,
    output_root,
    readout_stage,
    run_experiment,
    sweep_stage,
    writer,
)
from .population import generate_population
from .randomness import aggregate_suite, read_ascii_sequences, read_packed_sequences
from .signature import SignatureSet, check_golden, enroll_golden


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
            "--threads", type=int, metavar="N",
            help="accepted for compatibility; no effect, the readout is serial"
        )
    p.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default: the config's output_dir, "
        "$PUFSIM_OUT_DIR or pufsim-out)",
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


def _writer(args, config=None):
    """An emit into the command's output root, and the {artifact name: path}
    it has written."""
    paths = {}
    return writer(output_root(args.out, config), paths.__setitem__), paths


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    config = _resolve_config(args)
    emit, paths = _writer(args, config)
    population = generate_stage(emit, config)
    print(f"wrote {paths['population']} ({population.num_devices} devices x "
          f"{population.cells_per_device} cells)")
    return 0


def _population(args, config):
    """The config's population: generated, or read from --population, whose
    spec must then be the config's."""
    spec = config.build_population_spec()
    if not args.population:
        return generate_population(spec)
    population = load_population(args.population)
    differ = [f.name for f in fields(spec)
              if getattr(spec, f.name) != getattr(population.spec, f.name)]
    if differ:
        raise InvalidArgumentError(f"{args.population}: the snapshot's "
                                   f"{', '.join(differ)} differ from the config's")
    return population


def cmd_readout(args) -> int:
    config = _resolve_config(args)
    emit, paths = _writer(args, config)
    population = _population(args, config)
    for name in args.session or [s.name for s in config.sessions]:
        sigs = readout_stage(emit, config, population, [name])[name]
        print(f"wrote {paths[f'signatures_{name}']} ({sigs.num_devices} devices "
              f"x {sigs.trials} trials x {sigs.n} bits)")
    return 0


def cmd_enroll(args) -> int:
    emit, paths = _writer(args)
    golden = enroll_stage(emit, SignatureSet.from_binary(args.signatures))
    stability = golden.counts.sum(dtype=np.int64) / (golden.trials * golden.counts.size)
    print(f"wrote {paths['golden']} (mean stability {stability:.6g})")
    return 0


def cmd_mask(args) -> int:
    emit, paths = _writer(args)
    mask = mask_stage(emit, SignatureSet.from_binary(args.signatures),
                      args.bias_threshold, args.stability_threshold)
    print(f"wrote {paths['mask']} (kept {int(mask.sum())} of {mask.size} positions)")
    return 0


def cmd_metrics(args) -> int:
    emit, _ = _writer(args)
    sigs = SignatureSet.from_binary(args.signatures)
    if args.golden:
        golden = load_golden(args.golden)
        try:
            check_golden(sigs, golden)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{args.golden}: {exc}") from None
    else:
        golden = enroll_golden(sigs)
    mask = load_mask(args.mask, sigs.n) if args.mask else sigs.mask
    sys.stdout.write(metrics_stage(emit, {"input": sigs}, golden, mask))
    return 0


def cmd_nist(args) -> int:
    emit, paths = _writer(args)
    if args.format == "ascii":
        sequences = read_ascii_sequences(args.input)
    elif args.format == "packed":
        if args.bits is None:
            raise StageError("randomness", "--bits is required with --format packed")
        sequences = read_packed_sequences(args.input, args.bits)
    else:
        sigs = SignatureSet.from_binary(args.input)
        sequences = sigs.bits[:, 0, sigs.kept_positions()]
    if args.concatenate and len(sequences):
        sequences = np.concatenate(sequences)[None]
    tests = tuple(args.tests) if args.tests else None
    table = battery_stage(emit, sequences, args.alpha, tests)
    for idx, name, p, passed in table.cells():
        print(f"seq {idx:4d}  {name:24s}  p={p:.6g}  "
              f"{'pass' if passed else 'FAIL'}")
    if len(table) >= 2:
        agg = aggregate_suite(table, alpha=args.alpha)
        print(f"aggregate over {agg.num_sequences} sequences:")
        for name, row in agg.rows.items():
            print(f"  {name:24s}  passing {agg.passing_string(name)}"
                  f"  uniformity p={row['uniformity_p']:.6g}")
    print(f"wrote {paths['nist_csv']}")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    emit, _ = _writer(args, config)
    rows = sweep_stage(emit, config, _population(args, config))
    if rows is None:
        raise StageError("sweep", "config defines no sweep points")
    for row in rows:
        print(f"T={row['temperature_celsius']:g}C V={row['supply_voltage_volts']:g}V"
              f"  intra-HD {row['mean_intra_hd_percent']:.6g}%")
    return 0


def cmd_run(args) -> int:
    config = _resolve_config(args)
    manifest, path = run_experiment(config, out_dir=args.out)
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
                   help="mask file to apply (default: the file's own mask, if any)")
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
