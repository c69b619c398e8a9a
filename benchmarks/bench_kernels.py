"""Best-of-three wall time of the three public kernels on random inputs
(the pairwise kernel at --devices x --bits, by default board-repeat's
1000 x 1024, and at sim-population's paper-sim shape, 10000 x 64), of
the packed intra-HD path (`metrics.mean_intra_hd`) at a session shape,
with and without a position mask, and of the randomness
battery: each test's batched core on an S x N block, by default the
battery workload's one 1e5-bit sequence (shared intermediates, the
block's packing among them, built inside the timed call), and
`run_suite_block` on that block, each with its tracemalloc peak, and one
single-sequence `run_suite` call; each core and `run_suite_block` again
on one row of paper-sim's concatenated stream, 10000 x 64 = 640 000
bits, also with their peaks; then the per-signature battery stage at
board-repeat's shape, 1000 x 1016: `run_suite_block`, `aggregate_suite`
on its table and `_write_nist_csv`. `--readout D T N` times
`read_signatures` on a D-device, N-cell population of the paper-sim
preset over a T-trial session at a 10% target bit-error rate, and at the
paper-sim shape, 10000 x 1 x 64; at each shape it also prints the median
minor page faults (`ru_minflt`) per `read_signatures` call, beside the
pages of the (D, T, N) output array that a call may fault in, and times
`SignatureSet.to_csv` and `to_binary` on the result.
`generate_population` is timed best of five at the paper-sim shape
(10000 x 64, pure local) and at the board-repeat shape (the d2 preset at
1000 x 1024, weights (0, 0.3, sqrt(0.91))).

`--battery-loop S N` runs only the criterion-8 loop instead: S N-bit
`unbiased_sequences`, each through one `run_suite` call, and prints the
generation ms per sequence, the `run_suite` ms per call and the medians
of the minor page faults (`ru_minflt`) each generated sequence and each
`run_suite` call took. It runs alone so that the faults count the loop's
own heap, not the one the other timings leave. The wall time and peak RSS
of `pufsim run` are measured by benchmarks/bench_pipeline.py.

Run:  python3 benchmarks/bench_kernels.py
      python3 benchmarks/bench_kernels.py --battery-loop 250 100000
"""

import argparse
import os
import resource
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from pufsim import kernels, randomness
from pufsim.config import preset
from pufsim.entropy import EnvironmentCondition
from pufsim.harness import _write_nist_csv, unbiased_sequences
from pufsim.metrics import mean_intra_hd
from pufsim.population import generate_population
from pufsim.signature import (
    ReadoutSession, SignatureSet, enroll_golden, read_signatures,
)


PAPER_SIM_SHAPE = (10000, 64)  # devices, bits
PER_SIGNATURE_SHAPE = (1000, 1016)  # board-repeat's masked golden: rows, bits
CONCATENATED_BITS = 640_000  # paper-sim's concatenated stream, 10000 x 64
READOUT_BER = 0.1  # inside the paper-sim sweep's 6-16% band


def _time(label: str, fn, *args, repeat: int = 3, peak: bool = False) -> None:
    """Print fn's best wall time of `repeat` calls and, with peak, the
    tracemalloc peak of one more call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    line = f"{label:40s} {best*1e3:9.2f} ms"
    if peak:
        tracemalloc.start()
        try:
            fn(*args)
            line += f" {tracemalloc.get_traced_memory()[1] / 2**20:9.2f} MiB peak"
        finally:
            tracemalloc.stop()
    print(line)


def _time_cores(block: np.ndarray) -> None:
    """Time each battery core that fits the block's row length, and
    run_suite_block, each with its tracemalloc peak."""
    s, n = block.shape
    for name, core in randomness._CORES.items():
        if n >= randomness._MIN_LENGTH[name]:
            _time(f"{name} core {s}x{n}",
                  lambda c=core: c(randomness._Block(block), None, False), peak=True)
    _time(f"run_suite_block {s}x{n}", randomness.run_suite_block, block, peak=True)


def _time_readout(d: int, t: int, n: int, seed: int) -> None:
    config = replace(preset("paper-sim"), num_devices=d, cells_per_device=n,
                     master_seed=seed)
    population = generate_population(config.build_population_spec())
    session = ReadoutSession(EnvironmentCondition(25.0, 1.0), t,
                             config.session_seed(0), config.build_calibration(),
                             target_ber=READOUT_BER)
    shape = f"{d}x{t}x{n}"
    _time(f"readout {shape}", read_signatures, population, session)
    faults = []
    for _ in range(5):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sigs = read_signatures(population, session)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    print(f"{'readout minor faults per call':40s} {statistics.median(faults):9.0f} "
          f"(median of 5; output array {-(-d * t * n // resource.getpagesize())} pages)")
    with tempfile.TemporaryDirectory() as tmp:
        _time(f"to_csv {shape}", sigs.to_csv, os.path.join(tmp, "sigs.csv"))
        _time(f"to_binary {shape}", sigs.to_binary, os.path.join(tmp, "sigs.bin"))


def _battery_loop(s: int, n: int, seed: int) -> None:
    gen_s = suite_s = 0.0
    gen_faults, suite_faults = [], []
    sequences = unbiased_sequences(s, n, seed)
    for _ in range(s):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        seq = next(sequences)
        t1 = time.perf_counter()
        f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        randomness.run_suite(seq)
        t2 = time.perf_counter()
        f2 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        gen_s += t1 - t0
        suite_s += t2 - t1
        gen_faults.append(f1 - f0)
        suite_faults.append(f2 - f1)
    print(f"{'generation per sequence':40s} {gen_s / s * 1e3:9.2f} ms")
    print(f"{'run_suite per call':40s} {suite_s / s * 1e3:9.2f} ms")
    print(f"{'generation minor faults per sequence':40s} "
          f"{statistics.median(gen_faults):9.0f} (median of {s})")
    print(f"{'run_suite minor faults per call':40s} "
          f"{statistics.median(suite_faults):9.0f} (median of {s})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=1000)
    parser.add_argument("--bits", type=int, default=1024)
    parser.add_argument("--matrices", type=int, default=20000)
    parser.add_argument("--blocks", type=int, default=50000)
    parser.add_argument("--block-size", type=int, default=128)
    parser.add_argument("--session", type=int, nargs=3, default=(1000, 5, 1024),
                        metavar=("D", "T", "N"),
                        help="intra-HD session shape: devices, trials, bits")
    parser.add_argument("--battery", type=int, nargs=2, default=(1, 100_000),
                        metavar=("S", "N"),
                        help="battery block shape: sequences, bits per sequence")
    parser.add_argument("--readout", type=int, nargs=3, default=(1000, 5, 1024),
                        metavar=("D", "T", "N"),
                        help="readout shape: devices, trials per session, bits")
    parser.add_argument("--battery-loop", type=int, nargs=2, metavar=("S", "N"),
                        help="time only the generator loop of S N-bit sequences "
                             "through run_suite")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.battery_loop:
        _battery_loop(*args.battery_loop, args.seed)
        return

    for name, d in (("paper-sim", 10000), ("d2", 1000)):
        spec = replace(preset(name), num_devices=d).build_population_spec()
        _time(f"generate-population {name} {d}x{spec.cells_per_device}",
              generate_population, spec, repeat=5)
    for shape in (args.readout, (PAPER_SIM_SHAPE[0], 1, PAPER_SIM_SHAPE[1])):
        _time_readout(*shape, args.seed)
    rng = np.random.default_rng(args.seed)
    for d, n in ((args.devices, args.bits), PAPER_SIM_SHAPE):
        bits = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
        _time(f"pairwise-hd {d}x{n}", kernels.pairwise_hd_stats,
              kernels.pack_bits(bits), n)
    rows = rng.integers(0, 1 << 32, size=(args.matrices, 32), dtype=np.uint64)
    _time(f"gf2-rank32 {args.matrices} mats", kernels.gf2_rank32, rows)
    blocks = rng.integers(0, 2, size=(args.blocks, args.block_size), dtype=np.uint8)
    _time(f"longest-run {args.blocks}x{args.block_size}", kernels.longest_one_run,
          np.packbits(blocks, axis=1, bitorder="little"))
    d, t, n = args.session
    sigs = SignatureSet(rng.integers(0, 2, size=(d, t, n), dtype=np.uint8))
    golden = enroll_golden(SignatureSet(sigs.bits[:, :1, :]))
    shape = f"{d}x{t}x{n}"
    _time(f"mean-intra-hd {shape}", mean_intra_hd, sigs, golden)
    mask = np.ones(n, dtype=np.uint8)
    mask[rng.choice(n, size=n // 128, replace=False)] = 0
    _time(f"mean-intra-hd {shape} masked", mean_intra_hd,
          SignatureSet(sigs.bits, mask), golden)
    s, n = args.battery
    block = rng.integers(0, 2, size=(s, n), dtype=np.uint8)
    _time_cores(block)
    _time(f"run_suite 1x{n}", randomness.run_suite, block[0])
    _time_cores(rng.integers(0, 2, size=(1, CONCATENATED_BITS), dtype=np.uint8))
    s, n = PER_SIGNATURE_SHAPE
    block = rng.integers(0, 2, size=(s, n), dtype=np.uint8)
    table = randomness.run_suite_block(block)
    _time(f"run_suite_block {s}x{n}", randomness.run_suite_block, block)
    _time(f"aggregate_suite {s}x{n}", randomness.aggregate_suite, table)
    with tempfile.TemporaryDirectory() as tmp:
        _time(f"_write_nist_csv {s}x{n}", _write_nist_csv,
              os.path.join(tmp, "nist.csv"), table)


if __name__ == "__main__":
    main()
