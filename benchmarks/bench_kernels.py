"""Best-of-three wall time of the three public kernels on random inputs.

Run:  python3 benchmarks/bench_kernels.py --devices 2000 --bits 1024
"""

import argparse
import time

import numpy as np

from pufsim import kernels


def _time(label: str, fn, *args, repeat: int = 3) -> None:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    print(f"{label:28s} {best*1e3:9.2f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=2000)
    parser.add_argument("--bits", type=int, default=1024)
    parser.add_argument("--matrices", type=int, default=20000)
    parser.add_argument("--blocks", type=int, default=50000)
    parser.add_argument("--block-size", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    bits = rng.integers(0, 2, size=(args.devices, args.bits), dtype=np.uint8)
    _time(f"pairwise-hd {args.devices}x{args.bits}",
          kernels.pairwise_hd_stats, kernels.pack_bits(bits), args.bits)
    rows = rng.integers(0, 1 << 32, size=(args.matrices, 32), dtype=np.uint64)
    _time(f"gf2-rank32 {args.matrices} mats", kernels.gf2_rank32, rows)
    blocks = rng.integers(0, 2, size=(args.blocks, args.block_size), dtype=np.uint8)
    _time(f"longest-run {args.blocks}x{args.block_size}",
          kernels.longest_one_run, blocks)


if __name__ == "__main__":
    main()
