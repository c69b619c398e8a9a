"""Set-up step of the pipeline benchmark, run in a fresh process.

    python3 perfbench/configure.py WORKLOAD SEED PATH

Imports pufsim, builds and validates the workload config for SEED and
writes it to PATH; prints the seconds that took as the last line.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import workloads  # imports pufsim

    workloads.write_config(workload, seed, path)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
