"""Time the benchmark's set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR

Imports nlslab, builds the ground profiles and writes and loads the
workload's configs into OUT_DIR, then prints the seconds this took.
``run.py`` starts it with the package on ``PYTHONPATH``.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads

    workloads.WORKLOADS[name].prepare(out_dir, seed)
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
