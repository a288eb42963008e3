"""Benchmark entry point.

    python3 perfbench/run.py --workload inverse-c1 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it measures the package under src/ there.
"""
import os
import signal
import sys

from workloads import THREAD_VARS

if __name__ == "__main__":
    # Pinned before NumPy loads, so that BLAS and OpenMP start one thread each.
    os.environ.update({var: "1" for var in THREAD_VARS})
    # A terminated run still removes its temp dirs (the `finally` blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from harness import main
    sys.exit(main())
