"""Time one fresh set-up of a benchmark workload.

    python3 perfbench/setup_probe.py <workload> <seed> [--quick]

Imports ``repro`` and builds and boots every testbed of the workload's
first repetition through the public builders, then prints the host
seconds that took.  ``run.py`` runs it in several fresh interpreters
and reports the median as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.trace import Spans
    from perfbench.workloads import WORKLOAD_TYPES

    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOAD_TYPES[name](quick="--quick" in sys.argv[3:])
    workload.boot(workload.make_input(seed, 0), Spans(enabled=False))
    print(time.perf_counter() - STARTED)


if __name__ == "__main__":
    main()
