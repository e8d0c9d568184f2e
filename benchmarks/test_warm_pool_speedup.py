"""The warm process pool must beat the in-process path on real cores.

The comparison workload (both drivers at 64 B and 1024 B, 200 packets
each) runs serially and then fanned out over four workers, the pool
constructed inside the timed leg as a first ``-j 4`` run builds it.
The packet count is fixed, not ``REPRO_PACKETS``: fewer packets per
cell would let pool start-up dominate what is measured.  Output is
byte-identical either way (``tests/exec/test_parallel_parity.py``);
this guard is about wall time only, so it needs at least four CPUs and
is skipped below.
"""

import os

import pytest

from repro.core.calibration import PAPER_PROFILE
from repro.exec import cache as result_cache
from repro.exec.runner import execute_comparison, shutdown_pool

JOBS = 4
PAYLOADS = (64, 1024)
PACKETS = 200


@pytest.mark.skipif(
    (os.cpu_count() or 1) < JOBS,
    reason=f"a {JOBS}-worker pool cannot beat one process on fewer than {JOBS} CPUs",
)
@pytest.mark.benchmark(group="parallel")
def test_four_workers_beat_serial(benchmark):
    shutdown_pool()  # time the pool's construction as a first -j 4 run pays it
    with result_cache.bypass():
        _, serial = execute_comparison(PAYLOADS, PACKETS, 0, PAPER_PROFILE, jobs=1)
        _, parallel = benchmark.pedantic(
            execute_comparison, args=(PAYLOADS, PACKETS, 0, PAPER_PROFILE),
            kwargs={"jobs": JOBS}, rounds=1, iterations=1,
        )
    benchmark.extra_info["speedup"] = serial.wall_s / parallel.wall_s
    assert parallel.events == serial.events
    assert parallel.wall_s < serial.wall_s, (
        f"-j {JOBS} took {parallel.wall_s:.2f} s, -j 1 took {serial.wall_s:.2f} s"
    )
