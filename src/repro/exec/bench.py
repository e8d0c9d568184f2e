"""Exact simulator-cost counts for three fixed inputs.

:func:`measure_counts` runs fixed inputs that mirror the repository
benchmark's workloads and returns integer totals that are functions of
the model code alone, not of machine speed, so they can be compared to
a committed budget with zero tolerance:

* ``pingpong`` -- the Table 1 echo for each driver at 64 B and 1024 B:
  a 4-packet warm-up run subtracted from a 28-packet run, so boot, ring
  setup and first-packet ARP traffic drop out (24 packets per cell);
* ``bulk`` -- one 32 KiB XDMA ``sys_write`` plus checked ``sys_read``
  on a booted testbed that has already moved one such block;
* ``fleet`` -- one E-M1 pod (:class:`~repro.topology.experiments.FleetConfig`
  defaults, seed 0) driven for 6 packets per tenant.

Each input records simulator events executed, host
:class:`~repro.mem.physical.PhysicalMemory` ``read`` / ``read_into`` /
``view`` / ``write`` calls, delivered operations, and Python calls per
``repro.<package>``, counted by :mod:`cProfile` with built-ins not
profiled (this module's own frames are the harness, not the model, and
are left out).  Three rules keep the counts independent of the process
and the interpreter:

* every input runs once before the run that is counted, so process-wide
  memos (segmentation plans, serialization caches) are warm whatever
  ran earlier;
* comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``)
  are not counted, because Python 3.12 inlines them (PEP 709);
* the garbage collector runs before a counted region and not inside it,
  because closing a collected generator of an earlier testbed resumes
  its frame, which the profiler counts as a call.

``python -m repro.exec.bench`` prints the counts as JSON; that output
is the committed budget ``tests/exec/count_budget.json``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

import repro
from repro.core.calibration import PAPER_PROFILE

#: Frames Python 3.12 inlines into their enclosing function (PEP 709).
COMPREHENSION_FRAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Host-memory methods counted per input (``read`` materializes a copy,
#: ``read_into`` fills a caller buffer, ``view`` is zero-copy).
MEMORY_METHODS = ("read", "read_into", "view", "write")

#: The ``pingpong`` cells: (driver, payload bytes).
PINGPONG_CELLS = (("virtio", 64), ("virtio", 1024), ("xdma", 64), ("xdma", 1024))
PINGPONG_WARMUP, PINGPONG_PACKETS = 4, 24
BULK_BLOCK_BYTES = 32 << 10
FLEET_PACKETS_PER_TENANT = 6

_PACKAGE_ROOT = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep
_THIS_FILE = os.path.realpath(__file__)

Counts = Dict[str, int]


def _echo_harness(driver: str):
    """``(build_testbed, run_payload)`` of the Table 1 echo for *driver*."""
    from repro.core.latency import run_virtio_payload, run_xdma_payload
    from repro.core.testbed import build_virtio_testbed, build_xdma_testbed

    if driver == "virtio":
        return build_virtio_testbed, run_virtio_payload
    if driver == "xdma":
        return build_xdma_testbed, run_xdma_payload
    raise ValueError(f"unknown driver {driver!r} (expected 'virtio' or 'xdma')")


def run_xdma_block(testbed: Any, block: bytes) -> int:
    """One XDMA ``sys_write`` of *block* plus a checked ``sys_read`` of
    it back on a booted XDMA testbed, run until the simulator is idle.
    Returns the round trip in guest-clock nanoseconds; raises if the
    read-back differs from the write."""
    from repro.host.chardev import sys_read, sys_write

    kernel = testbed.kernel
    result = {}

    def app():
        start = kernel.gettime_ns()
        written = yield from sys_write(kernel, testbed.driver, block)
        data = yield from sys_read(kernel, testbed.driver, len(block))
        result["rtt_ns"] = kernel.gettime_ns() - start
        result["ok"] = written == len(block) and data == block

    process = testbed.sim.spawn(app())
    testbed.sim.run_until_triggered(process)
    testbed.sim.run()
    if not result["ok"]:
        raise RuntimeError(f"XDMA read-back of a {len(block)} B block did not match the write")
    return result["rtt_ns"]


def _package_of(filename: str) -> str:
    """Top-level ``repro`` package owning *filename*, or ``""`` outside
    ``repro`` and for this module (the harness is not the model)."""
    path = os.path.realpath(filename)
    if not path.startswith(_PACKAGE_ROOT) or path == _THIS_FILE:
        return ""
    top = path[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
    return top[: -len(".py")] if top.endswith(".py") else top


@contextmanager
def _counted(testbed: Any, counts: Counter) -> Iterator[None]:
    """Add the events, host-memory calls and ``repro`` calls made inside
    the ``with`` block on *testbed* to *counts*."""
    memory = testbed.kernel.memory
    for name in MEMORY_METHODS:
        original = getattr(memory, name)

        def wrapper(*args: Any, _original=original, _key=f"mem.{name}", **kwargs: Any):
            counts[_key] += 1
            return _original(*args, **kwargs)

        setattr(memory, name, wrapper)  # instance attr shadows the class method
    events = testbed.sim.events_executed
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        if collecting:
            gc.enable()
        for name in MEMORY_METHODS:
            delattr(memory, name)
    counts["events"] += testbed.sim.events_executed - events
    profiler.create_stats()
    stats = profiler.stats  # type: ignore[attr-defined]
    for (filename, _line, function), (_cc, ncalls, *_rest) in stats.items():
        package = _package_of(filename)
        if package and function not in COMPREHENSION_FRAMES:
            counts[f"calls.{package}"] += ncalls


def _pingpong() -> Counter:
    counts: Counter = Counter()
    for driver, payload in PINGPONG_CELLS:
        build, runner = _echo_harness(driver)
        for packets, sign in ((PINGPONG_WARMUP + PINGPONG_PACKETS, 1), (PINGPONG_WARMUP, -1)):
            testbed = build(seed=0, profile=PAPER_PROFILE)
            run: Counter = Counter()
            with _counted(testbed, run):
                run["ops"] += runner(testbed, payload, packets).packets
            for key, value in run.items():
                counts[key] += sign * value
    return counts


def _bulk() -> Counter:
    from repro.core.testbed import build_xdma_testbed

    testbed = build_xdma_testbed(seed=0, profile=PAPER_PROFILE)
    block = bytes(range(256)) * (BULK_BLOCK_BYTES // 256)
    # The first block warms the testbed's own link serialization cache.
    run_xdma_block(testbed, block)
    counts: Counter = Counter()
    with _counted(testbed, counts):
        run_xdma_block(testbed, block)
        counts["ops"] += 1
    return counts


def _fleet() -> Counter:
    from repro.topology.builder import build_from_spec
    from repro.topology.experiments import FleetConfig, run_fleet_pod

    config = FleetConfig()
    testbed = build_from_spec(config.spec(), seed=0, profile=PAPER_PROFILE)
    counts: Counter = Counter()
    with _counted(testbed, counts):
        report = run_fleet_pod(
            0, 0, FLEET_PACKETS_PER_TENANT, config, PAPER_PROFILE, testbed=testbed
        )
        counts["ops"] += report.health.delivered
    return counts


#: The fixed inputs, by name.
INPUTS: Dict[str, Callable[[], Counter]] = {
    "pingpong": _pingpong,
    "bulk": _bulk,
    "fleet": _fleet,
}


def measure_input(name: str) -> Counts:
    """Counts of input *name*: run once to warm process-wide memos, then
    counted.  Every memory method and event/op total is present; a
    package with no calls is absent."""
    run = INPUTS[name]
    run()
    counts = run()
    fixed = ["events", "ops"] + [f"mem.{method}" for method in MEMORY_METHODS]
    totals = {key: counts[key] for key in fixed}
    totals.update((key, n) for key, n in counts.items() if key.startswith("calls.") and n)
    return dict(sorted(totals.items()))


def measure_counts() -> Dict[str, Counts]:
    """:func:`measure_input` for every fixed input."""
    return {name: measure_input(name) for name in INPUTS}


def moved_counts(budget: Dict[str, Counts], measured: Dict[str, Counts]) -> List[str]:
    """One ``input.count: budget -> measured`` line per count that differs
    (a count missing on one side reads ``None`` there)."""
    moved = []
    for name in sorted(budget.keys() | measured.keys()):
        expected, actual = budget.get(name, {}), measured.get(name, {})
        for key in sorted(expected.keys() | actual.keys()):
            if expected.get(key) != actual.get(key):
                moved.append(f"{name}.{key}: {expected.get(key)} -> {actual.get(key)}")
    return moved


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(measure_counts(), indent=2, sort_keys=True))
