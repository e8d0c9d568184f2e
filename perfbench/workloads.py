"""The benchmark's workloads, driven through the public entry points of
``repro.core``, ``repro.exec``, ``repro.host`` and ``repro.topology``.

Every workload makes its inputs from a seed and a key, so the same
seed gives the same inputs, and offers:

* ``boot(input, spans)`` -- build and boot every testbed the input
  needs through the public builders (what ``setup_s`` times);
* ``timed(input, spans)`` -- the measured run.  Its ``wall_s`` covers
  the operations only, except in ``pingpong``, whose artifact runner
  boots its own testbeds;
* ``counted(input, spans)`` -- the same simulation on testbeds the
  benchmark boots itself, with ``PhysicalMemory`` calls counted and the
  model counters read, for the traced run.  Returns the outcome and the
  :class:`MemoryCalls`.

Any exception or wrong output counts as failed operations; nothing is
skipped.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    FPGA_IP,
    PAPER_PROFILE,
    TEST_DST_PORT,
    VirtioTestbed,
    XdmaTestbed,
    build_virtio_testbed,
    build_xdma_testbed,
    run_virtio_payload,
    run_xdma_payload,
    xdma_transfer_size,
)
from repro.exec import execute_comparison, latency_cells
from repro.host import sys_read, sys_write
from repro.topology.builder import FleetTestbed, build_from_spec
from repro.topology.experiments import FleetConfig, run_fleet_pod

from perfbench.metrics import TABLE1_P95_US, TABLE1_PAYLOADS
from perfbench.trace import Spans

PS_PER_US = 1e6


def derive_seed(*keys: Any) -> int:
    """A 32-bit seed that depends on every key (stable across processes)."""
    digest = hashlib.sha256(repr(keys).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """One measured run of a workload input."""

    ops: int  # operations completed correctly
    attempted: int
    failed: int
    wall_s: float  # host seconds of the measured call
    #: simulator events the measured call executed (pingpong: including
    #: the boots its runner performs)
    events: int
    #: sha256 over the per-op simulated latencies and the event count
    #: (and the model counters, where the run exposes its testbeds).
    digest: str
    #: :func:`model_counters` of the run's testbeds; None when the run
    #: booted them out of reach (the cell runner).
    counters: Optional[Dict[str, int]] = None
    #: simulated-result metrics (per-layer metric name -> value).
    sim: Dict[str, float] = field(default_factory=dict)


# -- model counters -------------------------------------------------------------


def _parts(testbed: Any) -> Tuple[list, list, list, list]:
    """(xdma cores, virtio devices, virtio-net drivers, xdma drivers)."""
    if isinstance(testbed, XdmaTestbed):
        return [testbed.xdma], [], [], [testbed.driver]
    if isinstance(testbed, VirtioTestbed):
        return [testbed.device.xdma], [testbed.device], [testbed.driver], []
    if isinstance(testbed, FleetTestbed):
        devices = [f.device for f in testbed.functions]
        drivers = [f.driver for f in testbed.functions]
        return [d.xdma for d in devices], devices, drivers, []
    raise TypeError(f"no counter reader for {type(testbed).__name__}")


def model_counters(testbeds: Sequence[Any]) -> Dict[str, int]:
    """Every public model counter, summed over the testbeds' components.

    Components reachable twice (functions sharing a device) count once.
    ``sim.peak_depth`` is the largest peak, not a sum.
    """
    totals: Dict[str, int] = {}
    seen: set = set()

    def add(prefix: str, owner: Any, stats: Dict[str, Any]) -> None:
        if id(owner) in seen:
            return
        seen.add(id(owner))
        for key, value in stats.items():
            if isinstance(value, (int, np.integer)):
                name = f"{prefix}.{key}"
                totals[name] = totals.get(name, 0) + int(value)

    peak = 0
    for testbed in testbeds:
        sched = testbed.sim.scheduler_stats
        peak = max(peak, int(sched.get("peak_depth", 0)))
        add("sim", testbed.sim, {"events": testbed.sim.events_executed,
                                 "schedules": sched.get("schedules", 0)})
        add("irqc", testbed.kernel.irqc, {"delivered": testbed.kernel.irqc.delivered})
        cores, devices, net_drivers, xdma_drivers = _parts(testbed)
        for core in cores:
            add("xdma", core, core.stats)
            add("bufpool", core.bufpool, core.bufpool.stats())
        for device in devices:
            add("virtio", device, device.stats)
        for driver in net_drivers:
            add("netdrv", driver, driver.stats)
        for driver in xdma_drivers:
            add("xdmadrv", driver, driver.stats)
        switch = getattr(testbed, "switch", None)
        if switch is not None:
            add("switch", switch, switch.stats)
        for arbiter in getattr(testbed, "arbiters", ()):
            add("arbiter", arbiter, arbiter.stats)
    totals["sim.peak_depth"] = peak
    return totals


def _sum_matching(counters: Dict[str, int], prefix: str, suffix: str) -> int:
    return sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))


def counter_metrics(counters: Dict[str, int], ops: int) -> Dict[str, float]:
    """Per-operation model-counter metrics of the traced run."""
    per = 1.0 / max(ops, 1)
    raised = _sum_matching(counters, "virtio.q", "_irqs")
    suppressed = _sum_matching(counters, "virtio.q", "_irqs_suppressed")
    descriptors = _sum_matching(counters, "xdma.", "_descriptors")
    return {
        "sim.peak_queue_depth": float(counters.get("sim.peak_depth", 0)),
        "pcie.read_tlps_per_op": counters.get("xdma.dma_read_tlps", 0) * per,
        "pcie.write_tlps_per_op": counters.get("xdma.dma_write_tlps", 0) * per,
        "pcie.msix_per_op": counters.get("xdma.msix_raised", 0) * per,
        "pcie.switch_tlps_per_op": counters.get("switch.tlps_forwarded", 0) * per,
        "mem.bufpool_acquires_per_op": counters.get("bufpool.acquires", 0) * per,
        "fpga.descriptors_per_op": descriptors * per,
        "virtio.chains_per_op": _sum_matching(counters, "virtio.q", "_chains") * per,
        "virtio.irq_suppressed_ratio": (
            suppressed / (raised + suppressed) if raised + suppressed else 0.0
        ),
        "drivers.kicks_per_op": (
            counters.get("netdrv.tx_kicks", 0)
            + counters.get("xdmadrv.h2c_transfers", 0)
            + counters.get("xdmadrv.c2h_transfers", 0)
        ) * per,
        "drivers.irqs_per_op": (
            counters.get("netdrv.rx_irqs", 0) + counters.get("xdmadrv.interrupts", 0)
        ) * per,
        "topology.arbiter_grants_per_op": _sum_matching(counters, "arbiter.", "_grants") * per,
    }


class MemoryCalls:
    """Counts host ``PhysicalMemory`` calls by shadowing the instance's
    methods (the class stays untouched).  ``read`` materializes a copy,
    ``view`` is zero-copy."""

    METHODS = ("read", "read_into", "view", "write")

    def __init__(self, testbeds: Sequence[Any]) -> None:
        self.counts = dict.fromkeys(self.METHODS, 0)
        memories = {id(tb.kernel.memory): tb.kernel.memory for tb in testbeds}
        for memory in memories.values():
            for name in self.METHODS:
                setattr(memory, name, self._counted(name, getattr(memory, name)))

    def _counted(self, name: str, original: Any) -> Any:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        return counted


# -- shared latency helpers -------------------------------------------------------


def _us(values_ps: np.ndarray, q: float) -> float:
    return float(np.percentile(values_ps, q)) / PS_PER_US if values_ps.size else 0.0


def table1_p95_err_pct(results: Dict[Tuple[str, int], Any]) -> float:
    """Mean |simulated p95 - paper p95| / paper p95 over Table I's cells."""
    errors = [
        abs(results[key].tail_latencies_us()[95.0] - paper) / paper
        for key, paper in TABLE1_P95_US.items()
    ]
    return 100.0 * sum(errors) / len(errors)


# -- pingpong ---------------------------------------------------------------------


@dataclass(frozen=True)
class PingpongInput:
    seed: int
    packets: int  # per driver x payload cell


class Pingpong:
    """The paper's closed-loop echo (one packet in flight), both drivers,
    run through the cell runner with one job and no result cache."""

    name = "pingpong"

    def __init__(self, quick: bool = False) -> None:
        self.rep_packets = 3 if quick else 20
        self.traced_packets = 6 if quick else 160

    def make_input(self, seed: int, key: Any, traced: bool = False) -> PingpongInput:
        packets = self.traced_packets if traced else self.rep_packets
        return PingpongInput(derive_seed(seed, self.name, key), packets)

    def boot(self, inp: PingpongInput, spans: Spans) -> List[Any]:
        testbeds = []
        for cell in latency_cells(TABLE1_PAYLOADS, inp.packets, inp.seed, PAPER_PROFILE):
            builder = build_virtio_testbed if cell.driver == "virtio" else build_xdma_testbed
            with spans.span(f"core.{builder.__name__}", "core", payload=cell.payload):
                testbeds.append(builder(seed=cell.seed, profile=cell.profile))
        return testbeds

    def timed(self, inp: PingpongInput, spans: Spans) -> Outcome:
        started = time.perf_counter()
        try:
            with spans.span("exec.execute_comparison", "exec", packets=inp.packets):
                comparison, stats = execute_comparison(
                    TABLE1_PAYLOADS, inp.packets, inp.seed, PAPER_PROFILE, jobs=1
                )
        except Exception:
            _report_exception("execute_comparison")
            return self._failed(inp, time.perf_counter() - started)
        wall = time.perf_counter() - started
        results = {}
        for sweep in (comparison.virtio, comparison.xdma):
            for payload in sweep.payload_sizes():
                results[(sweep.driver, payload)] = sweep[payload]
        return self._outcome(inp, results, stats.events, wall)

    def counted(self, inp: PingpongInput, spans: Spans):
        testbeds = self.boot(inp, spans)
        memory = MemoryCalls(testbeds)
        cells = latency_cells(TABLE1_PAYLOADS, inp.packets, inp.seed, PAPER_PROFILE)
        results = {}
        started = time.perf_counter()
        try:
            for cell, testbed in zip(cells, testbeds):
                runner = run_virtio_payload if cell.driver == "virtio" else run_xdma_payload
                with spans.span(f"core.{runner.__name__}", "core", payload=cell.payload):
                    results[(cell.driver, cell.payload)] = runner(
                        testbed, cell.payload, cell.packets
                    )
        except Exception:
            _report_exception("latency runner")
            outcome = self._failed(inp, time.perf_counter() - started)
        else:
            wall = time.perf_counter() - started
            events = sum(tb.sim.events_executed for tb in testbeds)
            outcome = self._outcome(inp, results, events, wall)
        outcome.counters = model_counters(testbeds)
        return outcome, memory

    def _failed(self, inp: PingpongInput, wall: float) -> Outcome:
        attempted = len(TABLE1_P95_US) * inp.packets
        return Outcome(0, attempted, attempted, wall, 0, "failed")

    def _outcome(self, inp: PingpongInput, results: Dict[Tuple[str, int], Any],
                 events: int, wall: float) -> Outcome:
        attempted = len(TABLE1_P95_US) * inp.packets
        failed = 0
        parts: List[Any] = [events]
        for key in sorted(TABLE1_P95_US):
            result = results.get(key)
            if result is None:
                failed += inp.packets
                continue
            bad = (
                (result.rtt_ps <= 0) | (result.hw_ps < 0) | (result.resp_ps < 0)
                | (result.hw_ps + result.resp_ps > result.rtt_ps)
            )
            failed += abs(inp.packets - result.packets) + int(np.count_nonzero(bad))
            parts += [list(key), result.rtt_ps, result.hw_ps, result.resp_ps]
        failed = min(failed, attempted)
        outcome = Outcome(attempted - failed, attempted, failed, wall, events, _digest(*parts))
        if failed == 0:
            outcome.sim = self._sim_metrics(results)
        return outcome

    @staticmethod
    def _sim_metrics(results: Dict[Tuple[str, int], Any]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for driver in ("virtio", "xdma"):
            rtt = np.concatenate([r.adjusted_rtt_ps for (d, _), r in results.items() if d == driver])
            out[f"core.{driver}.sim_rtt_p50_us"] = _us(rtt, 50)
            out[f"core.{driver}.sim_rtt_p99_us"] = _us(rtt, 99)
        values = list(results.values())
        out["fpga.sim_hw_us_p50"] = _us(np.concatenate([r.hw_ps for r in values]), 50)
        out["host.sim_sw_us_p50"] = _us(np.concatenate([r.sw_ps for r in values]), 50)
        moved = sum(2 * r.payload * r.packets for r in values)
        sim_s = sum(int(r.adjusted_rtt_ps.sum()) for r in values) / 1e12
        out["core.sim_mb_per_s"] = moved / sim_s / 1e6 if sim_s > 0 else 0.0
        out["table1_p95_err_pct"] = table1_p95_err_pct(results)
        return out


def table1_pass(seed: int, packets: int, spans: Spans) -> Tuple[Outcome, float]:
    """The fixed-size Table I ping-pong every workload runs for accuracy."""
    outcome = Pingpong().timed(PingpongInput(derive_seed(seed, "table1"), packets), spans)
    return outcome, outcome.sim.get("table1_p95_err_pct", float("nan"))


def echo_check(seed: int, per_size: int, spans: Spans) -> Tuple[int, int]:
    """Send seeded payloads through both testbeds and compare the echo
    byte for byte.  Returns (attempted, failed)."""
    rng = np.random.default_rng(derive_seed(seed, "echo"))
    payloads = [rng.bytes(size) for size in TABLE1_PAYLOADS for _ in range(per_size)]
    failed: List[int] = []

    def virtio_app(testbed: VirtioTestbed) -> Generator[Any, Any, None]:
        for payload in payloads:
            yield from testbed.socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
            data, _source = yield from testbed.socket.recvfrom()
            if bytes(data) != payload:
                failed.append(len(payload))

    def xdma_app(testbed: XdmaTestbed) -> Generator[Any, Any, None]:
        for payload in payloads:
            block = (payload * 2)[: xdma_transfer_size(len(payload))]
            written = yield from sys_write(testbed.kernel, testbed.driver, block)
            data = yield from sys_read(testbed.kernel, testbed.driver, len(block))
            if written != len(block) or bytes(data) != block:
                failed.append(len(block))

    attempted = 2 * len(payloads)
    try:
        for builder, app in ((build_virtio_testbed, virtio_app), (build_xdma_testbed, xdma_app)):
            with spans.span(f"core.{builder.__name__}", "core", purpose="echo"):
                testbed = builder(seed=derive_seed(seed, "echo", builder.__name__))
            with spans.span("sim.run_until_triggered", "sim", purpose="echo"):
                testbed.sim.run_until_triggered(testbed.sim.spawn(app(testbed), name="bench-echo"))
    except Exception:
        _report_exception("echo check")
        return attempted, attempted
    return attempted, len(failed)


# -- bulk -------------------------------------------------------------------------

#: Block sizes span 4 KiB .. 64 KiB; the example design's BRAM is 64 KiB.
MIN_BLOCK = 4 << 10
MAX_BLOCK = 64 << 10
#: Distinct block sizes per stratum in one run (see Bulk.make_input).
SIZES_PER_STRATUM = 4


@dataclass(frozen=True)
class BulkInput:
    seed: int  # testbed seed
    blocks: Tuple[bytes, ...]


def _bulk_app(testbed: XdmaTestbed, blocks: Sequence[bytes], latencies: List[int],
              mismatched: List[int]) -> Generator[Any, Any, None]:
    kernel, driver, sim = testbed.kernel, testbed.driver, testbed.sim
    for index, block in enumerate(blocks):
        started = sim.now
        written = yield from sys_write(kernel, driver, block)
        data = yield from sys_read(kernel, driver, len(block))
        latencies.append(sim.now - started)
        if written != len(block) or data != block:
            mismatched.append(index)


class Bulk:
    """Back-to-back XDMA chardev write + read-back of seeded blocks."""

    name = "bulk"

    def __init__(self, quick: bool = False) -> None:
        self.rep_blocks = 3 if quick else 24
        self.traced_blocks = 6 if quick else 96

    def make_input(self, seed: int, key: Any, traced: bool = False) -> BulkInput:
        count = self.traced_blocks if traced else self.rep_blocks
        # The range is cut into *count* equal strata and every input takes
        # one block from each, so inputs move about the same number of
        # bytes.  Within a stratum a block takes one of SIZES_PER_STRATUM
        # sizes drawn once per seed: the distinct sizes of a run stay
        # fixed however many inputs it makes, and with them what the
        # program memoizes per transfer size.
        strata = np.random.default_rng(derive_seed(seed, self.name, "sizes", count))
        offsets = (np.arange(count)[:, None] + strata.random((count, SIZES_PER_STRATUM))) / count
        choices = MIN_BLOCK + (offsets * (MAX_BLOCK - MIN_BLOCK + 1)).astype(int)
        rng = np.random.default_rng(derive_seed(seed, self.name, key))
        sizes = choices[np.arange(count), rng.integers(0, SIZES_PER_STRATUM, size=count)]
        blocks = tuple(rng.bytes(int(size)) for size in rng.permutation(sizes))
        return BulkInput(derive_seed(seed, self.name, key, "testbed"), blocks)

    def boot(self, inp: BulkInput, spans: Spans) -> List[Any]:
        with spans.span("core.build_xdma_testbed", "core"):
            return [build_xdma_testbed(seed=inp.seed, profile=PAPER_PROFILE)]

    def timed(self, inp: BulkInput, spans: Spans) -> Outcome:
        return self._measure(inp, self.boot(inp, spans)[0], spans)

    def counted(self, inp: BulkInput, spans: Spans):
        testbeds = self.boot(inp, spans)
        memory = MemoryCalls(testbeds)
        return self._measure(inp, testbeds[0], spans), memory

    def _measure(self, inp: BulkInput, testbed: XdmaTestbed, spans: Spans) -> Outcome:
        latencies: List[int] = []
        mismatched: List[int] = []
        testbed.perf.clear()
        booted_events = testbed.sim.events_executed
        started = time.perf_counter()
        try:
            with spans.span("sim.run_until_triggered", "sim", blocks=len(inp.blocks)):
                process = testbed.sim.spawn(
                    _bulk_app(testbed, inp.blocks, latencies, mismatched), name="bench-bulk"
                )
                testbed.sim.run_until_triggered(process)
        except Exception:
            _report_exception("bulk transfer")
        wall = time.perf_counter() - started
        attempted = len(inp.blocks)
        ops = len(latencies) - len(mismatched)
        rtt = np.asarray(latencies, dtype=np.int64)
        h2c = testbed.perf.intervals_array("h2c0_dma")
        c2h = testbed.perf.intervals_array("c2h0_dma")
        if len(h2c) == len(c2h) == len(rtt):
            hw = h2c + c2h
        else:
            # One engine interval per direction per block, or the
            # hardware/software split of every block is undefined.
            print("perfbench: bulk: perf-counter intervals do not match the blocks",
                  file=sys.stderr)
            hw, ops = np.zeros(0, dtype=np.int64), 0
        events = testbed.sim.events_executed - booted_events
        counters = model_counters([testbed])
        outcome = Outcome(ops, attempted, attempted - ops, wall, events,
                          _digest(events, rtt, hw, counters), counters)
        if ops == attempted:
            moved = 2 * sum(len(block) for block in inp.blocks)
            outcome.sim = {
                "core.xdma.sim_rtt_p50_us": _us(rtt, 50),
                "core.xdma.sim_rtt_p99_us": _us(rtt, 99),
                "fpga.sim_hw_us_p50": _us(hw, 50),
                "host.sim_sw_us_p50": _us(rtt - hw, 50),
                "core.sim_mb_per_s": moved / (int(rtt.sum()) / 1e12) / 1e6,
            }
        return outcome


# -- fleet ------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetInput:
    seed: int
    packets: int  # per tenant


class Fleet:
    """One E-M1 pod: 16 open-loop Poisson tenants at 4000 pps each on
    multi-queue virtio-net, a PCIe switch and SR-IOV VFs behind the DMA
    arbiter."""

    name = "fleet"
    config = FleetConfig()

    def __init__(self, quick: bool = False) -> None:
        self.rep_packets = 2 if quick else 6
        self.traced_packets = 4 if quick else 60

    def make_input(self, seed: int, key: Any, traced: bool = False) -> FleetInput:
        packets = self.traced_packets if traced else self.rep_packets
        return FleetInput(derive_seed(seed, self.name, key), packets)

    def boot(self, inp: FleetInput, spans: Spans) -> List[Any]:
        with spans.span("topology.build_from_spec", "topology"):
            return [build_from_spec(self.config.spec(), seed=inp.seed, profile=PAPER_PROFILE)]

    def timed(self, inp: FleetInput, spans: Spans) -> Outcome:
        return self._measure(inp, self.boot(inp, spans)[0], spans)

    def counted(self, inp: FleetInput, spans: Spans):
        testbeds = self.boot(inp, spans)
        memory = MemoryCalls(testbeds)
        return self._measure(inp, testbeds[0], spans), memory

    def _measure(self, inp: FleetInput, testbed: FleetTestbed, spans: Spans) -> Outcome:
        booted_events = testbed.sim.events_executed
        started = time.perf_counter()
        try:
            with spans.span("topology.run_fleet_pod", "topology", packets=inp.packets):
                report = run_fleet_pod(0, inp.seed, inp.packets, self.config, PAPER_PROFILE,
                                       testbed=testbed)
        except Exception:
            _report_exception("run_fleet_pod")
            attempted = self.config.tenants * inp.packets
            return Outcome(0, attempted, attempted, time.perf_counter() - started, 0, "failed")
        wall = time.perf_counter() - started
        health = report.health
        # Simulated drops (admission, full queues) are model output; a
        # failure is an admitted datagram that was not delivered, a
        # ledger violation, or tenant rows that disagree with the ledger.
        failed = health.admitted - health.delivered + len(health.violations)
        failed += int(sum(t.delivered for t in report.tenants) != health.delivered)
        failed += int(sum(t.offered for t in report.tenants) != health.offered)
        if health.verdict != "PASS":
            failed = max(failed, 1)
        attempted = health.admitted
        failed = min(failed, attempted)
        counters = model_counters([testbed])
        outcome = Outcome(
            attempted - failed, attempted, failed, wall, report.events - booted_events,
            _digest(report.events, report.as_dict(), counters), counters,
        )
        outcome.sim = {
            "topology.sim_fairness": report.fairness,
            "topology.sim_goodput_kpps": report.aggregate_goodput_pps / 1e3,
            "workload.sim_drop_ratio": health.dropped / health.offered if health.offered else 0.0,
            "workload.sim_p99_us": max((t.p99_us for t in report.tenants), default=0.0),
        }
        return outcome


WORKLOAD_TYPES = {cls.name: cls for cls in (Pingpong, Bulk, Fleet)}
