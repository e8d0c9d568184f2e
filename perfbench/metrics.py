"""Every metric the benchmark reports, and the paper's reference values.

Each per-layer metric names the end-to-end metric it should move and
the workloads on which it should move it, written down before any
change is measured.  A per-layer metric that does not apply to a
workload (say, switch TLPs on the single-device ``bulk`` machine)
reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WORKLOADS = ("pingpong", "bulk", "fleet")

#: Layers are the packages under ``src/repro``.  Everything else --
#: numpy, the standard library, the benchmark's own code and the
#: ``stats``/``health``/``guest``/``faults`` packages plus the top-level
#: modules -- is ``other``.
LAYERS = (
    "sim", "pcie", "fpga", "virtio", "drivers", "host", "mem",
    "topology", "workload", "exec", "core",
)
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)

#: Payload sizes of the Table I ping-pong cells.
TABLE1_PAYLOADS = (64, 256, 1024)

#: The paper's Table I p95 round-trip latencies in microseconds, by
#: (driver, payload bytes).  The calibration profile was fitted to
#: these same numbers, so the error against them is an in-sample fit
#: error, not a validation.
TABLE1_P95_US: Dict[Tuple[str, int], float] = {
    ("virtio", 64): 35.1,
    ("virtio", 256): 39.6,
    ("virtio", 1024): 57.8,
    ("xdma", 64): 51.3,
    ("xdma", 256): 51.5,
    ("xdma", 1024): 72.8,
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end: share of the parent's median the metric may worsen
    #: by before a change is rejected.  None for per-layer metrics.
    bound: Optional[float] = None
    #: per-layer: the end-to-end metric(s) this one should move ...
    moves: Tuple[str, ...] = ()
    #: ... and the workloads where it should move them.
    on: Tuple[str, ...] = ()


END_TO_END = (
    # Completed operations per host second of the timed phase: a round
    # trip (pingpong), a block write plus read-back (bulk), a delivered
    # datagram (fleet).
    Metric("ops_per_s", "ops/s", "higher", bound=0.25),
    # Import repro, then build and boot every testbed the workload uses;
    # median over several fresh interpreters.
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    # Mean |simulated p95 - paper p95| / paper p95 over the six Table I
    # cells, from a fixed-size ping-pong pass every workload runs.
    Metric("table1_p95_err_pct", "%", "lower", bound=0.25),
)

_ALL = WORKLOADS
_SPEED = ("ops_per_s",)


def _layer_metrics() -> Tuple[Metric, ...]:
    out = []
    for layer in ALL_LAYERS:
        moves = ("ops_per_s", "setup_s") if layer == "exec" else _SPEED
        out.append(Metric(f"{layer}.self_share", "share", "lower", moves=moves, on=_ALL))
        out.append(Metric(f"{layer}.calls_per_op", "calls/op", "lower", moves=_SPEED, on=_ALL))
    return tuple(out)


PER_LAYER = _layer_metrics() + (
    Metric("sim.events_per_op", "events/op", "lower", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("sim.events_per_s", "events/s", "higher", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("sim.peak_queue_depth", "events", "lower", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("pcie.read_tlps_per_op", "tlps/op", "lower", moves=_SPEED, on=("bulk",)),
    Metric("pcie.write_tlps_per_op", "tlps/op", "lower", moves=_SPEED, on=("bulk",)),
    Metric("pcie.msix_per_op", "msgs/op", "lower", moves=_SPEED, on=("bulk",)),
    Metric("pcie.switch_tlps_per_op", "tlps/op", "lower", moves=_SPEED, on=("fleet",)),
    Metric("mem.copies_per_op", "copies/op", "lower",
           moves=("ops_per_s", "peak_rss_mb"), on=("bulk",)),
    Metric("mem.views_per_op", "views/op", "lower",
           moves=("ops_per_s", "peak_rss_mb"), on=("bulk",)),
    Metric("mem.bufpool_acquires_per_op", "acquires/op", "lower",
           moves=("ops_per_s", "peak_rss_mb"), on=("bulk", "pingpong")),
    Metric("fpga.descriptors_per_op", "descs/op", "lower", moves=_SPEED, on=("bulk", "pingpong")),
    Metric("fpga.sim_hw_us_p50", "us", "lower", moves=_SPEED, on=("bulk", "pingpong")),
    Metric("virtio.chains_per_op", "chains/op", "lower", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("virtio.irq_suppressed_ratio", "ratio", "higher", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("drivers.kicks_per_op", "kicks/op", "lower", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("drivers.irqs_per_op", "irqs/op", "lower", moves=_SPEED, on=("pingpong", "fleet")),
    Metric("host.sim_sw_us_p50", "us", "lower", moves=_SPEED, on=("pingpong",)),
    Metric("topology.sim_fairness", "jain", "higher", moves=_SPEED, on=("fleet",)),
    Metric("topology.sim_goodput_kpps", "kpps", "higher", moves=_SPEED, on=("fleet",)),
    Metric("topology.arbiter_grants_per_op", "grants/op", "lower", moves=_SPEED, on=("fleet",)),
    Metric("workload.sim_drop_ratio", "ratio", "lower", moves=_SPEED, on=("fleet",)),
    Metric("workload.sim_p99_us", "us", "lower", moves=_SPEED, on=("fleet",)),
    # Simulated results: a change that only speeds up the simulator
    # must leave these identical.
    Metric("core.virtio.sim_rtt_p50_us", "us", "lower",
           moves=("table1_p95_err_pct",), on=("pingpong",)),
    Metric("core.virtio.sim_rtt_p99_us", "us", "lower",
           moves=("table1_p95_err_pct",), on=("pingpong",)),
    Metric("core.xdma.sim_rtt_p50_us", "us", "lower",
           moves=("table1_p95_err_pct",), on=("pingpong", "bulk")),
    Metric("core.xdma.sim_rtt_p99_us", "us", "lower",
           moves=("table1_p95_err_pct",), on=("pingpong", "bulk")),
    Metric("core.sim_mb_per_s", "MB/s", "higher",
           moves=("table1_p95_err_pct",), on=("pingpong", "bulk")),
    # Traced wall / untraced wall over the same input.
    Metric("trace.overhead_x", "ratio", "lower", moves=(), on=_ALL),
)
