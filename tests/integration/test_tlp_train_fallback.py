"""A link builds a train's TLPs one by one only where something watches
them -- an enabled tracer or an attached fault injector -- and that
per-TLP path must not change what the run simulates.

Each workload runs three ways: plain (trains charged arithmetically),
with tracing on, and with an injector on both link directions whose
every link fault has rate zero (drawn from at each TLP, never fires).
The round-trip times and executed-event counts must be identical, and a
traced run must record one ``tlp-tx`` per TLP the links counted.  (The
injector goes on the link alone: ``attach_fault_plan`` also arms the
drivers' recovery watchdogs, whose timers add events of their own.)
"""

import pytest

from repro.core.latency import run_virtio_payload
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.exec.bench import run_xdma_block
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    KIND_TLP_CORRUPT,
    KIND_TLP_DELAY,
    KIND_TLP_DROP,
    SITE_PCIE_DOWN,
    SITE_PCIE_UP,
    FaultPlan,
    FaultSpec,
    PoissonRate,
)
from repro.sim.trace import Tracer

ZERO_RATE_LINK_FAULTS = FaultPlan(
    tuple(
        FaultSpec(site, kind, PoissonRate(0.0))
        for site in (SITE_PCIE_DOWN, SITE_PCIE_UP)
        for kind in (KIND_TLP_DROP, KIND_TLP_CORRUPT, KIND_TLP_DELAY)
    )
)
MODES = ("plain", "traced", "zero-rate faults")


def _links(testbed):
    core = testbed.device.xdma if hasattr(testbed, "device") else testbed.xdma
    return core.endpoint.link


def _build(builder, mode):
    tracer = Tracer(enabled=True) if mode == "traced" else None
    testbed = builder(seed=3, tracer=tracer)
    if mode == "zero-rate faults":
        link = _links(testbed)
        testbed.injector = FaultInjector(ZERO_RATE_LINK_FAULTS, testbed.sim)
        link.downstream.injector = link.upstream.injector = testbed.injector
    return testbed, tracer


def _xdma_block(mode, size=32 << 10):
    testbed, tracer = _build(build_xdma_testbed, mode)
    rtt_ns = run_xdma_block(testbed, bytes(range(256)) * (size // 256))
    return [rtt_ns], testbed, tracer


def _virtio_echo(mode, payload=1024, packets=4):
    testbed, tracer = _build(build_virtio_testbed, mode)
    rtts = run_virtio_payload(testbed, payload, packets).rtt_ps.tolist()
    testbed.sim.run()
    return rtts, testbed, tracer


@pytest.mark.parametrize("workload", [_xdma_block, _virtio_echo], ids=["xdma-32k", "virtio-1024"])
def test_per_tlp_paths_simulate_the_same_run(workload):
    runs = {mode: workload(mode) for mode in MODES}
    plain_rtts, plain, _ = runs["plain"]
    for mode in MODES[1:]:
        rtts, testbed, _ = runs[mode]
        assert rtts == plain_rtts, mode
        assert testbed.sim.events_executed == plain.sim.events_executed, mode
        assert testbed.sim.now == plain.sim.now, mode
    # The zero-rate injector saw every TLP as an opportunity (the per-TLP
    # path really ran) and fired none of them.
    injector = runs["zero-rate faults"][1].injector
    assert injector.opportunities and not injector.injected
    _, traced, tracer = runs["traced"]
    link = _links(traced)
    sent = link.downstream.tlps_sent + link.upstream.tlps_sent
    assert tracer.count(kind="tlp-tx") == sent
    # Counters agree across the three ways, too.
    for mode in MODES[1:]:
        other = _links(runs[mode][1])
        assert other.upstream.tlps_sent == _links(plain).upstream.tlps_sent
        assert other.downstream.bytes_sent == _links(plain).downstream.bytes_sent
