"""Property tests of the closed-form PCIe link FIFO.

A :class:`~repro.pcie.link.LinkDirection` computes every TLP's
departure when the TLP is enqueued instead of running transmitter
events.  For random bursts enqueued at random times on one direction,
the result must be the single-server FIFO recursion
``d_i = max(a_i, d_{i-1}) + ser_i`` (``a_i`` the enqueue time), each
TLP must be received in enqueue order, a burst's delivery event must
fire at its last TLP's arrival, and turning tracing on must not add or
remove a single simulator event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.tlp import memory_write
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

CONFIG = LinkConfig(generation=2, lanes=2, propagation_ns=150)

#: One burst: (gap in ps after the previous burst's enqueue time, how
#: it is sent, payload size of each TLP).
bursts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3_000_000),
        st.sampled_from(["send", "post", "send_many", "post_many"]),
        st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=8,
)


def _run(plan, traced: bool):
    """Enqueue *plan* on one direction; returns what the receiver and
    the burst events saw, the tracer and the executed-event count."""
    sim = Simulator(seed=0)
    tracer = Tracer(enabled=traced)
    link = PcieLink(sim, CONFIG, parent=Component(sim, "top", tracer=tracer))
    received = []  # (arrival time, addr) in receive order
    link.attach_endpoint_rx(lambda tlp: received.append((sim.now, tlp.addr)))
    link.attach_root_rx(lambda tlp: None)
    direction = link.downstream
    fired = {}  # burst index -> time its delivery event fired
    enqueued = []  # (enqueue time, tlp) in enqueue order
    at = 0
    next_addr = 0
    for index, (gap, how, sizes) in enumerate(plan):
        at += gap
        tlps = []
        for size in sizes:
            tlps.append(memory_write(next_addr, bytes(size)))
            next_addr += 0x1000

        def launch(index=index, how=how, tlps=tlps):
            enqueued.extend((sim.now, tlp) for tlp in tlps)
            if how == "send_many":
                event = direction.send_many(tlps)
            elif how == "post_many":
                direction.post_many(tlps)
                return
            else:
                for tlp in tlps:
                    event = getattr(direction, how)(tlp)
                if how == "post":
                    return
            event.on_trigger(lambda _ev: fired.__setitem__(index, sim.now))

        sim.schedule_at(at, launch)
    sim.run()
    return received, fired, enqueued, tracer, sim.events_executed


def _reference(enqueued):
    """Per-TLP (transmit start, arrival) from the FIFO recursion."""
    out = {}
    departed = 0
    prop = CONFIG.propagation_time
    for arrival, tlp in enqueued:
        start = max(arrival, departed)
        departed = start + CONFIG.serialization_time(tlp.wire_bytes)
        out[tlp.addr] = (start, departed + prop)
    return out


@given(plan=bursts)
@settings(max_examples=60, deadline=None)
def test_departures_follow_the_fifo_recursion(plan):
    received, _, enqueued, tracer, _ = _run(plan, traced=True)
    expected = _reference(enqueued)
    tx = {r.detail["addr"]: r.time for r in tracer.query(kind="tlp-tx")}
    rx = {r.detail["addr"]: r.time for r in tracer.query(kind="tlp-rx")}
    assert tx == {addr: start for addr, (start, _) in expected.items()}
    assert rx == {addr: arrival for addr, (_, arrival) in expected.items()}
    # The receiver never sees a TLP before that TLP's own arrival (a
    # burst is handed over at its last arrival).
    assert all(now >= expected[addr][1] for now, addr in received)


@given(plan=bursts)
@settings(max_examples=60, deadline=None)
def test_fifo_order_holds_across_bursts(plan):
    received, _, enqueued, _, _ = _run(plan, traced=False)
    assert [addr for _, addr in received] == [tlp.addr for _, tlp in enqueued]
    assert [now for now, _ in received] == sorted(now for now, _ in received)


@given(plan=bursts)
@settings(max_examples=60, deadline=None)
def test_burst_event_fires_at_last_arrival(plan):
    _, fired, enqueued, _, _ = _run(plan, traced=False)
    expected = _reference(enqueued)
    addr = 0
    for index, (_, how, sizes) in enumerate(plan):
        last_addr = addr + (len(sizes) - 1) * 0x1000
        addr += len(sizes) * 0x1000
        if how in ("send", "send_many"):
            assert fired[index] == expected[last_addr][1]
        else:
            assert index not in fired


@given(plan=bursts)
@settings(max_examples=40, deadline=None)
def test_tracing_does_not_change_event_counts(plan):
    quiet = _run(plan, traced=False)
    traced = _run(plan, traced=True)
    assert traced[4] == quiet[4]
    assert traced[0] == quiet[0]
    assert len(traced[3].query(kind="tlp-rx")) == sum(len(s) for _, _, s in plan)
