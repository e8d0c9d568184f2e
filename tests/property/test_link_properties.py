"""Property tests of the closed-form PCIe link FIFO and TLP trains.

A :class:`~repro.pcie.link.LinkDirection` computes every TLP's
departure when the TLP is enqueued instead of running transmitter
events.  For random single TLPs and trains enqueued at random times on
one direction, the result must be the single-server FIFO recursion
``d_i = max(a_i, d_{i-1}) + ser_i`` over the individual TLPs (``a_i``
the enqueue time), each TLP or train must be received in enqueue order,
a train's delivery event must fire at its last TLP's arrival, and
turning tracing on must not add or remove a single simulator event.

A train is charged arithmetically (TLP count, summed wire bytes, summed
per-TLP serialization); with tracing on, the link builds the train's
TLPs and sends each on its own.  The two paths must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.tlp import (
    ADDR_32BIT_LIMIT,
    TlpKind,
    TlpTrain,
    completion_train,
    memory_read,
    memory_write,
    write_train,
)
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

CONFIG = LinkConfig(generation=2, lanes=2, propagation_ns=150)

#: Each burst gets its own 16 MiB address region, so every TLP of a run
#: has a distinct address.
REGION = 1 << 24

#: One burst: (gap in ps after the previous burst's enqueue time, how
#: it is sent, a size list for single TLPs / (page offset, length) for
#: a write train).
bursts = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=3_000_000),
            st.sampled_from(["send", "post"]),
            st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=6),
        ),
        st.tuples(
            st.integers(min_value=0, max_value=3_000_000),
            st.sampled_from(["send_train", "post_train"]),
            st.tuples(
                st.integers(min_value=0, max_value=4095),
                st.integers(min_value=1, max_value=6000),
            ),
        ),
    ),
    min_size=1,
    max_size=8,
)


def _payload(addr: int, length: int) -> bytes:
    return bytes((addr + i) & 0xFF for i in range(length))


def _run(plan, traced: bool):
    """Enqueue *plan* on one direction; returns what the receiver and
    the burst events saw, the tracer and the executed-event count."""
    sim = Simulator(seed=0)
    tracer = Tracer(enabled=traced)
    link = PcieLink(sim, CONFIG, parent=Component(sim, "top", tracer=tracer))
    received = []  # (arrival time, receive unit: Tlp or TlpTrain) in receive order
    link.attach_endpoint_rx(lambda unit: received.append((sim.now, unit)))
    link.attach_root_rx(lambda unit: None)
    direction = link.downstream
    fired = {}  # burst index -> time its delivery event fired
    enqueued = []  # (enqueue time, unit) in enqueue order
    at = 0
    for index, (gap, how, spec) in enumerate(plan):
        at += gap
        base = index * REGION
        if how in ("send", "post"):
            units = [
                memory_write(base + i * 0x1000, _payload(base, size))
                for i, size in enumerate(spec)
            ]
        else:
            offset, length = spec
            units = [write_train(base + offset, _payload(base, length), CONFIG.max_payload)]

        def launch(index=index, how=how, units=units):
            enqueued.extend((sim.now, unit) for unit in units)
            for unit in units:
                event = getattr(direction, how)(unit)
            if how.startswith("send"):
                event.on_trigger(lambda _ev: fired.__setitem__(index, sim.now))

        sim.schedule_at(at, launch)
    sim.run()
    return received, fired, enqueued, tracer, sim.events_executed


def _tlps(unit):
    return unit.tlps() if isinstance(unit, TlpTrain) else [unit]


def _reference(enqueued):
    """Per-TLP (transmit start, arrival) from the FIFO recursion."""
    out = {}
    departed = 0
    prop = CONFIG.propagation_time
    for arrival, unit in enqueued:
        for tlp in _tlps(unit):
            start = max(arrival, departed)
            departed = start + CONFIG.serialization_time(tlp.wire_bytes)
            out[tlp.addr] = (start, departed + prop)
    return out


def _memory(received):
    """Host-memory image of everything received: address -> byte."""
    image = {}
    for _, unit in received:
        for i, byte in enumerate(bytes(unit.data)):
            image[unit.addr + i] = byte
    return image


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
    # train's TLPs are handed over at its last arrival).
    assert all(now >= expected[unit.addr][1] for now, unit in received)


@given(plan=bursts)
@settings(max_examples=60, deadline=None)
def test_fifo_order_holds_across_bursts(plan):
    received, _, enqueued, _, _ = _run(plan, traced=False)
    assert [unit for _, unit in received] == [unit for _, unit in enqueued]
    assert [now for now, _ in received] == sorted(now for now, _ in received)
    # A train is received at its last TLP's arrival.
    expected = _reference(enqueued)
    for now, unit in received:
        assert now == expected[_tlps(unit)[-1].addr][1]


@given(plan=bursts)
@settings(max_examples=60, deadline=None)
def test_burst_event_fires_at_last_arrival(plan):
    _, fired, enqueued, _, _ = _run(plan, traced=False)
    expected = _reference(enqueued)
    last_addr = {}
    for _, unit in enqueued:
        last_addr[unit.addr // REGION] = _tlps(unit)[-1].addr
    for index, (_, how, _) in enumerate(plan):
        if how.startswith("send"):
            assert fired[index] == expected[last_addr[index]][1]
        else:
            assert index not in fired


@given(plan=bursts)
@settings(max_examples=40, deadline=None)
def test_tracing_does_not_change_event_counts(plan):
    quiet = _run(plan, traced=False)
    traced = _run(plan, traced=True)
    assert traced[4] == quiet[4]
    # The traced run hands every TLP of a train to the receiver at the
    # train's last arrival, which is when the quiet run receives the train.
    assert [(now, unit.addr) for now, unit in traced[0]] == [
        (now, tlp.addr) for now, unit in quiet[0] for tlp in _tlps(unit)
    ]
    assert _memory(traced[0]) == _memory(quiet[0])
    assert traced[1] == quiet[1]
    tlp_count = sum(len(_tlps(unit)) for _, unit in quiet[2])
    assert len(traced[3].query(kind="tlp-rx")) == tlp_count


# -- a train against its materialized TLPs ----------------------------------------

addresses = st.one_of(
    st.integers(min_value=0, max_value=1 << 20),
    # Straddling 4 GiB: TLPs below use 3-DW headers, TLPs above 4-DW.
    st.integers(min_value=ADDR_32BIT_LIMIT - (256 << 10), max_value=ADDR_32BIT_LIMIT + 4096),
    st.integers(min_value=1 << 40, max_value=(1 << 40) + (1 << 20)),
)
powers = st.sampled_from([128, 256, 512, 1024, 2048, 4096, 8192])
trains = st.tuples(
    st.sampled_from(["write", "completion"]),
    addresses,
    st.integers(min_value=1, max_value=128 << 10),
    powers,  # MPS (write) / MRRS (completion)
    st.sampled_from([64, 128]),  # RCB
)
#: An existing backlog: single TLP sizes posted at time 0, and when the
#: train is enqueued (before or after the backlog drains).
backlogs = st.tuples(
    st.lists(st.integers(min_value=1, max_value=4096), max_size=5),
    st.integers(min_value=0, max_value=20_000_000),
)


def _make_train(kind, addr, length, limit, rcb):
    if kind == "write":
        return write_train(addr, _payload(addr, length), limit, requester="ep")
    # One read request: at most MRRS bytes, inside one 4 KiB page.
    length = min(length, limit, 4096 - addr % 4096)
    request = memory_read(addr, length, requester="host", tag=7)
    return completion_train(request, _payload(addr, length), rcb=rcb)


def _send(train_spec, backlog, materialized: bool):
    """Send one train behind *backlog*, charged as a train or as its
    materialized TLPs (the path an enabled tracer selects)."""
    sim = Simulator(seed=0)
    link = PcieLink(sim, CONFIG, parent=Component(sim, "top", tracer=Tracer(materialized)))
    received = []
    link.attach_endpoint_rx(lambda unit: received.append(unit))
    link.attach_root_rx(lambda unit: None)
    direction = link.downstream
    sizes, at = backlog
    backlog_tlps = [memory_write(0xF000_0000 + i * 0x1000, bytes(n)) for i, n in enumerate(sizes)]
    for tlp in backlog_tlps:
        direction.post(tlp)
    train = _make_train(*train_spec)
    fired = []

    def launch():
        direction.send_train(train).on_trigger(lambda _ev: fired.append(sim.now))

    sim.schedule_at(at, launch)
    sim.run()
    assert [id(unit) for unit in received[: len(sizes)]] == [id(tlp) for tlp in backlog_tlps]
    # Reassemble what the receiver got (a train, or its TLPs in order).
    delivered = bytearray(train.length)
    pos = 0
    for unit in received[len(sizes):]:
        if train.kind is TlpKind.MEM_WRITE:
            pos = unit.addr - train.addr
        delivered[pos : pos + len(unit.data)] = unit.data
        pos += len(unit.data)
    return {
        "last_arrival": fired[0],
        "free_at": direction._free_at,
        "tlps_sent": direction.tlps_sent,
        "bytes_sent": direction.bytes_sent,
        "delivered": bytes(delivered),
    }, train


@given(train_spec=trains, backlog=backlogs)
@settings(max_examples=80, deadline=None)
def test_train_matches_materialized_tlps(train_spec, backlog):
    charged, train = _send(train_spec, backlog, materialized=False)
    built, _ = _send(train_spec, backlog, materialized=True)
    assert charged == built
    # And both match the recursion over the materialized TLPs.
    tlps = train.tlps()
    assert train.count == len(tlps)
    assert train.wire_bytes == sum(tlp.wire_bytes for tlp in tlps)
    sizes, at = backlog
    free = 0
    for size in sizes:
        free += CONFIG.serialization_time(memory_write(0xF000_0000, bytes(size)).wire_bytes)
    free = max(free, at)
    for tlp in tlps:
        free += CONFIG.serialization_time(tlp.wire_bytes)
    assert charged["free_at"] == free
    assert charged["last_arrival"] == free + CONFIG.propagation_time
    assert charged["tlps_sent"] == len(sizes) + len(tlps)
