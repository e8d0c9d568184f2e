"""PCIe link timing model.

Models what drivers and DMA engines observe: serialization time at the
negotiated generation/width, per-direction propagation/pipeline latency,
and serialization of TLPs contending for the same direction (one TLP at a
time per direction, FIFO order -- an adequate stand-in for flow-control
credits at the queue depths these experiments produce).

The board in the paper (Alinx AX7A200, Artix-7) negotiates **Gen2 x2**:
5 GT/s per lane, 8b/10b encoding, so 4 Gb/s of data per lane and 1 GB/s
per direction for x2 before DLLP overhead.

Each direction is an independent :class:`LinkDirection` (full duplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.faults.plan import KIND_TLP_CORRUPT, KIND_TLP_DELAY, KIND_TLP_DROP
from repro.pcie.tlp import Tlp, TlpTrain
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import SimTime, ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


#: Per-lane raw signalling rate in gigatransfers/s by PCIe generation.
GT_PER_S = {1: 2.5e9, 2: 5.0e9, 3: 8.0e9}
#: Encoding efficiency: 8b/10b for Gen1/2, 128b/130b for Gen3.
ENCODING_EFFICIENCY = {1: 0.8, 2: 0.8, 3: 128.0 / 130.0}


@dataclass(frozen=True)
class LinkConfig:
    """Negotiated link parameters plus transaction-layer settings.

    Parameters
    ----------
    generation / lanes:
        Negotiated speed and width.
    max_payload:
        Max_Payload_Size in bytes (MWr/CplD payload cap).
    max_read_request:
        Max_Read_Request_Size in bytes.
    read_completion_boundary:
        RCB for completion splitting (host root complexes use 64 B).
    propagation_ns:
        One-way latency from requester transaction layer to completer
        transaction layer: PHY pipelines, link, and the root-complex or
        endpoint ingress.  Calibrated per testbed.
    dllp_efficiency:
        Fraction of data bandwidth left after DLLP/ordered-set overhead.
    """

    generation: int = 2
    lanes: int = 2
    max_payload: int = 256
    max_read_request: int = 512
    read_completion_boundary: int = 64
    propagation_ns: float = 150.0
    dllp_efficiency: float = 0.95

    def __post_init__(self) -> None:
        if self.generation not in GT_PER_S:
            raise ValueError(f"unsupported PCIe generation {self.generation}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")
        for field_name in ("max_payload", "max_read_request"):
            value = getattr(self, field_name)
            if value < 128 or value & (value - 1):
                raise ValueError(f"{field_name} must be a power of two >= 128, got {value}")
        if not 0 < self.dllp_efficiency <= 1:
            raise ValueError(f"dllp_efficiency must be in (0,1], got {self.dllp_efficiency}")
        if self.propagation_ns < 0:
            raise ValueError(f"propagation_ns must be >= 0, got {self.propagation_ns}")

    @property
    def bytes_per_second(self) -> float:
        """Effective data bandwidth per direction."""
        raw_bits = GT_PER_S[self.generation] * self.lanes
        return raw_bits * ENCODING_EFFICIENCY[self.generation] * self.dllp_efficiency / 8.0

    def serialization_time(self, wire_bytes: int) -> SimTime:
        """Time to clock *wire_bytes* onto the link."""
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        return round(wire_bytes / self.bytes_per_second * 1e12)

    @property
    def propagation_time(self) -> SimTime:
        return ns(self.propagation_ns)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Gen{self.generation} x{self.lanes} "
            f"({self.bytes_per_second / 1e9:.2f} GB/s/dir, MPS={self.max_payload})"
        )


#: The paper's experimental link: Artix-7 board with two Gen2 lanes.
PAPER_LINK = LinkConfig(generation=2, lanes=2)


#: Receive callback: one TLP, or a whole :class:`TlpTrain` at once.
DeliverFn = Callable[[Union[Tlp, TlpTrain]], None]


class LinkDirection(Component):
    """One direction of the full-duplex link, as a closed-form FIFO.

    TLPs are serialized one at a time in FIFO order: a TLP enqueued at
    time ``t`` starts transmitting at ``max(t, free_at)``, where
    ``free_at`` is when the previous TLP's last byte left, and is
    delivered to the receiver's callback ``propagation_time`` after its
    own last byte.  Because the departure of every TLP is fixed the
    moment it is enqueued, the transmitter needs no events of its own:
    a single TLP costs one delivery event, and a :class:`TlpTrain`
    (:meth:`send_train` / :meth:`post_train`) costs one event in total,
    at its last TLP's arrival time, which hands the receiver the whole
    train.  Where TLPs are observed one at a time -- an attached fault
    injector, an enabled tracer, a switch uplink -- the train's TLPs are
    built and each goes through the per-TLP path (one event at the last
    arrival delivers them in order; behind a switch, one forward each).
    """

    def __init__(
        self,
        sim: "Simulator",
        config: LinkConfig,
        deliver: DeliverFn,
        name: str,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.config = config
        self.deliver = deliver
        #: When the transmitter finishes clocking out the last TLP
        #: enqueued so far (the FIFO's whole state).
        self._free_at: SimTime = 0
        self._tlps_sent = 0
        self._bytes_sent = 0
        # Hot-path caches: the config is frozen, so serialization times
        # are a pure function of wire size (tiny key space: a handful of
        # TLP shapes per run), and the delivery-event name and
        # propagation delay never change.
        self._ser_cache: dict[int, SimTime] = {}
        self._prop_time = config.propagation_time
        self._delivered_name = f"{self.path}.delivered"
        # Pre-bound event callbacks: a fresh bound method per scheduled
        # delivery would otherwise be allocated per TLP.
        self._arrive_cb = self._arrive
        self._arrive_train_cb = self._arrive_train
        self._arrive_tlps_cb = self._arrive_tlps
        #: Fault injector (attached by repro.faults; None in normal runs).
        self.injector = None
        #: Shared-uplink arbiter (a PcieSwitch) when this direction sits
        #: behind a switch; None leaves behaviour exactly as before.
        self.uplink = None
        self.uplink_port = -1
        #: Injection-site name: "pcie.down" / "pcie.up".
        self.fault_site = f"pcie.{name}"
        self.tlps_dropped = 0
        self.tlps_corrupted = 0
        self.tlps_delayed = 0

    def send(self, tlp: Tlp) -> Event:
        """Enqueue a TLP for transmission.  Returns the delivery event
        (fires when the TLP reaches the receiver); posted-write callers
        that do not care may ignore it."""
        delivered = Event(name=self._delivered_name)
        self._launch(tlp, delivered)
        return delivered

    def post(self, tlp: Tlp) -> None:
        """Fire-and-forget enqueue: identical transmission timing to
        :meth:`send`, but no delivery event is allocated.  For TLPs
        whose delivery nothing ever waits on (completions, MSI writes,
        posted MMIO, read requests tracked by tag)."""
        self._launch(tlp, None)

    def send_train(self, train: TlpTrain) -> Event:
        """Enqueue a TLP train; returns the event that fires when its
        last TLP reaches the receiver.

        Per-TLP timing is identical to sending the train's TLPs one by
        one, but the receiver gets the whole train at the last TLP's
        arrival time.  Only for receivers that act on the whole burst:
        the MWr segments of one DMA write.
        """
        delivered = Event(name=self._delivered_name)
        self._launch_train(train, delivered)
        return delivered

    def post_train(self, train: TlpTrain) -> None:
        """Fire-and-forget :meth:`send_train` (no delivery event): the
        RCB-split completions of one read request."""
        self._launch_train(train, None)

    def _depart(self, tlp: Tlp) -> SimTime:
        """Reserve the transmitter for *tlp*; returns the time its last
        byte leaves (``max(now, free_at) + serialization``)."""
        wire = tlp.wire_bytes
        ser = self._ser_cache.get(wire)
        if ser is None:
            ser = self.config.serialization_time(wire)
            self._ser_cache[wire] = ser
        start = self._free_at
        now = self.sim._now
        if start < now:
            start = now
        self._free_at = depart = start + ser
        self._tlps_sent += 1
        self._bytes_sent += wire
        if self.tracer.enabled:
            self.tracer.emit(start, self.path, "tlp-tx",
                             tlp=tlp.kind.value, addr=tlp.addr, bytes=wire)
        return depart

    def _launch(self, tlp: Tlp, delivered: Optional[Event]) -> None:
        depart = self._depart(tlp)
        # Inlined ``sim.schedule_at`` -- one of these runs per TLP.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if self.uplink is None:
            sim._push((depart + self._prop_time, seq, self._arrive_cb, (tlp, delivered)))
        else:
            # Store-and-forward: at departure the TLP joins the switch's
            # shared uplink, whose arbiter takes TLPs one at a time.
            sim._push((depart, seq, self.uplink.forward, (self, tlp, delivered)))

    def _launch_train(self, train: TlpTrain, delivered: Optional[Event]) -> None:
        if self.injector is not None or self.uplink is not None or self.tracer.enabled:
            self._launch_tlps(train.tlps(), delivered)
            return
        # The train's departure is its first TLP's transmit start plus
        # every TLP's own (rounded) serialization time.
        ser_cache = self._ser_cache
        ser = 0
        for wire, count in train.shape:
            tlp_ser = ser_cache.get(wire)
            if tlp_ser is None:
                tlp_ser = ser_cache[wire] = self.config.serialization_time(wire)
            ser += tlp_ser * count
        sim = self.sim
        start = self._free_at
        now = sim._now
        if start < now:
            start = now
        self._free_at = depart = start + ser
        self._tlps_sent += train.count
        self._bytes_sent += train.wire_bytes
        sim._seq = seq = sim._seq + 1
        sim._push((depart + self._prop_time, seq, self._arrive_train_cb, (train, delivered)))

    def _arrive_train(self, train: TlpTrain, delivered: Optional[Event]) -> None:
        self.deliver(train)
        if delivered is not None:
            delivered.trigger(None)

    def _launch_tlps(self, tlps: Sequence[Tlp], delivered: Optional[Event]) -> None:
        """Per-TLP path of a train: same timing, but each TLP is
        departed, traced, fault-checked and received on its own."""
        last = len(tlps) - 1
        if not last or self.uplink is not None:
            for i, tlp in enumerate(tlps):
                self._launch(tlp, delivered if i == last else None)
            return
        prop = self._prop_time
        depart = self._depart
        arrivals = [depart(tlp) + prop for tlp in tlps]
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((arrivals[last], seq, self._arrive_tlps_cb, (tlps, arrivals, delivered)))

    def _arrive_tlps(
        self, tlps: Sequence[Tlp], arrivals: List[SimTime], delivered: Optional[Event]
    ) -> None:
        arrive = self._arrive
        last = len(tlps) - 1
        for i, tlp in enumerate(tlps):
            arrive(tlp, delivered if i == last else None, arrivals[i])

    def _arrive(
        self, tlp: Tlp, delivered: Optional[Event], at: Optional[SimTime] = None
    ) -> None:
        # *at* is the TLP's own arrival time when it is delivered as part
        # of a materialized train (which runs at the last TLP's arrival).
        if self.injector is not None and self._inject_on_arrival(tlp, delivered):
            return
        if self.tracer.enabled:
            self.tracer.emit(self.sim._now if at is None else at, self.path, "tlp-rx",
                             tlp=tlp.kind.value, addr=tlp.addr)
        self.deliver(tlp)
        if delivered is not None:
            delivered.trigger(None)

    def _inject_on_arrival(self, tlp: Tlp, delivered: Optional[Event]) -> bool:
        """Apply link-level faults to an arriving TLP.  Returns True when
        the normal delivery path must be skipped."""
        injector = self.injector
        if tlp.is_posted and injector.fire(self.fault_site, KIND_TLP_DROP) is not None:
            # The write is silently lost in the fabric.  The sender only
            # ever observed the posted handshake, so its local delivery
            # event still fires -- nothing upstream may block on a drop.
            self.tlps_dropped += 1
            self.trace("tlp-dropped", tlp=tlp.kind.value, addr=tlp.addr)
            if delivered is not None:
                delivered.trigger(None)
            return True
        if tlp.is_posted and len(tlp.data):
            if injector.fire(self.fault_site, KIND_TLP_CORRUPT) is not None:
                self.tlps_corrupted += 1
                self.trace("tlp-corrupted", addr=tlp.addr, bytes=len(tlp.data))
                # Copy-on-write: the payload may be a view of a pooled or
                # live buffer the fault must not scribble on.  Take a
                # private writable copy once, then flip the byte in place.
                buf = bytearray(tlp.data)
                buf[-1] ^= 0xFF
                tlp.data = buf
        spec = injector.fire(self.fault_site, KIND_TLP_DELAY)
        if spec is not None:
            self.tlps_delayed += 1
            self.trace("tlp-delayed", tlp=tlp.kind.value, addr=tlp.addr)
            if not isinstance(tlp.data, bytes):
                # The delayed delivery may outlive the buffer the payload
                # views (pooled staging is recycled once the sender's
                # delivery event fires) -- snapshot before rescheduling.
                tlp.data = bytes(tlp.data)
            self.sim.schedule(
                injector.delay_ps(spec, default_ns=500.0), self._deliver_late, tlp, delivered
            )
            return True
        return False

    def _deliver_late(self, tlp: Tlp, delivered: Optional[Event]) -> None:
        self.trace("tlp-rx", tlp=tlp.kind.value, addr=tlp.addr)
        self.deliver(tlp)
        if delivered is not None:
            delivered.trigger(None)

    @property
    def tlps_sent(self) -> int:
        return self._tlps_sent

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent


class PcieLink(Component):
    """A full-duplex point-to-point link between two agents.

    The two agents (root complex and endpoint) attach receive callbacks;
    ``downstream``/``upstream`` carry TLPs toward the endpoint / toward
    the root complex respectively.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: LinkConfig,
        name: str = "pcie-link",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.config = config
        self._downstream: Optional[LinkDirection] = None
        self._upstream: Optional[LinkDirection] = None

    def attach_endpoint_rx(self, deliver: DeliverFn) -> None:
        """Set the endpoint's receive callback (downstream direction)."""
        self._downstream = LinkDirection(self.sim, self.config, deliver, "down", parent=self)

    def attach_root_rx(self, deliver: DeliverFn) -> None:
        """Set the root complex's receive callback (upstream direction)."""
        self._upstream = LinkDirection(self.sim, self.config, deliver, "up", parent=self)

    def send_downstream(self, tlp: Tlp) -> Event:
        """Root complex -> endpoint; returns the delivery event."""
        if self._downstream is None:
            raise RuntimeError(f"link {self.name!r}: endpoint rx not attached")
        return self._downstream.send(tlp)

    def send_upstream(self, tlp: Tlp) -> Event:
        """Endpoint -> root complex; returns the delivery event."""
        if self._upstream is None:
            raise RuntimeError(f"link {self.name!r}: root rx not attached")
        return self._upstream.send(tlp)

    def post_downstream(self, tlp: Tlp) -> None:
        """Fire-and-forget :meth:`send_downstream` (no delivery event)."""
        if self._downstream is None:
            raise RuntimeError(f"link {self.name!r}: endpoint rx not attached")
        self._downstream.post(tlp)

    def post_upstream(self, tlp: Tlp) -> None:
        """Fire-and-forget :meth:`send_upstream` (no delivery event)."""
        if self._upstream is None:
            raise RuntimeError(f"link {self.name!r}: root rx not attached")
        self._upstream.post(tlp)

    @property
    def endpoint_attached(self) -> bool:
        """Whether a device terminates the downstream direction (links
        with no device behave as empty slots at enumeration)."""
        return self._downstream is not None

    @property
    def downstream(self) -> LinkDirection:
        assert self._downstream is not None
        return self._downstream

    @property
    def upstream(self) -> LinkDirection:
        assert self._upstream is not None
        return self._upstream
