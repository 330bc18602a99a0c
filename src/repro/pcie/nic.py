"""Simulated 100 Gbit NIC (the Mellanox CX5 stand-in).

Operating flow mirrors the mlx5/DPDK model the paper builds on (§3.3.1):

* TX: the backend driver posts a WQE pointing at a TX buffer in shared CXL
  memory; the NIC DMA-reads the buffer (bypassing CPU caches), serialises the
  frame at line rate and hands it to its switch port, then raises a TX
  completion carrying the driver's cookie.
* RX: the driver posts RX buffers (runs of addresses) in the per-NIC RX buffer
  area; on frame arrival the NIC matches the destination IP against its flow
  table (flow tagging, rte_flow-style), DMA-writes the frame into the next
  posted buffer and raises an RX completion with the matched tag (or ``None``
  so the driver falls back to header inspection, footnote 6).
* MAC borrowing: :meth:`send_raw` transmits a frame with an arbitrary source
  MAC, which is how the backup NIC takes over a failed NIC's address
  (§3.3.3) -- the switch relearns the mapping from the frame.

The NIC's link state is the AND of its own health and the switch port state,
so disabling the switch port (the paper's failure injection) is observed by
the backend driver's link monitor.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import NICConfig
from ..errors import DeviceError
from ..net.packet import Frame
from ..net.switch import SwitchPort
from ..obs.flow import FlowBinding
from ..obs.trace import TracerBinding
from ..sim.core import Simulator
from .device import PCIeDevice
from .queues import Completion, DescriptorRing, RxDescriptor, RxRing, TxDescriptor

__all__ = ["SimNIC", "TX_STATUS_OK", "TX_STATUS_LINK_ERROR", "TX_STATUS_DMA_ABORT"]

TX_STATUS_OK = 0
TX_STATUS_LINK_ERROR = 1    # NIC dead or link down: not retriable at the NIC
TX_STATUS_DMA_ABORT = 2     # DMA aborted mid-transfer: retriable (repost)


class SimNIC(PCIeDevice, TracerBinding, FlowBinding):
    """A host-attached NIC pooled by the Oasis network engine."""

    def __init__(
        self,
        sim: Simulator,
        host,
        mac: int,
        config: Optional[NICConfig] = None,
        name: Optional[str] = None,
    ):
        super().__init__(sim, host, name or f"nic-{mac:x}")
        self.mac = mac
        self.config = config or NICConfig()
        self.tx_ring = DescriptorRing(self.config.tx_queue_depth, f"{self.name}-txq")
        self.rx_ring = RxRing(self.config.rx_queue_depth, f"{self.name}-rxq")
        self.flow_table: Dict[int, int] = {}
        self._next_tag = 1
        self.port: Optional[SwitchPort] = None
        self._tx_busy_until = 0.0
        self._tx_scheduled = False
        # Driver callbacks (set by the backend driver).
        self.on_tx_complete: Optional[Callable[[Completion], None]] = None
        self.on_rx: Optional[Callable[[Completion], None]] = None
        # Counters.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_dropped_no_buffer = 0
        self.rx_dropped_down = 0
        self.tx_completions = 0
        self.dma_aborts = 0
        self._abort_tx_next = 0     # armed by fault injection

    # -- wiring ------------------------------------------------------------------

    def connect(self, port: SwitchPort) -> None:
        """Cable the NIC to a switch port."""
        self.port = port
        port.attach(self._on_wire_rx)
        port.on_link_change(lambda up: self._notify_link(self.link_up))

    @property
    def link_up(self) -> bool:
        return not self.failed and self.port is not None and self.port.enabled

    # -- flow tagging (rte_flow) ---------------------------------------------------

    def add_flow_tag(self, dst_ip: int) -> int:
        """Steer frames for ``dst_ip`` to a tag; returns the tag.  A NIC
        with ``max_flow_tags == 0`` has no flow tagging: this always raises."""
        if dst_ip in self.flow_table:
            return self.flow_table[dst_ip]
        if len(self.flow_table) >= self.config.max_flow_tags:
            raise DeviceError(f"{self.name} flow table full")
        tag = self._next_tag
        self._next_tag += 1
        self.flow_table[dst_ip] = tag
        return tag

    def remove_flow_tag(self, dst_ip: int) -> None:
        self.flow_table.pop(dst_ip, None)

    # -- TX path ----------------------------------------------------------------------

    def post_tx(self, descriptor: TxDescriptor) -> None:
        """Post a WQE; the NIC processes the ring in order at line rate."""
        self._check_alive()
        self.tx_ring.post(descriptor)
        self._kick_tx()

    def _kick_tx(self) -> None:
        """The TX side's one idle/busy decision.  A doorbell is an MMIO write,
        not a latency: an idle serialiser starts the head WQE on the caller's
        stack, a busy one when it frees.  A step that would *complete* the
        WQE (abort armed, NIC failed) takes a zero-delay hop: a completion is
        never delivered inside ``post_tx`` (DESIGN §3e)."""
        if self._tx_scheduled or self.tx_ring.empty:
            return
        now = self.sim.now
        busy = self._tx_busy_until
        if busy <= now and not self._abort_tx_next and not self.failed:
            self._tx_process_one()
        else:
            self._tx_scheduled = True
            self.sim.call_after(max(busy - now, 0.0), self._tx_process_one)

    def inject_dma_abort(self, count: int = 1) -> None:
        """Arm a mid-transfer fault: the next ``count`` TX descriptors abort
        their buffer DMA and complete with :data:`TX_STATUS_DMA_ABORT`
        (a correctable AER event; the driver may repost them)."""
        if count <= 0:
            raise DeviceError("dma abort count must be positive")
        self._abort_tx_next += count

    def _tx_process_one(self) -> None:
        self._tx_scheduled = False
        if self.tx_ring.empty:
            return
        desc: TxDescriptor = self.tx_ring.pop()
        if self.failed:
            self._complete_tx(desc, status=TX_STATUS_LINK_ERROR)
            self._kick_tx()
            return
        if self._abort_tx_next > 0:
            self._abort_tx_next -= 1
            self.dma_aborts += 1
            self.aer.non_fatal += 1
            if self._trace is not None:
                self._trace.instant("nic.tx.dma_abort", category="fault",
                                    track=self.name, addr=desc.addr)
            self._complete_tx(desc, status=TX_STATUS_DMA_ABORT)
            self._kick_tx()
            return
        # WQE fetch + DMA read of the buffer over the host's CXL link.
        data = self.host.dma_read(desc.addr, desc.length, category="payload",
                                  local=desc.local)
        frame = Frame.unpack(data)
        flows = self._flows
        if flows is not None:
            # The TX buffer address is the flow's bridge across pack()/DMA;
            # pop it (the buffer is freed after completion) and ride the
            # in-sim frame object from here to the wire.
            flow = flows.pop(desc.addr)
            if flow is not None:
                flow.stage("nic.tx.dma")
                frame.meta["flow"] = flow
        wire_size = frame.wire_size
        dma_s = self.config.dma_setup_ns * 1e-9 + self.host.link_transfer_delay(
            wire_size, direction="read", local=desc.local)
        serialize_s = wire_size / self.config.bytes_per_sec
        sim = self.sim
        done = sim.now + dma_s + serialize_s
        self._tx_busy_until = done
        if self._trace is not None:
            self._trace.span("nic.tx", sim.now, dma_s + serialize_s,
                             category="dma", track=self.name,
                             bytes=wire_size)
        sim.call_after(done - sim.now, self._tx_emit, frame, desc)
        self._kick_tx()

    def _tx_emit(self, frame: Frame, desc: TxDescriptor) -> None:
        if self.link_up and self.port is not None:
            self.tx_frames += 1
            self.tx_bytes += frame.wire_size
            self.port.receive(frame)
            self._complete_tx(desc, status=TX_STATUS_OK)
        else:
            self._complete_tx(desc, status=TX_STATUS_LINK_ERROR)
        self._kick_tx()

    def _complete_tx(self, desc: TxDescriptor, status: int) -> None:
        self.tx_completions += 1
        if self.on_tx_complete is not None:
            self.on_tx_complete(
                Completion(descriptor=desc, status=status, length=desc.length,
                           timestamp=self.sim.now)
            )

    def fail(self, reason: str = "injected") -> None:
        """Hard-failing the NIC error-completes everything still queued, so
        the driver can release the TX buffers instead of leaking them."""
        if self.failed:
            return
        super().fail(reason)
        for desc in self.tx_ring.drain():
            self._complete_tx(desc, status=TX_STATUS_LINK_ERROR)

    def send_raw(self, frame: Frame) -> None:
        """Transmit a driver-crafted frame immediately (MAC borrowing)."""
        self._check_alive()
        if self.link_up and self.port is not None:
            self.tx_frames += 1
            self.tx_bytes += frame.wire_size
            self.port.receive(frame)

    # -- RX path -------------------------------------------------------------------------

    def _on_wire_rx(self, frame: Frame) -> None:
        if self.failed:
            self.rx_dropped_down += 1
            return
        ring = self.rx_ring
        if not ring:
            self.rx_dropped_no_buffer += 1
            return
        data = frame.pack()
        if len(data) > ring.capacity:      # checked before the buffer is taken
            raise DeviceError(
                f"{self.name}: frame of {len(data)} B exceeds RX buffer "
                f"capacity {ring.capacity} B"
            )
        desc = RxDescriptor(ring.pop(), ring.capacity, ring.local)
        tag = self.flow_table.get(frame.dst_ip)
        if frame.meta:
            flow = frame.meta.get("flow")
            if flow is not None:
                flow.stage("nic.rx.dma")
                # The frame object dies here (only bytes land in the RX
                # buffer); park the context under the buffer address for the
                # backend/frontend to pick up.
                self.flows.stash(desc.addr, flow)
        # DMA write into the RX buffer area (bypassing CPU caches), then
        # complete after the CXL link transfer.
        wire_size = frame.wire_size
        self.host.dma_write(desc.addr, data, category="payload", local=desc.local,
                            account_bytes=wire_size)
        self.rx_frames += 1
        self.rx_bytes += wire_size
        sim = self.sim
        done = sim.now + self.host.link_transfer_delay(
            wire_size, direction="write", local=desc.local)
        if self._trace is not None:
            self._trace.span("nic.rx", sim.now, done - sim.now,
                             category="dma", track=self.name,
                             bytes=wire_size)
        completion = Completion(descriptor=desc, status=0, length=len(data),
                                tag=tag, timestamp=done)
        sim.call_after(done - sim.now, self._deliver_rx, completion)

    def _deliver_rx(self, completion: Completion) -> None:
        if self.on_rx is not None:
            self.on_rx(completion)
