"""Network engine backend driver (§3.3).

Runs only on hosts with a local NIC.  It moves packets between frontend
drivers (over Oasis message channels) and the NIC's queue pairs (through the
native driver model in :mod:`repro.pcie.nic`), never inspecting packet
buffers on the normal path (§3.2.1): TX buffers go straight from the message
pointer to a WQE, and RX packets are demultiplexed by NIC flow tag.  Only
when the NIC cannot tag a packet does the backend fall back to reading the
header -- and then immediately invalidates the touched lines (footnote 6).

The backend also runs the two periodic control tasks of §3.5: the link-status
monitor that detects NIC/cable/switch failures, and the 100 ms telemetry
reports to the pod-wide allocator.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ...config import OasisConfig
from ...errors import DeviceError
from ...host.host import Host, MemDomain
from ...mem.layout import FixedPool, Region
from ...net.packet import BROADCAST_MAC, Frame
from ...obs.trace import TracerBinding
from ...overload.stage import StageView
from ...pcie.nic import TX_STATUS_DMA_ABORT, SimNIC
from ...pcie.queues import Completion, TxDescriptor
from ...sim.core import MSEC, Simulator
from ..engine import Driver, Link
from .messages import (OP_RX, OP_RX_COMP, OP_TX, OP_TX_COMP, OP_TX_FENCED,
                       NetMessage)

__all__ = ["NetBackend"]


class NetBackend(Driver, TracerBinding):
    """One backend driver per pooled NIC, on a dedicated busy-polling core
    (each of its links is named after the frontend's host)."""

    TX_ITEM_NS = 100.0
    RX_ITEM_NS = 120.0
    COMP_ITEM_NS = 60.0

    # Armed (``_stage`` set): DMA-abort reposts spend the stage's retry
    # budget, funded by fresh posts, so they can never exceed a fraction
    # of fresh TX; refusals are a read-only view of the stage ledger.
    retry_budget_denied = StageView("retry_budget_denied")

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        nic: SimNIC,
        rx_domain: MemDomain,
        rx_region: Region,
        config: Optional[OasisConfig] = None,
        tx_buffers_local: bool = False,
    ):
        super().__init__(sim, f"be-{nic.name}", config)
        self.host = host
        self.nic = nic
        self.rx_domain = rx_domain
        self.tx_buffers_local = tx_buffers_local
        self.rx_pool = FixedPool(rx_region, self.config.datapath.rx_buffer_bytes)
        self._registry: Dict[int, str] = {}      # instance ip -> frontend name
        self._tag_to_ip: Dict[int, int] = {}     # NIC flow tag -> instance ip
        self._tx_pending: deque = deque()        # descriptors awaiting ring space
        self._tx_comps: deque = deque()
        self._rx_comps: deque = deque()
        self._monitor_task = None
        self._failure_reported = False
        self._link_down_at: Optional[float] = None
        self._last_tx_bytes = 0
        self._last_rx_bytes = 0
        # Counters.
        self.tx_posted = 0
        self.rx_forwarded = 0
        self.rx_fallback_inspections = 0
        self.rx_dropped_unknown = 0
        self.tx_retries = 0       # DMA-aborted descriptors reposted
        self.tx_giveups = 0       # aborted descriptors surfaced as errors
        self.fence_rejects = 0    # stale-epoch posts answered OP_TX_FENCED
        self.stale_accepted = 0   # stale posts let through (fencing disabled)

        nic.on_tx_complete = self._on_nic_tx_comp
        nic.on_rx = self._on_nic_rx
        nic.on_link_change(self._on_link_change)
        nic.rx_ring.capacity = self.rx_pool.buffer_size
        nic.rx_ring.local = not rx_domain.is_shared
        self._fill_rx_ring()

    # -- wiring --------------------------------------------------------------------

    def register_instance(self, ip: int, frontend_name: str) -> Optional[int]:
        """Register an instance's IP with this NIC (flow tagging, §3.3.1)."""
        self._registry[ip] = frontend_name
        try:
            tag = self.nic.add_flow_tag(ip)
        except DeviceError:
            return None     # untagged: the footnote-6 fallback inspects it
        self._tag_to_ip[tag] = ip
        return tag

    def unregister_instance(self, ip: int) -> None:
        self._registry.pop(ip, None)
        tag = self.nic.flow_table.get(ip)
        if tag is not None:
            self._tag_to_ip.pop(tag, None)
        self.nic.remove_flow_tag(ip)

    @property
    def device_name(self) -> str:
        return self.nic.name

    @property
    def queue_depth(self) -> int:
        """Outstanding TX work: ring occupancy plus overflow backlog."""
        return len(self.nic.tx_ring) + len(self._tx_pending)

    # -- RX ring management ---------------------------------------------------------------

    def _fill_rx_ring(self) -> None:
        ring = self.nic.rx_ring
        while len(ring) < ring.depth:
            buffers = self.rx_pool.alloc_run(ring.depth - len(ring))
            if buffers is None:
                break
            ring.post(buffers)

    # -- NIC callbacks (interrupt-less completion queues) -----------------------------------

    def _on_nic_tx_comp(self, completion: Completion) -> None:
        self._tx_comps.append(completion)
        self.kick()

    def _on_nic_rx(self, completion: Completion) -> None:
        if self._flows is not None:
            self._flows.mark(completion.descriptor.addr, "be.rx",
                             len(self._rx_comps))
        self._rx_comps.append(completion)
        self.kick()

    # -- driver loop ---------------------------------------------------------------------------

    def _process(self) -> tuple:
        # The frontend-message drain always runs (it is what discovers new
        # work); the other parts are guarded on their queues so an idle
        # wakeup does not pay three calls that return ``(0, 0.0)``.
        items, cost = self._drain_links()
        if self._tx_pending:
            n, c = self._process_tx_pending()
            items += n
            cost += c
        if self._tx_comps:
            n, c = self._process_tx_comps()
            items += n
            cost += c
        if self._rx_comps:
            n, c = self._process_rx_comps()
            items += n
            cost += c
        return items, cost

    def _queued(self) -> int:
        # (_tx_pending waits for the ring of a TX completion, not for a pass.)
        return len(self._tx_comps) + len(self._rx_comps)

    def _on_messages(self, link: Link, payloads: list, cost: float) -> float:
        unpack = NetMessage.unpack
        for raw in payloads:
            message = unpack(raw)
            if message.opcode == OP_TX:
                cost += self._handle_tx(link, message)
            elif message.opcode == OP_RX_COMP:
                cost += self._handle_rx_comp(message)
            else:
                cost += 20.0
        return cost

    def _handle_tx(self, link: Link, message: NetMessage) -> float:
        flows = self._flows
        if self._fenced(self.nic.name, message):
            if flows is not None:
                flows.mark(message.buffer_addr, "be.fence",
                           len(self.nic.tx_ring))
            self._send(link, [
                NetMessage(OP_TX_FENCED, message.size, message.instance_ip,
                           message.buffer_addr, epoch=message.epoch).pack()])
            return self.TX_ITEM_NS
        if flows is not None:
            flows.mark(message.buffer_addr, "be.tx", len(self.nic.tx_ring))
        descriptor = TxDescriptor(
            addr=message.buffer_addr,
            length=message.size,
            cookie=(message, link.name),
            epoch=message.epoch,
        )
        descriptor.local = self.tx_buffers_local
        if self._stage is not None:
            self._stage.budget.deposit()   # fresh posts fund the retry budget
        if self.nic.tx_ring.full or self.nic.failed:
            self._tx_pending.append(descriptor)
        else:
            self.nic.post_tx(descriptor)
            self.tx_posted += 1
        return self.TX_ITEM_NS

    def _process_tx_pending(self) -> tuple:
        cost = 0.0
        items = 0
        while self._tx_pending and not self.nic.tx_ring.full:
            if self.nic.failed:
                # Complete with error so the frontend frees the buffers.
                descriptor = self._tx_pending.popleft()
                message, fe_name = descriptor.cookie
                cost += self._send_to_frontend(
                    fe_name,
                    NetMessage(OP_TX_COMP, message.size, message.instance_ip,
                               message.buffer_addr),
                )
                items += 1
                continue
            self.nic.post_tx(self._tx_pending.popleft())
            self.tx_posted += 1
            items += 1
            cost += self.TX_ITEM_NS / 2
        return items, cost

    def _handle_rx_comp(self, message: NetMessage) -> float:
        """Frontend consumed an RX buffer: recycle and repost it."""
        self._recycle_rx(message.buffer_addr)
        return self.COMP_ITEM_NS

    def _recycle_rx(self, addr: int) -> None:
        """Take an RX buffer back and refill the ring.  Its lines leave the
        pool first: the frame was loaded and flushed before ``OP_RX_COMP``
        (or dropped unread), and the NIC's next DMA write comes before any
        read, so an RX area holds only its in-flight frames (DESIGN §3h)."""
        self.rx_domain.pool.discard(addr, self.rx_pool.buffer_size)
        self.rx_pool.free(addr)
        self._fill_rx_ring()

    def _process_tx_comps(self) -> tuple:
        cost = 0.0
        items = 0
        stage = self._stage
        while self._tx_comps:
            items += 1
            completion = self._tx_comps.popleft()
            descriptor = completion.descriptor
            if completion.status == TX_STATUS_DMA_ABORT:
                if descriptor.retries < self.config.retry.tx_max_retries:
                    if stage is None or stage.budget.try_spend():
                        # A DMA abort left the buffer untouched and owned
                        # by us: repost the same WQE after a short backoff
                        # instead of surfacing a loss to the frontend.
                        descriptor.retries += 1
                        self.tx_retries += 1
                        backoff_s = (self.config.retry.tx_retry_backoff_us
                                     * 1e-6 * 2 ** (descriptor.retries - 1))
                        self.sim.call_after(backoff_s, self._repost_tx,
                                            descriptor)
                        cost += self.COMP_ITEM_NS
                        continue
                    stage.count(None, "retry_budget_denied")
                self.tx_giveups += 1
            message, fe_name = descriptor.cookie
            cost += self.COMP_ITEM_NS
            cost += self._send_to_frontend(
                fe_name,
                NetMessage(OP_TX_COMP, message.size, message.instance_ip,
                           message.buffer_addr),
            )
        return items, cost

    def _repost_tx(self, descriptor: TxDescriptor) -> None:
        """Repost a DMA-aborted WQE (or give the buffer back if the NIC died)."""
        if self.nic.failed:
            message, fe_name = descriptor.cookie
            self.tx_giveups += 1
            self._send_to_frontend(
                fe_name,
                NetMessage(OP_TX_COMP, message.size, message.instance_ip,
                           message.buffer_addr),
            )
            return
        self._tx_pending.append(descriptor)
        self.kick()

    def _process_rx_comps(self) -> tuple:
        cost = 0.0
        items = 0
        while self._rx_comps:
            items += 1
            completion = self._rx_comps.popleft()
            cost += self.RX_ITEM_NS
            addr = completion.descriptor.addr
            ip = self._tag_to_ip.get(completion.tag)
            if ip is None:
                ip, inspect_cost = self._inspect_buffer(addr)
                cost += inspect_cost
            fe_name = self._registry.get(ip)
            if fe_name is None:
                self.rx_dropped_unknown += 1
                self._recycle_rx(addr)
                continue
            self.rx_forwarded += 1
            if self._flows is not None:
                fe_link = self._links.get(fe_name)
                self._flows.mark(
                    addr, "chan.be2fe",
                    fe_link.tx.pending if fe_link is not None else None)
            cost += self._send_to_frontend(
                fe_name, NetMessage(OP_RX, completion.length, ip, addr)
            )
        return items, cost

    def _inspect_buffer(self, addr: int) -> tuple:
        """Footnote 6 fallback: parse the header, then invalidate the lines."""
        self.rx_fallback_inspections += 1
        from ...net.packet import HEADER_SIZE

        data, load_ns = self.rx_domain.cache.load(addr, HEADER_SIZE,
                                                  category="payload")
        cost = load_ns
        cost += self.rx_domain.cache.clflush_range(addr, HEADER_SIZE,
                                                   category="payload")
        frame = Frame.unpack(data)
        return frame.dst_ip, cost

    def _send_to_frontend(self, fe_name: str, message: NetMessage) -> float:
        link = self._links.get(fe_name)
        if link is None:
            return 20.0
        return self._send(link, [message.pack()])

    # -- control plane (§3.3.3, §3.5) -----------------------------------------------------------

    def start_monitors(self) -> None:
        """Start the link monitor, then the telemetry report."""
        if self._monitor_task is None:
            # (quiet: up with nothing reported, or down and reported)
            self._monitor_task = self.sim.every(
                self.config.failover.link_monitor_interval_ms * MSEC,
                self._check_link,
                quiet=self.nic.link_up != self._failure_reported)
        super().start_monitors()

    def stop_monitors(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        super().stop_monitors()

    def _on_link_change(self, up: bool) -> None:
        # Timestamp the physical failure so the detection span covers the
        # whole dead time until the periodic monitor notices (§3.3.3).
        if not up and self._link_down_at is None:
            self._link_down_at = self.sim.now
        elif up:
            self._link_down_at = None
        if self._monitor_task is not None:
            self._monitor_task.wake()

    def _check_link(self) -> None:
        # A later tick acts only after a link change (which wakes it) or,
        # for a failure not yet reported, once a control plane is attached.
        if (self.nic.link_up or self._failure_reported
                or self.control is not None):
            self._monitor_task.quiet()
        if self.nic.link_up:
            self._failure_reported = False
            return
        if self._failure_reported or self.control is None:
            return
        self._failure_reported = True
        down_at = self._link_down_at if self._link_down_at is not None else self.sim.now
        self.tracer.span("failover.detect", down_at, self.sim.now - down_at,
                         category="failover", track="failover",
                         nic=self.nic.name)
        self.tracer.begin("failover.report", key=self.nic.name,
                          category="failover", track="failover",
                          nic=self.nic.name)
        self.control.report_failure(self)

    def _send_telemetry(self) -> None:
        tx_delta = self.nic.tx_bytes - self._last_tx_bytes
        rx_delta = self.nic.rx_bytes - self._last_rx_bytes
        self._last_tx_bytes = self.nic.tx_bytes
        self._last_rx_bytes = self.nic.rx_bytes
        interval = self.config.failover.telemetry_interval_ms * MSEC
        self.control.telemetry(
            backend=self,
            record={
                "device": self.nic.name,
                "host": self.host.name,
                "link_up": self.nic.link_up,
                "tx_bw": tx_delta / interval,
                "rx_bw": rx_delta / interval,
                "instances": len(self._registry),
                "aer": self.nic.aer.total(),
                "queue_depth": self.queue_depth,
                "time": self.sim.now,
            },
        )

    def borrow_mac(self, mac: int) -> None:
        """Take over a failed NIC's MAC by teaching the switch (§3.3.3)."""
        self.nic.send_raw(
            Frame(dst_mac=BROADCAST_MAC, src_mac=mac, wire_size=64)
        )
