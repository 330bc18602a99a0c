"""Network engine frontend driver (§3.3).

Runs on every host.  Exposes a packet I/O interface (:class:`VirtualNIC`) to
local instances over IPC, forwards TX packets and receives RX packets from
the backend drivers of the NICs its instances are allocated to, and enforces
the §3.2.1 coherence rules on the frontend side:

* TX: write back (CLWB) the instance's TX buffer before signalling the
  backend, so the device's DMA read sees the bytes;
* RX: copy the packet from the per-NIC RX buffer area into instance-local
  memory, then invalidate (CLFLUSHOPT) the RX buffer lines so a recycled
  buffer is never read stale.

Failover (§3.3.3) and graceful migration (§3.3.4) both happen here: the
frontend atomically reroutes an instance's TX traffic to a different backend
link, while RX traffic is steered by the switch (MAC borrowing) or dual
registration (migration grace period).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from ...config import OasisConfig
from ...errors import AllocationError
from ...host.host import Host, MemDomain
from ...host.instance import Instance
from ...mem.layout import Region, RegionAllocator
from ...net.packet import Frame
from ...overload.stage import StageView
from ...sim.core import NSEC, USEC, Simulator
from ..engine import Driver, Link
from .messages import (OP_RX, OP_RX_COMP, OP_TX, OP_TX_COMP, OP_TX_FENCED,
                       NetMessage)

__all__ = ["NetFrontend", "VirtualNIC", "BackendLink"]


@dataclass(eq=False)
class BackendLink(Link):
    """Frontend's view of one backend driver it can reach (``name`` is the
    NIC's, e.g. "nic-h0")."""

    rx_domain: MemDomain        # where this NIC's RX buffer area lives
    nic_mac: int
    remote: bool = True         # False for the colocated-baseline link


@dataclass
class _InstanceRecord:
    instance: Instance
    tx_area: RegionAllocator
    primary: BackendLink
    backup: Optional[BackendLink] = None
    current_mac: int = 0
    extra_rx: set = field(default_factory=set)   # migration grace-period links
    tx_dropped: int = 0
    epoch: int = 0   # fencing epoch stamped on every post (§3.3.3)


class VirtualNIC:
    """The per-instance packet interface (Junction's vNIC equivalent)."""

    def __init__(self, frontend: "NetFrontend", instance: Instance):
        self.frontend = frontend
        self.instance = instance

    def transmit(self, frame: Frame) -> None:
        self.frontend._instance_tx(self.instance, frame)


class NetFrontend(Driver):
    """One frontend driver per host, on a dedicated busy-polling core."""

    # Frames refused at the TX admission stage, by reason: read-only views
    # of the stage ledger (0 while unarmed).
    tx_shed = StageView("shed")
    tx_shed_queue_full = StageView("shed_queue_full")
    tx_shed_brownout = StageView("shed_brownout")
    tx_shed_sojourn = StageView("shed_sojourn")     # CoDel front-drops
    brownout_level = StageView("brownout_level")

    def arm(self, stage) -> None:
        """Attach the TX admission stage.

        Frames tagged with ``frame.meta["tenant"]`` ride their tenant's
        bounded lane (depth cap + CoDel sojourn drop) once the tenant is
        registered; everything else shares one lane.  Frames already
        queued move into the stage, so arming mid-run strands nothing.
        """
        super().arm(stage)
        stage.downstream = self._ring_occupancy
        while self._tx_queue:
            item = self._tx_queue.popleft()
            if not stage.queue.push(self.sim.now, item, item[4]):
                self._shed_tx(item, "queue_full")

    def tenant_stats(self):
        """Per-lane TX scheduling counters (empty while unarmed)."""
        return {} if self._stage is None else self._stage.queue.per_tenant()

    def _ring_occupancy(self) -> float:
        """Worst cached occupancy of the backend IPC rings (zero-cost,
        conservatively biased full): congestion behind the TX stage."""
        return max((link.tx.occupancy_cached
                    for link in self._links.values()), default=0.0)

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        buffer_domain: MemDomain,
        tx_region: Region,
        arp,
        config: Optional[OasisConfig] = None,
    ):
        super().__init__(sim, f"fe-{host.name}", config)
        self.host = host
        self.domain = buffer_domain
        self.arp = arp
        self._tx_space = RegionAllocator(tx_region)
        self._records: Dict[int, _InstanceRecord] = {}
        # (ip, Region, packed_size, wire, tenant); unarmed TX path only
        self._tx_queue: deque = deque()
        self._tx_pending: Dict[int, tuple] = {}  # buffer addr -> (Region, ip)
        self._resync_inflight: set = set()
        # Counters.
        self.tx_forwarded = 0
        self.rx_delivered = 0
        self.rx_unknown_instance = 0
        self.tx_no_buffer = 0
        self.tx_fenced = 0
        self.resyncs = 0

    # -- wiring -----------------------------------------------------------------

    def register_instance(
        self,
        instance: Instance,
        primary: BackendLink,
        backup: Optional[BackendLink] = None,
        epoch: int = 0,
    ) -> VirtualNIC:
        """Attach an instance to this frontend with its allocated NIC."""
        if instance.ip in self._records:
            raise AllocationError(f"instance IP {instance.ip} already registered")
        area = self._tx_space.alloc(
            self.config.datapath.instance_tx_area_bytes, f"txarea-{instance.name}"
        )
        record = _InstanceRecord(
            instance=instance,
            tx_area=RegionAllocator(area),
            primary=primary,
            backup=backup,
            current_mac=primary.nic_mac,
            epoch=epoch,
        )
        self._records[instance.ip] = record
        vnic = VirtualNIC(self, instance)
        instance.attach_vnic(vnic)
        self.arp.announce(instance.ip, primary.nic_mac)
        return vnic

    # -- TX: instance side (runs in instance context) ------------------------------

    def _instance_tx(self, instance: Instance, frame: Frame) -> None:
        record = self._records.get(instance.ip)
        if record is None:
            raise AllocationError(f"instance {instance.name} not registered")
        meta = frame.meta
        # The tenant tag rides the IPC hop beside the buffer (the packed
        # bytes drop frame identity).
        tenant = meta.get("tenant") if meta else None
        stage = self._stage
        if (stage is not None and stage.brownout_level
                and meta and meta.get("prio", 1) < 1):
            # Brownout: low-priority frames are shed before buying a buffer,
            # keeping the TX area and queue for foreground traffic.
            stage.count(tenant, "shed_brownout")
            record.tx_dropped += 1
            return
        # The instance's network stack fills the Ethernet header.
        frame.src_mac = record.current_mac
        if frame.dst_mac == 0:
            frame.dst_mac = self.arp.lookup(frame.dst_ip)
        data = frame.pack()
        try:
            region = record.tx_area.alloc(len(data))
        except Exception:
            record.tx_dropped += 1
            self.tx_no_buffer += 1
            return
        if meta:
            flow = meta.get("flow")
            if flow is not None:
                # The packed bytes drop frame identity; bridge the DMA/IPC
                # boundary by parking the context under the buffer address.
                flow.stage("inst.tx")
                self.flows.stash(region.base, flow)
        store_ns = self.domain.cache.store(region.base, data, category="payload")
        delay = self.config.datapath.ipc_hop_us * USEC + store_ns * NSEC
        self.sim.call_after(delay, self._ipc_tx_arrive, instance.ip, region,
                            len(data), frame.wire_size, tenant)

    def _ipc_tx_arrive(self, ip: int, region: Region, packed: int, wire: int,
                       tenant=None) -> None:
        item = (ip, region, packed, wire, tenant)
        stage = self._stage
        if stage is None:
            depth = len(self._tx_queue)
            self._tx_queue.append(item)
        else:
            depth = len(stage.queue)
            if not stage.queue.push(self.sim.now, item, tenant):
                # The lane is standing-room only: shed this frame (only the
                # lane's own excess) instead of growing the backlog.
                self._shed_tx(item, "queue_full")
                return
        if self._flows is not None:
            self._flows.mark(region.base, "fe.tx", depth)
        self.kick()

    def _shed_tx(self, item: tuple, reason: str) -> None:
        """Count a frame shed by the TX stage; release its flow context
        and TX buffer."""
        ip, region, _packed, _wire, tenant = item
        self._stage.count(tenant, "shed_" + reason)
        if self._flows is not None:
            self._flows.pop(region.base)
        record = self._records.get(ip)
        if record is not None:
            record.tx_area.free(region)
            record.tx_dropped += 1

    # -- driver loop ---------------------------------------------------------------------

    #: per-item frontend CPU costs, ns
    TX_ITEM_NS = 120.0
    RX_ITEM_NS = 150.0

    def _process(self) -> tuple:
        # The TX stage is guarded on its queue so an idle wakeup does not pay
        # a call that returns ``(0, 0.0)``; the backend-message drain always
        # runs (it is what discovers new work) into its own accumulator,
        # the float grouping of the cost sum the replays were pinned on.
        items = 0
        cost = 0.0
        stage = self._stage
        if self._tx_queue if stage is None else len(stage.queue):
            items, cost = self._process_tx()
        drained, drain_cost = self._drain_links()
        return items + drained, cost + drain_cost

    def _queued(self) -> int:
        return len(self._tx_queue if self._stage is None
                   else self._stage.queue)

    def _on_messages(self, link: BackendLink, payloads: list,
                     cost: float) -> float:
        unpack = NetMessage.unpack
        comp_batch = []
        for raw in payloads:
            message = unpack(raw)
            if message.opcode == OP_TX_COMP:
                cost += self._handle_tx_comp(message)
            elif message.opcode == OP_TX_FENCED:
                cost += self._handle_tx_fenced(message)
            elif message.opcode == OP_RX:
                cost += self._handle_rx(link, message)
                comp_batch.append(
                    NetMessage(OP_RX_COMP, 0, message.instance_ip,
                               message.buffer_addr).pack()
                )
            else:
                cost += 20.0
        if comp_batch:
            cost += self._send(link, comp_batch)
        return cost

    def _process_tx(self, batch: int = 64) -> tuple:
        cost = 0.0
        per_link: Dict[str, list] = {}
        count = 0
        tx_queue = self._tx_queue
        records = self._records
        tx_pending = self._tx_pending
        clwb_range = self.domain.cache.clwb_range
        flows = self._flows
        stage = self._stage
        now = self.sim.now
        while count < batch:
            if stage is not None:
                item, dropped = stage.queue.pop(now)
                for drop in dropped:
                    # CoDel front-drop off an overlong TX lane.
                    self._shed_tx(drop, "sojourn")
                if item is None:
                    break
            elif tx_queue:
                item = tx_queue.popleft()
            else:
                break
            ip, region, packed, _wire, _tenant = item
            record = records.get(ip)
            if record is None:
                continue
            # Write back the TX buffer so the remote NIC's DMA sees it.
            cost += clwb_range(region.base, packed, category="payload")
            tx_pending[region.base] = (region, ip)
            message = NetMessage(OP_TX, packed, ip, region.base,
                                 epoch=record.epoch & 0xFF)
            if flows is not None:
                flows.mark(region.base, "chan.fe2be", record.primary.tx.pending)
            per_link.setdefault(record.primary.name, []).append(message.pack())
            cost += self.TX_ITEM_NS
            count += 1
        if count == batch:
            self.kick()     # stopped at the limit: ring for what is left
        for link_name, payloads in per_link.items():
            cost += self._send(self._links[link_name], payloads)
            self.tx_forwarded += len(payloads)
        return count, cost

    def _handle_tx_comp(self, message: NetMessage) -> float:
        entry = self._tx_pending.pop(message.buffer_addr, None)
        if entry is None:
            return 20.0
        if self._flows is not None:
            # Drop any leftover stash entry before the buffer is recycled
            # (the NIC pops it on the normal path; error completions don't).
            self._flows.pop(message.buffer_addr)
        region, ip = entry
        record = self._records.get(ip)
        if record is not None:
            record.tx_area.free(region)
        return 40.0

    def _handle_tx_fenced(self, message: NetMessage) -> float:
        """The backend rejected our post as stale: free the buffer and ask
        the allocator where the instance lives now (never keep writing)."""
        cost = self._handle_tx_comp(message)
        self.tx_fenced += 1
        self._request_resync(message.instance_ip)
        return cost

    def _request_resync(self, ip: int) -> None:
        if ip in self._resync_inflight or self.control is None:
            return
        self._resync_inflight.add(ip)
        self.control.request_resync(ip, self.host.name)

    def sync_instance(self, ip: int, device_name: str, epoch: int) -> None:
        """Allocator push: adopt the authoritative (device, epoch) binding."""
        record = self._records.get(ip)
        self._resync_inflight.discard(ip)
        if record is None:
            return
        link = self._links.get(device_name)
        if link is not None and record.primary.name != device_name:
            record.primary = link
        record.epoch = epoch
        self.resyncs += 1
        self.kick()

    # -- control-plane telemetry (lease renewal) -----------------------------------

    def _send_telemetry(self) -> None:
        """Renew this host's instance leases with the allocator (§3.5)."""
        self.control.frontend_telemetry({
            "host": self.host.name,
            "ips": sorted(self._records),
            "time": self.sim.now,
        })

    def _handle_rx(self, link: BackendLink, message: NetMessage) -> float:
        """Copy an RX packet out of the shared buffer and hand it over IPC."""
        record = self._records.get(message.instance_ip)
        cost = self.RX_ITEM_NS
        # Read the packet through *this host's* cache, then invalidate the
        # buffer lines: a recycled buffer must never be read stale (§3.3.1).
        # (Shared RX areas are read through our own cache; a baseline-mode
        # local RX area is the colocated NIC host's DDR.)
        if link.rx_domain.is_shared:
            rx_cache = self.host.shared.cache
        else:
            rx_cache = link.rx_domain.cache
        data, load_ns = rx_cache.load(
            message.buffer_addr, message.size, category="payload"
        )
        cost += load_ns
        cost += rx_cache.clflush_range(
            message.buffer_addr, message.size, category="payload"
        )
        if record is None:
            self.rx_unknown_instance += 1
            return cost
        frame = Frame.unpack(data)
        flows = self._flows
        if flows is not None:
            # Pop, not peek: RX buffers are recycled, so a stale context must
            # never greet the next packet landing at the same address.
            flow = flows.pop(message.buffer_addr)
            if flow is not None:
                flow.stage("fe.rx")
                frame.meta["flow"] = flow
        self.rx_delivered += 1
        self.sim.call_after(
            self.config.datapath.ipc_hop_us * USEC,
            record.instance.deliver_frame,
            frame,
        )
        return cost

    # -- failover & migration (called by the pod-wide allocator client) ---------------

    def fail_over(self, failed_link_name: str,
                  replacement_link_name: Optional[str] = None,
                  epochs: Optional[Dict[int, int]] = None) -> int:
        """Reroute every instance on ``failed_link_name`` to the allocator's
        chosen replacement NIC (falling back to the instance's pre-registered
        backup when no replacement is named).

        TX buffers already in shared CXL memory need no copying (§3.3.3).
        The per-instance backup registration makes the switch instant, but
        the *authoritative* target comes from the allocator: an instance's
        stale backup choice may itself be the failed NIC (e.g. after a
        migration), which must never be selected.  ``epochs`` carries the
        fresh per-instance fencing epochs minted by the failover; an
        instance moved without one keeps its stale epoch and will be fenced
        into a resync on first post.  Returns the number of instances moved.
        """
        replacement = (self._links.get(replacement_link_name)
                       if replacement_link_name else None)
        epochs = epochs or {}
        moved = 0
        for ip, record in self._records.items():
            if record.primary.name != failed_link_name:
                continue
            target = replacement
            if target is None or target.name == failed_link_name:
                target = record.backup
            if target is None or target.name == failed_link_name:
                continue   # nowhere safe to go; allocator will retry
            record.primary = target
            if ip in epochs:
                record.epoch = epochs[ip]
            if record.backup is not None and \
                    record.backup.name in (failed_link_name, target.name):
                record.backup = None
            # MAC borrowing keeps the instance's MAC unchanged.
            moved += 1
        return moved

    def migrate_instance(self, ip: int, new_link: BackendLink,
                         epoch: Optional[int] = None) -> None:
        """Gracefully move an instance's traffic to ``new_link`` (§3.3.4)."""
        record = self._records[ip]
        old = record.primary
        record.extra_rx.add(old.name)
        record.primary = new_link
        record.current_mac = new_link.nic_mac
        if epoch is not None:
            record.epoch = epoch
        # The instance's stack broadcasts GARP announcing the new MAC.
        self.arp.announce(ip, new_link.nic_mac, garp=True)
        self.sim.schedule(self.config.failover.migration_grace_period_s,
                          self._finish_migration, ip, old.name)

    def _finish_migration(self, ip: int, old_link_name: str) -> None:
        record = self._records.get(ip)
        if record is not None:
            record.extra_rx.discard(old_link_name)
        handler = getattr(self, "on_unregister", None)
        if handler is not None:
            handler(ip, old_link_name)

    def record_of(self, ip: int) -> _InstanceRecord:
        return self._records[ip]
