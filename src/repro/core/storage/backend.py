"""Storage engine backend driver (§3.4).

Runs only on hosts with local SSDs.  Forwards 64 B I/O requests from
frontend drivers to the SSD's submission queue through the native driver
model (:mod:`repro.pcie.ssd`) and returns completions.  The backend never
inspects data buffers -- the SSD DMAs them directly from/to shared CXL
memory (§3.2.1).

Failure semantics: Oasis does not attempt transparent SSD failover (the
backup would need an identical copy of the namespace); a failed drive simply
completes everything with an error status that the frontend surfaces to the
guest as an I/O error.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ...config import OasisConfig
from ...errors import ChannelFullError, DeviceError, DeviceFailedError
from ...host.host import Host
from ...pcie.queues import Completion, NVMeCommand
from ...pcie.ssd import NVME_STATUS_FAILED, SimSSD
from ...sim.core import Simulator
from ..engine import Driver
from .messages import (SOP_COMPLETION, SOP_READ, SOP_WRITE, STATUS_FENCED,
                       StorageMessage)

__all__ = ["StorageBackend"]


class StorageBackend(Driver):
    """One backend driver per pooled SSD."""

    ITEM_NS = 150.0
    def __init__(
        self,
        sim: Simulator,
        host: Host,
        ssd: SimSSD,
        config: Optional[OasisConfig] = None,
    ):
        super().__init__(sim, f"sbe-{ssd.name}", config)
        self.host = host
        self.ssd = ssd
        self._links: Dict[str, tuple] = {}     # frontend host -> (tx, rx)
        self._inflight: Dict[int, str] = {}    # cid -> frontend name
        self._completions: deque = deque()
        self.submitted = 0
        self.errored = 0
        self.fence_rejects = 0    # stale-epoch requests answered STATUS_FENCED
        self.stale_accepted = 0   # stale requests let through (fencing disabled)
        self.control = None                    # allocator client (set by pod)
        self.epochs = None                     # EpochTable, set by pod
        self.fencing_enabled = True
        self._telemetry_task = None
        self._last_read_bytes = 0
        self._last_write_bytes = 0
        ssd.on_completion = self._on_ssd_completion

    def connect_frontend(self, name: str, tx, rx) -> None:
        self._links[name] = (tx, rx)
        rx.bind(self.work)

    @property
    def device_name(self) -> str:
        return self.ssd.name

    @property
    def queue_depth(self) -> int:
        """Outstanding I/O: submission-queue occupancy plus inflight cids."""
        return max(len(self.ssd.sq), len(self._inflight))

    # -- SSD callback ----------------------------------------------------------

    def _on_ssd_completion(self, completion: Completion) -> None:
        if self._flows is not None:
            flow = self._flows.peek(completion.descriptor.addr)
            if flow is not None:
                flow.stage("sbe.comp", depth=len(self._completions))
        self._completions.append(completion)
        self.kick()

    # -- driver loop -------------------------------------------------------------

    def _process(self) -> tuple:
        items = 0
        cost = 0.0
        now_eps = self.sim.now + 1e-12
        for name, (tx, rx) in self._links.items():
            if rx.counter_view._consumed_since_update == 0:
                qv = rx.queue_view
                if not qv or (rx.timed and qv[0] > now_eps):
                    continue   # drain() would be a no-op
            payloads, drain_cost = rx.drain()
            cost += drain_cost
            items += len(payloads)
            unpack = StorageMessage.unpack
            for raw in payloads:
                cost += self._handle_request(name, unpack(raw))
        if self._completions:
            n, c = self._process_completions()
            items += n
            cost += c
        return items, cost

    def _handle_request(self, fe_name: str, message: StorageMessage) -> float:
        if message.opcode not in (SOP_READ, SOP_WRITE):
            return 20.0
        if (self.epochs is not None
                and not self.epochs.check(self.ssd.name, message.instance_ip,
                                          message.epoch)):
            # Stale-epoch writer (§3.3.3): reject before touching the drive.
            if self.fencing_enabled:
                self.fence_rejects += 1
                if self._flows is not None:
                    flow = self._flows.peek(message.buffer_addr)
                    if flow is not None:
                        flow.stage("sbe.fence", depth=len(self.ssd.sq))
                self._send_completion(fe_name, message, STATUS_FENCED)
                return self.ITEM_NS
            self.stale_accepted += 1
        if self._flows is not None:
            flow = self._flows.peek(message.buffer_addr)
            if flow is not None:
                flow.stage("sbe.submit", depth=len(self.ssd.sq))
        self._inflight[message.cid] = fe_name
        command = NVMeCommand(
            opcode=message.opcode,  # SOP_READ/WRITE mirror NVMe opcodes
            slba=message.slba,
            nlb=message.nlb,
            addr=message.buffer_addr,
            cid=message.cid,
            cookie=message,
            epoch=message.epoch,
        )
        try:
            self.ssd.submit(command)
            self.submitted += 1
        except (DeviceError, DeviceFailedError):
            # SQ full or drive dead: error completion straight back (§3.4).
            self._inflight.pop(message.cid, None)
            self.errored += 1
            self._send_completion(fe_name, message, NVME_STATUS_FAILED)
        return self.ITEM_NS

    def _process_completions(self) -> tuple:
        items = 0
        cost = 0.0
        while self._completions:
            completion = self._completions.popleft()
            items += 1
            cost += self.ITEM_NS
            message: StorageMessage = completion.descriptor.cookie
            fe_name = self._inflight.pop(message.cid, None)
            if fe_name is None:
                continue
            if completion.status != 0:
                self.errored += 1
            self._send_completion(fe_name, message, completion.status)
        return items, cost

    # -- control plane: 100 ms telemetry to the allocator (§3.5) -----------------

    def start_monitors(self) -> None:
        from ...sim.core import MSEC

        interval = self.config.failover.telemetry_interval_ms * MSEC
        self._telemetry_task = self.sim.every(interval, self._send_telemetry)

    def stop_monitors(self) -> None:
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()

    def _send_telemetry(self) -> None:
        if self.control is None:
            return
        from ...sim.core import MSEC

        interval = self.config.failover.telemetry_interval_ms * MSEC
        read_delta = self.ssd.read_bytes - self._last_read_bytes
        write_delta = self.ssd.write_bytes - self._last_write_bytes
        self._last_read_bytes = self.ssd.read_bytes
        self._last_write_bytes = self.ssd.write_bytes
        self.control.telemetry(self, {
            "nic": self.ssd.name,       # telemetry store keys by device name
            "host": self.host.name,
            "link_up": not self.ssd.failed,
            "tx_bw": write_delta / interval,
            "rx_bw": read_delta / interval,
            "instances": len(self._links),
            "aer": self.ssd.aer.total(),
            "queue_depth": self.queue_depth,
            "time": self.sim.now,
        })

    def _send_completion(self, fe_name: str, request: StorageMessage,
                         status: int) -> None:
        tx, _ = self._links[fe_name]
        if self._flows is not None:
            flow = self._flows.peek(request.buffer_addr)
            if flow is not None:
                flow.stage("chan.sbe2sfe",
                           depth=getattr(tx, "pending", None))
        completion = StorageMessage(
            SOP_COMPLETION, request.cid, request.slba, request.nlb,
            request.buffer_addr, request.instance_ip, status=status,
            epoch=request.epoch,
        )
        try:
            tx.send(completion.pack())
        except ChannelFullError:
            self.sim.schedule(10e-6, self._send_completion, fe_name, request,
                              status)
