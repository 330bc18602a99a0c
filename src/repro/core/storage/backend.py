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
from ...errors import DeviceError, DeviceFailedError
from ...host.host import Host
from ...pcie.queues import Completion, NVMeCommand
from ...pcie.ssd import NVME_STATUS_FAILED, SimSSD
from ...sim.core import MSEC, Simulator
from ..engine import Driver, Link
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
        self._inflight: Dict[int, str] = {}    # cid -> frontend name
        self._completions: deque = deque()
        self.submitted = 0
        self.errored = 0
        self.fence_rejects = 0    # stale-epoch requests answered STATUS_FENCED
        self.stale_accepted = 0   # stale requests let through (fencing disabled)
        self._last_read_bytes = 0
        self._last_write_bytes = 0
        ssd.on_completion = self._on_ssd_completion

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
            self._flows.mark(completion.descriptor.addr, "sbe.comp",
                             len(self._completions))
        self._completions.append(completion)
        self.kick()

    # -- driver loop -------------------------------------------------------------

    def _process(self) -> tuple:
        items, cost = self._drain_links()
        if self._completions:
            n, c = self._process_completions()
            items += n
            cost += c
        return items, cost

    def _queued(self) -> int:
        return len(self._completions)

    def _on_messages(self, link: Link, payloads: list, cost: float) -> float:
        unpack = StorageMessage.unpack
        for raw in payloads:
            cost += self._handle_request(link.name, unpack(raw))
        return cost

    def _handle_request(self, fe_name: str, message: StorageMessage) -> float:
        if message.opcode not in (SOP_READ, SOP_WRITE):
            return 20.0
        flows = self._flows
        if self._fenced(self.ssd.name, message):
            if flows is not None:
                flows.mark(message.buffer_addr, "sbe.fence", len(self.ssd.sq))
            self._send_completion(fe_name, message, STATUS_FENCED)
            return self.ITEM_NS
        if flows is not None:
            flows.mark(message.buffer_addr, "sbe.submit", len(self.ssd.sq))
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

    def _send_telemetry(self) -> None:
        interval = self.config.failover.telemetry_interval_ms * MSEC
        read_delta = self.ssd.read_bytes - self._last_read_bytes
        write_delta = self.ssd.write_bytes - self._last_write_bytes
        self._last_read_bytes = self.ssd.read_bytes
        self._last_write_bytes = self.ssd.write_bytes
        self.control.telemetry(self, {
            "device": self.ssd.name,
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
        link = self._links[fe_name]
        if self._flows is not None:
            self._flows.mark(request.buffer_addr, "chan.sbe2sfe",
                             link.tx.pending)
        self._send(link, [StorageMessage(
            SOP_COMPLETION, request.cid, request.slba, request.nlb,
            request.buffer_addr, request.instance_ip, status=status,
            epoch=request.epoch,
        ).pack()])
