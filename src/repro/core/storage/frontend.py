"""Storage engine frontend driver (§3.4).

Provides local instances with a block-device interface
(:class:`VirtualBlockDevice`) and forwards I/O requests/completions to the
backend driver of the SSD each instance is allocated to, over 64 B message
channels.  Buffer handling mirrors the network engine: data buffers live in
shared CXL memory, are written back (CLWB) before the request is signalled,
and read buffers are invalidated after the copy-out so recycled buffers are
never read stale.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ...config import OasisConfig
from ...errors import AllocationError
from ...host.host import Host, MemDomain
from ...mem.layout import Region, RegionAllocator
from ...overload.stage import StageView
from ...pcie.ssd import NVME_STATUS_FAILED, NVME_STATUS_MEDIA
from ...sim.core import MSEC, NSEC, USEC, Simulator, Timer
from ..engine import Driver, Link
from .messages import (SOP_COMPLETION, SOP_READ, SOP_WRITE, STATUS_FENCED,
                       StorageMessage)

__all__ = ["StorageFrontend", "VirtualBlockDevice", "STATUS_TIMEOUT",
           "STATUS_SHED"]

#: Synthetic status for a request the frontend gave up on after its
#: per-attempt deadline expired repeatedly (no NVMe completion ever came).
STATUS_TIMEOUT = 0xFE

#: Synthetic status for a request shed by overload control (admission queue
#: full, CoDel sojourn drop, open circuit breaker, or brownout).  The
#: request never reached the device; the instance hears back immediately.
STATUS_SHED = 0xFC

#: Statuses worth retrying: the device is still there, the command failed.
_TRANSIENT_STATUSES = frozenset({NVME_STATUS_MEDIA, NVME_STATUS_FAILED})

#: Field limits of the 64 B storage message: a 64-bit starting LBA and a
#: 32-bit block count.
_LBA_LIMIT = 1 << 64
_NLB_LIMIT = 1 << 32


def _check_extent(lba: int, nblocks: int) -> None:
    """Refuse an extent the storage message cannot carry, before anything
    is booked.  An LBA past the namespace is the drive's to answer
    (``NVME_STATUS_LBA_RANGE``), not the frontend's."""
    if not 0 <= lba < _LBA_LIMIT:
        raise AllocationError(f"lba {lba} outside the 64-bit LBA field")
    if not 0 < nblocks < _NLB_LIMIT:
        raise AllocationError(f"block count {nblocks} outside 1..2**32-1")


class VirtualBlockDevice:
    """Instance-facing block device backed by a pooled SSD."""

    def __init__(self, frontend: "StorageFrontend", instance, backend_name: str,
                 block_size: int):
        self.frontend = frontend
        self.instance = instance
        self.backend_name = backend_name
        self.block_size = block_size

    def read(self, lba: int, nblocks: int,
             callback: Callable[[int, bytes], None], flow=None,
             background: bool = False, tenant: Optional[str] = None) -> int:
        """Async read; ``callback(status, data)`` fires on completion.

        ``background=True`` marks shed-first work (read-ahead, scrubbing):
        under brownout the frontend drops it before any foreground request.
        ``tenant`` tags the request for per-tenant weighted-fair scheduling
        once the pod registers tenants (``enable_multi_tenant()``); until
        then tagged and untagged requests share one queue.
        """
        return self.frontend.submit_read(self, lba, nblocks, callback,
                                         flow=flow, background=background,
                                         tenant=tenant)

    def write(self, lba: int, data: bytes,
              callback: Callable[[int], None], flow=None,
              background: bool = False, tenant: Optional[str] = None) -> int:
        """Async write; ``callback(status)`` fires on completion."""
        return self.frontend.submit_write(self, lba, data, callback,
                                          flow=flow, background=background,
                                          tenant=tenant)


class StorageFrontend(Driver):
    """One storage frontend per host, on its own busy-polling core."""

    ITEM_NS = 180.0
    # Overload-control counters are read-only views of the admission stage
    # (0 while unarmed): requests shed before reaching the device, by
    # reason, retries the budget refused, breaker and brownout state.
    # Conservation: submitted == completed_ok + completed_error + shed
    # + in flight (give-ups are a subset of the error completions).
    shed = StageView("shed")
    shed_queue_full = StageView("shed_queue_full")
    shed_sojourn = StageView("shed_sojourn")
    shed_breaker = StageView("shed_breaker")
    shed_brownout = StageView("shed_brownout")
    retry_budget_denied = StageView("retry_budget_denied")
    breaker_trips = StageView("breaker_trips")
    breakers_open = StageView("breakers_open")
    brownout_level = StageView("brownout_level")

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        buffer_domain: MemDomain,
        buffer_region: Region,
        config: Optional[OasisConfig] = None,
    ):
        super().__init__(sim, f"sfe-{host.name}", config)
        self.host = host
        self.domain = buffer_domain
        self._space = RegionAllocator(buffer_region)
        self._pending: Dict[int, dict] = {}        # cid -> request state
        self._next_cid = 1
        self.submitted = 0
        self.completed_ok = 0
        self.completed_error = 0
        self._pumping = False
        # Fault tolerance (§ graceful degradation): transient device errors
        # and lost completions are retried with exponential backoff before
        # the error is surfaced to the instance.
        self.retries = 0
        self.timeouts = 0
        self.giveups = 0
        # Per-attempt deadlines (deadline, cid, serial, attempt): no state,
        # which a completion frees at once.  The timeout is one constant, so
        # arming order is deadline order and one timer serves them all.
        self._deadlines: Deque[Tuple[float, int, int, int]] = deque()
        self._deadline_timer = Timer(sim, self._on_deadline)
        # Fencing (§3.3.3): per-(backend, instance) epoch stamps put on the
        # wire, refreshed through the allocator after a FENCED rejection.
        self._stamps: Dict[Tuple[str, int], int] = {}
        self._resync_inflight: set = set()
        self.fenced = 0
        self.resyncs = 0

    def make_device(self, instance, backend_name: str, block_size: int
                    ) -> VirtualBlockDevice:
        if backend_name not in self._links:
            raise AllocationError(f"no storage backend link {backend_name}")
        return VirtualBlockDevice(self, instance, backend_name, block_size)

    # -- the armed path: admission stage (see repro.overload.stage) ---------

    def arm(self, stage) -> None:
        """Attach the admission stage, adopting requests already in flight
        (submitted unarmed) so the per-tenant books balance from here on."""
        super().arm(stage)
        for state in self._pending.values():
            stage.count(state["tenant"], "submitted")

    def tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant accounting (empty until tenants are registered)."""
        return {} if self._stage is None else self._stage.tenant_stats()

    def _admit(self, cid: int, message: StorageMessage) -> None:
        """Armed entry: the request arrives at the admission stage."""
        state = self._pending.get(cid)
        if state is None:
            return
        stage = self._stage
        if stage.brownout_level and state["background"]:
            self._shed(cid, state, "brownout")
        elif not stage.queue.push(self.sim.now, (cid, message),
                                  state["tenant"]):
            self._shed(cid, state, "queue_full")
        else:
            self._pump()

    def _pump(self) -> None:
        """Launch admitted requests while the device window has room."""
        if self._pumping:
            return
        self._pumping = True
        stage = self._stage
        try:
            while stage.launched < stage.cfg.launch_window:
                item, dropped = stage.queue.pop(self.sim.now)
                for drop_cid, _msg in dropped:
                    drop_state = self._pending.get(drop_cid)
                    if drop_state is not None:
                        self._shed(drop_cid, drop_state, "sojourn")
                if item is None:
                    return
                cid, message = item
                state = self._pending.get(cid)
                if state is None:
                    continue
                if not stage.breaker(state["backend"]).allow(self.sim.now):
                    self._shed(cid, state, "breaker")
                    continue
                state["launched"] = True
                stage.launched += 1
                self._enqueue(state["backend"], message)
                self._arm_timeout(cid, state)
        finally:
            self._pumping = False

    def _shed(self, cid: int, state: dict, reason: str) -> None:
        """Refuse a request before the device sees it (load shedding)."""
        self._stage.count(state["tenant"], "shed_" + reason)
        self._retire(cid, state, STATUS_SHED, b"")

    # -- fencing epochs (§3.3.3) --------------------------------------------------

    def sync_instance(self, ip: int, device_name: str, epoch: int) -> None:
        """Allocator push: adopt a fresh fencing epoch for (device, instance)."""
        self._stamps[(device_name, ip)] = epoch
        if (device_name, ip) in self._resync_inflight:
            self._resync_inflight.discard((device_name, ip))
            self.resyncs += 1

    def _stamp_for(self, backend_name: str, ip: int) -> int:
        return self._stamps.get((backend_name, ip), 0) & 0xFF

    def _request_resync(self, backend_name: str, ip: int) -> None:
        if (backend_name, ip) in self._resync_inflight or self.control is None:
            return
        self._resync_inflight.add((backend_name, ip))
        self.control.request_resync(ip, self.host.name, "ssd")

    # -- submission (instance context) ------------------------------------------

    def submit_write(self, device: VirtualBlockDevice, lba: int, data: bytes,
                     callback: Callable[[int], None], flow=None,
                     background: bool = False,
                     tenant: Optional[str] = None) -> int:
        if len(data) % device.block_size:
            raise AllocationError("write size must be a multiple of block size")
        _check_extent(lba, len(data) // device.block_size)
        region = self._space.alloc(len(data), "wbuf")
        store_ns = self.domain.cache.store(region.base, data, category="payload")
        store_ns += self.domain.cache.clwb_range(region.base, len(data),
                                                 category="payload")
        return self._submit(SOP_WRITE, device, lba, len(data), region,
                            store_ns, callback, flow, background, tenant)

    def submit_read(self, device: VirtualBlockDevice, lba: int, nblocks: int,
                    callback: Callable[[int, bytes], None], flow=None,
                    background: bool = False,
                    tenant: Optional[str] = None) -> int:
        _check_extent(lba, nblocks)
        nbytes = nblocks * device.block_size
        region = self._space.alloc(nbytes, "rbuf")
        # The region may have been a recycled write buffer whose (clean)
        # lines are still in our cache; the SSD's DMA write on the remote
        # host will not snoop them (§3.2.1).  Invalidate before posting so
        # the completion copy reads the device's bytes, not stale ones.
        self.domain.cache.clflush_range(region.base, nbytes,
                                        category="payload")
        return self._submit(SOP_READ, device, lba, nbytes, region, 0.0,
                            callback, flow, background, tenant)

    def _submit(self, op: int, device: VirtualBlockDevice, lba: int,
                nbytes: int, region: Region, store_ns: float, callback,
                flow, background: bool, tenant: Optional[str]) -> int:
        """Book a prepared request and send it towards the device."""
        if flow is not None:
            flow.stage("sfe.submit", depth=len(self._pending))
            self.flows.stash(region.base, flow)
        cid = self._next_cid
        self._next_cid = (self._next_cid % 0xFFFF) + 1
        while self._next_cid in self._pending:
            self._next_cid = (self._next_cid % 0xFFFF) + 1
        nlb = nbytes // device.block_size
        backend = device.backend_name
        ip = device.instance.ip if device.instance else 0
        self.submitted += 1
        state = self._pending[cid] = {
            "op": op, "region": region, "callback": callback,
            "nbytes": nbytes, "backend": backend,
            "lba": lba, "nlb": nlb, "ip": ip, "retries": 0, "attempt": 0,
            "serial": self.submitted,
            "background": background, "tenant": tenant,
        }
        message = StorageMessage(op, cid, lba, nlb, region.base, ip,
                                 epoch=self._stamp_for(backend, ip))
        delay = self.config.datapath.ipc_hop_us * USEC + store_ns * NSEC
        stage = self._stage
        if stage is None:
            self.sim.schedule(delay, self._enqueue, backend, message)
            self._arm_timeout(cid, state)
        else:
            # Fresh traffic funds the retry budget; launch goes through the
            # admission stage (the timeout is armed at launch, not here).
            stage.count(tenant, "submitted")
            stage.budget.deposit()
            self.sim.schedule(delay, self._admit, cid, message)
        return cid

    def _enqueue(self, backend_name: str, message: StorageMessage) -> None:
        link = self._links[backend_name]
        if self._flows is not None:
            self._flows.mark(message.buffer_addr, "chan.sfe2sbe",
                             link.tx.pending)
        self._send(link, [message.pack()])

    # -- driver loop: completions (the links are the only work source) ------------

    def _on_messages(self, link: Link, payloads: list, cost: float) -> float:
        unpack = StorageMessage.unpack
        for raw in payloads:
            message = unpack(raw)
            if message.opcode == SOP_COMPLETION:
                cost += self._handle_completion(message)
        return cost

    # -- fault tolerance: per-attempt deadlines and retries ------------------------

    def _arm_timeout(self, cid: int, state: dict) -> None:
        """Start (or restart) the per-attempt deadline for ``cid``."""
        state["attempt"] += 1
        deadline = self.sim.now + self.config.retry.storage_timeout_ms * MSEC
        self._deadlines.append((deadline, cid, state["serial"],
                                state["attempt"]))
        if len(self._deadlines) == 1:
            self._deadline_timer.set_at(deadline)

    def _on_deadline(self) -> None:
        """Time out every live attempt that has expired, in arming order, and
        re-arm for the first that has not.  A completion does not touch the
        queue; its entry goes stale (this request -- not whatever reuses its
        cid -- is retired, or on a later attempt) and is skipped here."""
        deadlines = self._deadlines
        now = self.sim.now
        while deadlines:
            deadline, cid, serial, attempt = deadlines[0]
            state = self._pending.get(cid)
            live = (state is not None and state["serial"] == serial
                    and state["attempt"] == attempt)
            if live and deadline > now:
                self._deadline_timer.set_at(deadline)
                return
            deadlines.popleft()
            if live:
                self.timeouts += 1
                if self._stage is not None:
                    self._stage.breaker(state["backend"]).record_failure(now)
                self._retry_or_give_up(cid, state, STATUS_TIMEOUT,
                                       budgeted=True)

    def _retry_or_give_up(self, cid: int, state: dict, status: int,
                          budgeted: bool) -> None:
        """Schedule another attempt, or finish the request with ``status``.

        A retry needs attempts left and -- on the armed path, for
        ``budgeted`` failures -- a retry-budget token: with the budget
        exhausted the request fails fast instead of feeding the storm.
        """
        stage = self._stage
        if state["retries"] < self.config.retry.storage_max_retries:
            if stage is None or not budgeted or stage.budget.try_spend():
                self._schedule_retry(cid, state)
                return
            stage.count(state["tenant"], "retry_budget_denied")
        self.giveups += 1
        if stage is not None:
            stage.count(state["tenant"], "gave_up")
        self._finish(cid, state, status, b"")

    def _schedule_retry(self, cid: int, state: dict) -> None:
        state["retries"] += 1
        self.retries += 1
        if self._flows is not None:
            self._flows.mark(state["region"].base, "sfe.retry",
                             state["retries"])
        backoff = (self.config.retry.storage_backoff_ms
                   * self.config.retry.storage_backoff_mult
                   ** (state["retries"] - 1))
        stage = self._stage
        if stage is not None:
            stage.count(state["tenant"], "retries")
        self.sim.schedule(backoff * MSEC, self._resubmit, cid)

    def _resubmit(self, cid: int) -> None:
        state = self._pending.get(cid)
        if state is None:
            return   # a late completion beat the retry: nothing to redo
        region: Region = state["region"]
        if state["op"] == SOP_READ:
            # The failed attempt may have left (zero/partial) lines cached;
            # invalidate so the repeated DMA write is read fresh.
            self.domain.cache.clflush_range(region.base, state["nbytes"],
                                            category="payload")
        # Re-read the stamp: a resync between attempts supplies the fresh epoch.
        message = StorageMessage(state["op"], cid, state["lba"], state["nlb"],
                                 region.base, state["ip"],
                                 epoch=self._stamp_for(state["backend"],
                                                       state["ip"]))
        self._enqueue(state["backend"], message)
        self._arm_timeout(cid, state)

    def _handle_completion(self, message: StorageMessage) -> float:
        state = self._pending.get(message.cid)
        if state is None:
            return 20.0   # duplicate or post-timeout completion: ignore
        status = message.status
        if status == STATUS_FENCED:
            # Stale fencing epoch: refresh the lease through the allocator,
            # then retry -- the resubmission picks up the new stamp.
            self.fenced += 1
            self._request_resync(state["backend"], state["ip"])
            self._retry_or_give_up(message.cid, state, status, budgeted=False)
            return self.ITEM_NS
        transient = status in _TRANSIENT_STATUSES
        stage = self._stage
        if stage is not None:
            breaker = stage.breaker(state["backend"])
            if status == 0:
                breaker.record_success(self.sim.now)
            elif transient:
                breaker.record_failure(self.sim.now)
        if transient:
            self._retry_or_give_up(message.cid, state, status, budgeted=True)
            return self.ITEM_NS
        cost = self.ITEM_NS
        region: Region = state["region"]
        if state["op"] == SOP_READ and status == 0:
            # Copy the data out of shared memory, then invalidate the lines.
            data, load_ns = self.domain.cache.load(region.base, state["nbytes"],
                                                   category="payload")
            cost += load_ns
            cost += self.domain.cache.clflush_range(region.base, state["nbytes"],
                                                    category="payload")
        else:
            data = b""
        self._finish(message.cid, state, status, data)
        return cost

    def _finish(self, cid: int, state: dict, status: int, data: bytes) -> None:
        """Retire a served request and count it completed (ok or error)."""
        if status == 0:
            self.completed_ok += 1
        else:
            self.completed_error += 1
        stage = self._stage
        if stage is not None:
            stage.count(state["tenant"],
                        "completed_ok" if status == 0 else "completed_error")
        self._retire(cid, state, status, data)

    def _retire(self, cid: int, state: dict, status: int, data: bytes) -> None:
        """Release a request's buffer and call the instance back."""
        self._pending.pop(cid, None)
        region: Region = state["region"]
        if self._flows is not None:
            # Pop: the buffer region is freed below and will be recycled.
            flow = self._flows.pop(region.base)
            if flow is not None:
                flow.stage("sfe.comp")
        self._space.free(region)
        callback = state["callback"]
        ipc = self.config.datapath.ipc_hop_us * USEC
        if state["op"] == SOP_READ:
            self.sim.schedule(ipc, callback, status, data)
        else:
            self.sim.schedule(ipc, callback, status)
        stage = self._stage
        if stage is not None:
            if state.pop("launched", False):
                stage.launched -= 1
            if len(stage.queue):
                self._pump()    # a freed window slot launches the next request

    @property
    def inflight(self) -> int:
        return len(self._pending)
