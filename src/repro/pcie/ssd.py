"""Simulated datacenter NVMe SSD (§3.4's storage substrate).

The backend driver posts 64 B NVMe commands to the submission queue; the SSD
DMA-reads (writes) data buffers in shared CXL memory directly -- the backend
CPU never touches them -- and posts completions.  The drive stores non-zero
blocks; absent blocks read as zeros.  A written all-zero block deallocates its
LBA (NVMe deallocate with read-zeros), so a 4 TB namespace costs memory only
for blocks that hold data, and no read can tell that from storing the zeros.

Timing: fixed media latency per op (read 90 us / write 25 us by default,
Table 1) plus serialisation of the transfer at the drive's bandwidth, with
commands overlapping up to the configured queue depth.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..config import SSDConfig
from ..errors import DeviceError
from ..obs.flow import FlowBinding
from ..obs.trace import TracerBinding
from ..sim.core import Simulator, USEC
from .device import PCIeDevice
from .queues import Completion, DescriptorRing, NVMeCommand

__all__ = ["SimSSD", "NVME_OP_WRITE", "NVME_OP_READ", "NVME_STATUS_OK",
           "NVME_STATUS_FAILED", "NVME_STATUS_MEDIA"]

NVME_OP_WRITE = 0x01
NVME_OP_READ = 0x02
NVME_STATUS_OK = 0
NVME_STATUS_MEDIA = 0x02   # unrecovered media error (transient: retriable)
NVME_STATUS_FAILED = 0x06  # internal device error
NVME_STATUS_LBA_RANGE = 0x80


class SimSSD(PCIeDevice, TracerBinding, FlowBinding):
    """A host-attached NVMe SSD pooled by the Oasis storage engine."""

    def __init__(
        self,
        sim: Simulator,
        host,
        config: Optional[SSDConfig] = None,
        name: str = "ssd",
    ):
        super().__init__(sim, host, name)
        self.config = config or SSDConfig()
        self.sq = DescriptorRing(self.config.queue_depth, f"{name}-sq")
        self._blocks: Dict[int, bytes] = {}   # no stored block is all zero
        self._zero = bytes(self.config.block_size)
        self._media_busy_until = 0.0
        self.on_completion: Optional[Callable[[Completion], None]] = None
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.completions = 0
        self.media_errors = 0
        self._media_error_next = 0   # armed by fault injection
        self._pending = 0

    @property
    def num_blocks(self) -> int:
        return self.config.capacity_bytes // self.config.block_size

    def footprint(self) -> Tuple[int, int]:
        """``(blocks stored, bytes resident)``; only non-zero blocks are
        stored, so the second is ``block_size`` times the first."""
        return (len(self._blocks),
                sum(len(block) for block in self._blocks.values()))

    def inject_media_error(self, count: int = 1) -> None:
        """Arm a media fault: the next ``count`` commands fail with
        :data:`NVME_STATUS_MEDIA` after paying the normal media latency."""
        if count <= 0:
            raise DeviceError("media error count must be positive")
        self._media_error_next += count

    # -- submission ------------------------------------------------------------

    def submit(self, cmd: NVMeCommand) -> None:
        """Ring the SQ doorbell: an MMIO write, not a latency, so an idle
        drive starts the command before ``submit`` returns.  A completion is
        never delivered on the submitter's stack (DESIGN §3e): a command that
        completes at once (bad LBA range), and any behind it, take a hop."""
        self._check_alive()
        if cmd.opcode not in (NVME_OP_READ, NVME_OP_WRITE):
            raise DeviceError(f"unknown NVMe opcode {cmd.opcode:#x}")
        self.sq.post(cmd)
        self._pending += 1
        if len(self.sq) == 1 and self._in_range(cmd):
            self._start(self.sq.pop())
        else:
            self.sim.call_after(0.0, self._process_one)

    def _in_range(self, cmd: NVMeCommand) -> bool:
        return 0 < cmd.nlb and 0 <= cmd.slba <= self.num_blocks - cmd.nlb

    def _process_one(self) -> None:
        if self.sq.empty:
            return
        cmd: NVMeCommand = self.sq.pop()
        if self.failed:
            self._complete(cmd, NVME_STATUS_FAILED, 0.0)
        elif not self._in_range(cmd):
            self._complete(cmd, NVME_STATUS_LBA_RANGE, 0.0)
        else:
            self._start(cmd)

    def _start(self, cmd: NVMeCommand) -> None:
        """A valid command on a live drive: book the media, post its latency."""
        if self._flows is not None:
            self._flows.mark(cmd.addr, "ssd.media", len(self.sq))
        config = self.config
        nbytes = cmd.nlb * config.block_size
        if cmd.opcode == NVME_OP_WRITE:
            media_us = config.write_latency_us
        else:
            media_us = config.read_latency_us
        transfer_s = nbytes / config.bytes_per_sec
        # Transfers serialise on the drive's internal bandwidth; media latency
        # overlaps across queued commands.
        now = self.sim.now
        busy = self._media_busy_until
        start = busy if busy > now else now
        self._media_busy_until = start + transfer_s
        done = start + transfer_s + media_us * USEC
        if self._trace is not None:
            self._trace.span(
                "ssd.write" if cmd.opcode == NVME_OP_WRITE else "ssd.read",
                start, done - start, category="dma", track=self.name,
                bytes=nbytes, slba=cmd.slba)
        media_fault = False
        if self._media_error_next > 0:
            self._media_error_next -= 1
            media_fault = True
        self.sim.call_after(done - now, self._execute, cmd, nbytes, media_fault)

    def _execute(self, cmd: NVMeCommand, nbytes: int,
                 media_fault: bool = False) -> None:
        if self.failed:
            self._complete(cmd, NVME_STATUS_FAILED, 0.0)
            return
        if media_fault:
            # The command paid its media latency but the read/program failed;
            # no data moved (a correctable, retriable AER event).
            self.media_errors += 1
            self.aer.non_fatal += 1
            if self._trace is not None:
                self._trace.instant("ssd.media_error", category="fault",
                                    track=self.name, slba=cmd.slba)
            self._complete(cmd, NVME_STATUS_MEDIA, 0.0)
            return
        bs = self.config.block_size
        blocks = self._blocks
        zero = self._zero
        if cmd.opcode == NVME_OP_WRITE:
            data = self.host.dma_read(cmd.addr, nbytes, category="payload")
            for i in range(cmd.nlb):
                block = data[i * bs:(i + 1) * bs]
                if block == zero:
                    blocks.pop(cmd.slba + i, None)
                else:
                    blocks[cmd.slba + i] = block
            self.writes += 1
            self.write_bytes += nbytes
        else:
            chunks = [blocks.get(cmd.slba + i, zero) for i in range(cmd.nlb)]
            self.host.dma_write(cmd.addr, b"".join(chunks), category="payload")
            self.reads += 1
            self.read_bytes += nbytes
        self._complete(cmd, NVME_STATUS_OK, nbytes)

    def _complete(self, cmd: NVMeCommand, status: int, nbytes: float) -> None:
        self._pending -= 1
        self.completions += 1
        if self.on_completion is not None:
            self.on_completion(
                Completion(descriptor=cmd, status=status, length=int(nbytes),
                           timestamp=self.sim.now)
            )

    def fail(self, reason: str = "injected") -> None:
        """Failing the drive errors out everything still queued (§3.4)."""
        super().fail(reason)
        for cmd in self.sq.drain():
            self._complete(cmd, NVME_STATUS_FAILED, 0.0)
