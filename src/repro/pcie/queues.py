"""Descriptor rings: the WQE/CQE (NIC) and SQ/CQ (NVMe) abstractions.

The backend driver talks to devices exactly the way DPDK/SPDK do: it posts
descriptors that point at buffers in shared CXL memory and receives
completions.  The CPU never touches the buffer contents (§3.2.1) -- devices
DMA them directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

from ..errors import DeviceError

__all__ = ["TxDescriptor", "RxDescriptor", "NVMeCommand", "Completion", "DescriptorRing", "RxRing"]


@dataclass
class TxDescriptor:
    """A work-queue entry: transmit ``length`` bytes at pool address ``addr``."""

    addr: int
    length: int
    cookie: Any = None          # opaque driver context, echoed in the completion
    local: bool = False         # buffer lives in host-local DDR (baseline mode)
    retries: int = 0            # times the driver reposted after a DMA abort
    epoch: int = 0              # fencing epoch stamp carried from the message


@dataclass
class RxDescriptor:
    """An RX buffer a frame landed in (made by the NIC as it pops the buffer)."""

    addr: int
    capacity: int
    local: bool = False         # buffer lives in host-local DDR (baseline mode)


@dataclass
class NVMeCommand:
    """A 64 B NVMe command as seen by the SSD's submission queue."""

    opcode: int                 # 0x01 write, 0x02 read (NVMe NVM command set)
    slba: int                   # starting logical block address
    nlb: int                    # number of logical blocks
    addr: int                   # data buffer address in shared CXL memory
    cid: int = 0                # command identifier
    cookie: Any = None
    epoch: int = 0              # fencing epoch stamp carried from the message


@dataclass
class Completion:
    """A completion-queue entry handed back to the backend driver."""

    descriptor: Any
    status: int = 0             # 0 = success
    length: int = 0
    tag: Optional[int] = None   # NIC flow tag (None when unmatched)
    timestamp: float = 0.0


class DescriptorRing:
    """A bounded FIFO of descriptors, as exposed by the device's doorbell."""

    def __init__(self, depth: int, name: str = "ring"):
        if depth <= 0:
            raise DeviceError("ring depth must be positive")
        self.depth = depth
        self.name = name
        self._entries: Deque[Any] = deque()
        self.posted = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._entries

    def post(self, entry: Any) -> None:
        """Post a descriptor; raises :class:`DeviceError` when full."""
        if self.full:
            self.rejected += 1
            raise DeviceError(f"{self.name} full ({self.depth} entries)")
        self._entries.append(entry)
        self.posted += 1

    def pop(self) -> Any:
        if not self._entries:
            raise DeviceError(f"{self.name} empty")
        return self._entries.popleft()

    def drain(self) -> list:
        entries = list(self._entries)
        self._entries.clear()
        return entries


class RxRing:
    """The NIC's RX ring of posted buffer addresses, oldest first: a run of
    never-used buffers is one ``range`` entry, a recycled one an int; ``len``
    counts buffers.  ``capacity`` and ``local`` are set by the owning driver."""

    def __init__(self, depth: int, name: str = "rxq"):
        self.depth = depth
        self.name = name
        self.capacity = 0           # bytes per buffer
        self.local = False          # buffers in host-local DDR (baseline mode)
        self._entries: Deque[Any] = deque()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def post(self, buffers) -> None:
        n = len(buffers) if type(buffers) is range else 1
        if self._count + n > self.depth:
            raise DeviceError(f"{self.name} full ({self.depth} entries)")
        self._entries.append(buffers)
        self._count += n

    def pop(self) -> int:
        """The oldest posted buffer's address (IndexError when empty)."""
        head = self._entries.popleft()
        self._count -= 1
        if type(head) is not range:
            return head
        if len(head) > 1:
            self._entries.appendleft(head[1:])
        return head[0]
