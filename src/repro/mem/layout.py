"""Shared-memory region management.

The Oasis datapath carves the pool into regions (§3.2/§3.3): per-host channel
regions, a 4 GB TX region per frontend (subdivided into 64 MB per-instance TX
buffer areas), and a 4 GB RX buffer area per NIC.  Two allocators cover those
needs:

* :class:`RegionAllocator` -- first-fit free-list allocator with coalescing,
  used to hand out large regions and variable-size TX buffers;
* :class:`FixedPool` -- O(1) fixed-size buffers (a bump index plus a stack
  of recycled ones), used for RX buffers that the backend driver posts to
  the NIC and recycles.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import CACHE_LINE
from ..errors import MemoryFault

__all__ = ["Region", "RegionAllocator", "FixedPool", "align_up"]


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class Region:
    """A [base, base+size) window of the shared pool."""

    base: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def offset_of(self, addr: int) -> int:
        if not self.contains(addr):
            raise MemoryFault(f"address {addr:#x} outside region {self.label!r}")
        return addr - self.base

    def subregion(self, offset: int, size: int, label: str = "") -> "Region":
        if offset < 0 or offset + size > self.size:
            raise MemoryFault(
                f"subregion [{offset}, {offset + size}) outside region of {self.size} B"
            )
        return Region(self.base + offset, size, label or self.label)


class RegionAllocator:
    """First-fit allocator with free-block coalescing, cache-line aligned."""

    def __init__(self, region: Region, alignment: int = CACHE_LINE):
        if alignment & (alignment - 1):
            raise MemoryFault("alignment must be a power of two")
        self.region = region
        self.alignment = alignment
        # Sorted list of free (base, size) blocks.
        base = align_up(region.base, alignment)
        self._free: List[Tuple[int, int]] = [(base, region.end - base)]
        self._allocated: Dict[int, int] = {}

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    def alloc(self, size: int, label: str = "") -> Region:
        """Allocate ``size`` bytes; raises :class:`MemoryFault` when full."""
        if size <= 0:
            raise MemoryFault("allocation size must be positive")
        want = align_up(size, self.alignment)
        for i, (base, block) in enumerate(self._free):
            if block >= want:
                if block == want:
                    self._free.pop(i)
                else:
                    self._free[i] = (base + want, block - want)
                self._allocated[base] = want
                return Region(base, size, label)
        raise MemoryFault(
            f"out of shared memory: want {want} B, {self.free_bytes} B free "
            f"(fragmented into {len(self._free)} blocks)"
        )

    def free(self, region: Region) -> None:
        """Return a region; adjacent free blocks are coalesced."""
        want = self._allocated.pop(region.base, None)
        if want is None:
            raise MemoryFault(f"double free or foreign region at {region.base:#x}")
        i = bisect.bisect_left(self._free, (region.base, 0))
        self._free.insert(i, (region.base, want))
        self._coalesce(i)

    def _coalesce(self, i: int) -> None:
        # Merge with the following block.
        if i + 1 < len(self._free):
            base, size = self._free[i]
            nbase, nsize = self._free[i + 1]
            if base + size == nbase:
                self._free[i] = (base, size + nsize)
                self._free.pop(i + 1)
        # Merge with the preceding block.
        if i > 0:
            pbase, psize = self._free[i - 1]
            base, size = self._free[i]
            if pbase + psize == base:
                self._free[i - 1] = (pbase, psize + size)
                self._free.pop(i)


class FixedPool:
    """Fixed-size buffer pool (RX buffers): O(1) alloc/free, full recycling.
    Never-used buffers come from a bump index (singly or as one ``range``
    run) and only recycled ones are listed, so an area costs what came back."""

    def __init__(self, region: Region, buffer_size: int):
        if buffer_size <= 0 or buffer_size % CACHE_LINE:
            raise MemoryFault("buffer_size must be a positive multiple of 64")
        self.region = region
        self.buffer_size = buffer_size
        self._base = align_up(region.base, CACHE_LINE)
        count = (region.end - self._base) // buffer_size
        if count <= 0:
            raise MemoryFault("region too small for even one buffer")
        self._fresh = 0                 # buffers below this index were used
        self._free: Dict[int, None] = {}   # recycled buffers, reused LIFO
        self.capacity = count

    @property
    def available(self) -> int:
        return len(self._free) + self.capacity - self._fresh

    @property
    def outstanding(self) -> int:
        return self._fresh - len(self._free)

    @property
    def touched(self) -> int:
        """Distinct buffers ever handed out (the bump index)."""
        return self._fresh

    def alloc(self) -> Optional[int]:
        """A recycled buffer, else the next fresh one, or None when exhausted."""
        buffers = self.alloc_run(1)
        return buffers[0] if type(buffers) is range else buffers

    def alloc_run(self, limit: int) -> int | range | None:
        """Up to ``limit`` buffers in :meth:`alloc`'s order, in O(1): the last
        recycled one (an int), else a ``range`` of never-used ones, else None."""
        if self._free and limit > 0:
            return self._free.popitem()[0]
        n = min(limit, self.capacity - self._fresh)
        if n <= 0:
            return None
        start = self._base + self._fresh * self.buffer_size
        self._fresh += n
        return range(start, start + n * self.buffer_size, self.buffer_size)

    def free(self, addr: int) -> None:
        index, misaligned = divmod(addr - self._base, self.buffer_size)
        if misaligned or not 0 <= index < self._fresh or addr in self._free:
            raise MemoryFault(f"recycling unknown or double-freed buffer {addr:#x}")
        self._free[addr] = None
