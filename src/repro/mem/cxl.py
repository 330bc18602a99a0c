"""Shared CXL memory pool model.

The pool is a flat, byte-addressable store shared by every host in the pod
(§2.3).  Hosts never touch it directly: CPU accesses go through a
:class:`~repro.mem.cache.HostCache` (which may serve stale data -- the pool is
*not* cache-coherent across hosts), while PCIe devices DMA straight to the
pool through :meth:`CXLMemoryPool.dma_read` / :meth:`dma_write`.

Storage is sparse twice over (DESIGN §3h).  Only touched 4 KiB pages exist,
and a page keeps a 64-bit mask of the lines written and *only those lines*,
packed in line order: line ``b`` sits at ``(present & BELOW[b])
.bit_count() << 6`` of its ``data``.  So a 256 GB pool costs 64 B per line
written -- a 2 KiB packet buffer holding a 256 B frame costs 256 B, until
:meth:`CXLMemoryPool.discard` makes its lines unwritten again -- and a run
of written lines still moves as one slice copy.  Every transfer is accounted
per host link and per *category* ("payload", "message", "counter", ...),
which is what regenerates Table 3's bandwidth breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..config import CACHE_LINE, CXLConfig
from ..errors import MemoryFault

__all__ = ["CXLMemoryPool", "LinkStats", "line_index", "lines_spanned"]

# One page is 64 lines, so per-page line state fits one 64-bit mask word.  The
# loops here and in cache.py spell that geometry as literals: a byte offset
# ``>> 6`` is a line number, ``>> 12`` a page number, ``& 4095`` page-relative.
PAGE_SIZE = 4096
assert CACHE_LINE == 64


# Masks are looked up, not shifted into being: a 64-bit shift allocates a fresh
# multi-digit int on every access.  SPAN[lo][hi] selects lines lo..hi of a
# page, BIT[lo] line lo alone, BELOW[n] lines 0..n-1 (so the rank of line n in
# a packed pool page is ``(present & BELOW[n]).bit_count()``).
SPAN = tuple(tuple((2 << hi) - (1 << lo) if hi >= lo else 0 for hi in range(64))
             for lo in range(64))
BIT = tuple(1 << lo for lo in range(64))
BELOW = tuple((1 << n) - 1 for n in range(65))


def mask_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def copy_lines(dst: bytearray, src, mask: int, present: int) -> None:
    """Copy the 64 B lines selected by ``mask`` of a pool page into the dense
    page ``dst``: one slice per contiguous run.  ``src`` holds the page's
    ``present`` lines packed in line order; a line of ``mask`` that is not
    present is copied as zeros.  (Callers that know ``mask`` is the single
    present run ``SPAN[lo][hi]`` copy that slice themselves.)"""
    absent = mask & ~present
    while absent:
        top = absent.bit_length()                       # the run is [low, top)
        low = (absent ^ BELOW[top]).bit_length()
        dst[low << 6:top << 6] = bytes((top - low) << 6)
        absent &= BELOW[low]
    mask &= present
    while mask:
        top = mask.bit_length()
        low = (mask ^ BELOW[top]).bit_length()
        rank = (present & BELOW[low]).bit_count() << 6
        dst[low << 6:top << 6] = src[rank:rank + ((top - low) << 6)]
        mask &= BELOW[low]


class Page:
    """One touched 4 KiB page: its bytes and two 64-bit line masks.

    In a host cache ``present`` marks the cached lines and ``dirty`` (always
    a subset) those not yet written back.  ``data`` is dense -- line ``b`` at
    byte ``b << 6`` -- and reaches only as far as the highest line the page
    has held (:meth:`reach`); bytes of absent lines are garbage.

    In the pool ``present`` marks the lines written and not discarded since,
    ``dirty`` stays zero and ``data`` is packed: it holds exactly the present
    lines, in line order, line ``b`` at ``(present & BELOW[b]).bit_count()
    << 6``, so ``len(data) == 64 * present.bit_count()``.  Absent lines read
    as zeros.  Rings of 2 KiB packet buffers holding 256 B frames, and
    counters alone on their page, would otherwise be mostly resident padding.
    """

    __slots__ = ("data", "present", "dirty")

    def __init__(self):
        self.data = bytearray()
        self.present = 0
        self.dirty = 0

    def reach(self, lines: int) -> bytearray:
        """``data``, extended with zeros to hold ``lines`` lines."""
        self.data.extend(bytes((lines << 6) - len(self.data)))
        return self.data


def line_index(addr: int) -> int:
    """Cache-line index containing byte address ``addr``."""
    return addr // CACHE_LINE


def lines_spanned(addr: int, size: int) -> range:
    """Indices of every cache line touched by ``[addr, addr+size)``."""
    if addr < 0:
        raise MemoryFault(f"negative address {addr}")
    if size <= 0:
        return range(0)
    return range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)


@dataclass
class LinkStats:
    """Per-host-link transfer counters, split by direction and category."""

    read_bytes: Dict[str, int] = field(default_factory=dict)
    write_bytes: Dict[str, int] = field(default_factory=dict)

    def total(self, direction: Optional[str] = None) -> int:
        total = 0
        if direction in (None, "read"):
            total += sum(self.read_bytes.values())
        if direction in (None, "write"):
            total += sum(self.write_bytes.values())
        return total

    def by_category(self) -> Dict[str, int]:
        """Read+write bytes per category."""
        merged: Dict[str, int] = {}
        for table in (self.read_bytes, self.write_bytes):
            for category, nbytes in table.items():
                merged[category] = merged.get(category, 0) + nbytes
        return merged


class CXLMemoryPool:
    """A multi-headed CXL memory device shared by all hosts in a pod."""

    def __init__(self, config: Optional[CXLConfig] = None, size: Optional[int] = None):
        self.config = config or CXLConfig()
        self.size = size if size is not None else self.config.pool_bytes
        if self.size <= 0 or self.size % CACHE_LINE:
            raise MemoryFault(
                f"pool size must be a positive multiple of {CACHE_LINE} B, got {self.size}")
        self._pages: Dict[int, Page] = {}
        self.link_stats: Dict[str, LinkStats] = {}
        self.timings = self.config.timings
        # Fault injection (repro.faults): per-host-link bandwidth derate and
        # added latency; the key None degrades every link in the pod.
        self._link_faults: Dict[Optional[str], Tuple[float, float]] = {}

    # -- accounting --------------------------------------------------------

    def stats_for(self, host: str) -> LinkStats:
        if host not in self.link_stats:
            self.link_stats[host] = LinkStats()
        return self.link_stats[host]

    def _account(self, host: Optional[str], direction: str, category: str, nbytes: int) -> None:
        if host is None:
            return
        stats = self.link_stats.get(host)
        if stats is None:
            stats = self.link_stats[host] = LinkStats()
        table = stats.read_bytes if direction == "read" else stats.write_bytes
        table[category] = table.get(category, 0) + nbytes

    # -- raw line access (used by HostCache and DMA) -------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryFault(f"access [{addr}, {addr + size}) outside pool of {self.size} B")

    def write_line(self, index: int, data: bytes) -> None:
        if index < 0 or (index + 1) << 6 > self.size:
            self._check(index * CACHE_LINE, CACHE_LINE)
        if len(data) != CACHE_LINE:
            raise MemoryFault(f"line write must be {CACHE_LINE} B, got {len(data)}")
        # The Figure 6 microbench lands every posted write through here, one
        # call per line: the one-line case of dma_write's run, inlined.
        page = self._pages.get(index >> 6)
        if page is None:
            page = self._pages[index >> 6] = Page()
        present = page.present
        bit = index & 63
        rank = (present & BELOW[bit]).bit_count() << 6
        page.data[rank:rank + CACHE_LINE if present & BIT[bit] else rank] = data
        page.present = present | BIT[bit]

    # -- device (DMA) access: bypasses CPU caches ----------------------------

    def dma_read(self, addr: int, size: int, host: Optional[str] = None,
                 category: str = "payload",
                 account_bytes: Optional[int] = None) -> bytes:
        """Device read straight from the pool (no CPU cache involvement).

        ``account_bytes`` overrides the traffic accounting (e.g. a frame's
        declared wire size when padding bytes are not physically stored).
        """
        self._check(addr, size)
        chunks = []
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = min(off + left, PAGE_SIZE)
            page = self._pages.get(pos >> 12)
            lo = off >> 6
            hi = (stop - 1) >> 6
            if page is None:
                chunks.append(bytes(stop - off))
            elif page.present & SPAN[lo][hi] == SPAN[lo][hi]:
                # Every line written: they are adjacent in the packed data.
                start = ((page.present & BELOW[lo]).bit_count() << 6) + (off & 63)
                chunks.append(page.data[start:start + stop - off])
            else:
                dense = bytearray((hi + 1) << 6)
                copy_lines(dense, page.data, SPAN[lo][hi], page.present)
                chunks.append(dense[off:stop])
            pos += stop - off
            left -= stop - off
        self._account(host, "read", category,
                      account_bytes if account_bytes is not None
                      else len(lines_spanned(addr, size)) * CACHE_LINE)
        return b"".join(chunks)

    def dma_write(self, addr: int, data: bytes, host: Optional[str] = None,
                  category: str = "payload",
                  account_bytes: Optional[int] = None) -> None:
        """Device write straight to the pool (no CPU cache involvement)."""
        size = len(data)
        self._check(addr, size)
        pages = self._pages
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = min(off + left, PAGE_SIZE)
            run = data if stop - off == size else data[size - left:size - left + stop - off]
            page = pages.get(pos >> 12)
            if page is None:
                page = pages[pos >> 12] = Page()
            lo = off >> 6
            hi = (stop - 1) >> 6
            present = page.present
            rank = (present & BELOW[lo]).bit_count() << 6
            old = (present & SPAN[lo][hi]).bit_count() << 6
            # A partial first or last line keeps the rest of its old bytes
            # (zeros if it is new); the last present line of the run is hi.
            if off & 63:
                run = (page.data[rank:rank + (off & 63)] if present & BIT[lo]
                       else bytes(off & 63)) + run
            if stop & 63:
                run = run + (page.data[rank + old - 64 + (stop & 63):rank + old]
                             if present & BIT[hi] else bytes(64 - (stop & 63)))
            # One memmove overwrites the run's present lines and inserts its
            # new ones.
            page.data[rank:rank + old] = run
            page.present = present | SPAN[lo][hi]
            pos += stop - off
            left -= stop - off
        self._account(host, "write", category,
                      account_bytes if account_bytes is not None
                      else len(lines_spanned(addr, size)) * CACHE_LINE)

    # -- transfer timing -----------------------------------------------------

    def set_link_fault(self, host: Optional[str] = None, derate: float = 1.0,
                       extra_s: float = 0.0) -> None:
        """Degrade a host's CXL link: divide bandwidth by ``derate`` and add
        ``extra_s`` to every transfer.  ``host=None`` degrades all links.
        Both are checked before anything changes: a NaN, infinite or
        negative value is refused, never turned into a delay."""
        if not (math.isfinite(derate) and derate >= 1.0):
            raise MemoryFault(f"link derate must be finite and >= 1, got {derate}")
        if not (math.isfinite(extra_s) and extra_s >= 0.0):
            raise MemoryFault(f"link extra latency must be finite and >= 0 s, got {extra_s}")
        self._link_faults[host] = (derate, extra_s)

    def clear_link_fault(self, host: Optional[str] = None) -> None:
        self._link_faults.pop(host, None)

    def link_fault_active(self, host: Optional[str] = None) -> bool:
        return host in self._link_faults or None in self._link_faults

    def transfer_time_s(self, nbytes: int, host: Optional[str] = None) -> float:
        """Time to move ``nbytes`` across one host's CXL link (bandwidth only,
        plus any injected link fault on that host's link)."""
        base = nbytes / self.config.link_bytes_per_sec
        if self._link_faults:
            fault = self._link_faults.get(host)
            if fault is None:
                fault = self._link_faults.get(None)
            if fault is not None:
                derate, extra_s = fault
                return base * derate + extra_s
        return base

    def discard(self, addr: int, size: int) -> None:
        """Forget the lines lying wholly inside ``[addr, addr+size)``: they
        read as zeros again and cost nothing, like lines never written (a
        recycled RX buffer, DESIGN §3h).  A line the range covers only in
        part is kept -- its other bytes are a neighbour's -- and a page left
        with no line is deleted.  No transfer: nothing is accounted."""
        if (addr | size) < 0 or addr + size > self.size:      # either negative
            self._check(addr, size)
        pages = self._pages
        line = (addr + 63) >> 6                 # the first line wholly inside
        end = (addr + size) >> 6                # one past the last
        while line < end:
            stop = (line | 63) + 1              # this page's part: [line, stop)
            if stop > end:
                stop = end
            page = pages.get(line >> 6)
            if page is not None:
                present = page.present
                drop = present & SPAN[line & 63][(stop - 1) & 63]
                if drop == present:
                    del pages[line >> 6]
                elif drop:
                    # The present lines of one span are adjacent when packed.
                    rank = (present & BELOW[line & 63]).bit_count() << 6
                    del page.data[rank:rank + (drop.bit_count() << 6)]
                    page.present = present ^ drop
            line = stop

    def touched_lines(self) -> Iterator[Tuple[int, bytes]]:
        """All lines written and not since discarded, for verification."""
        for pidx in sorted(self._pages):
            page = self._pages[pidx]
            for rank, bit in enumerate(mask_bits(page.present)):
                yield (pidx << 6) | bit, bytes(page.data[rank << 6:(rank + 1) << 6])

    def footprint(self) -> Tuple[int, int]:
        """``(lines held, bytes of page data resident)``: lines written and
        not since discarded; the pages are packed, so the second is 64 times
        the first."""
        pages = self._pages.values()
        return (sum(page.present.bit_count() for page in pages),
                sum(len(page.data) for page in pages))
