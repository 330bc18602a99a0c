"""Shared CXL memory pool model.

The pool is a flat, byte-addressable store shared by every host in the pod
(§2.3).  Hosts never touch it directly: CPU accesses go through a
:class:`~repro.mem.cache.HostCache` (which may serve stale data -- the pool is
*not* cache-coherent across hosts), while PCIe devices DMA straight to the
pool through :meth:`CXLMemoryPool.dma_read` / :meth:`dma_write`.

Storage is sparse and page-granular: a dict of 4 KiB ``bytearray`` pages, each
with a 64-bit mask of the lines ever written, so a 256 GB pool costs memory
only for the pages actually touched and a 4 KiB buffer moves as one slice copy
(DESIGN §3h).  Every transfer is accounted per host link and per
*category* ("payload", "message", "counter", ...), which is what regenerates
Table 3's bandwidth breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..config import CACHE_LINE, CXLConfig
from ..errors import MemoryFault

__all__ = ["CXLMemoryPool", "LinkStats", "line_index", "line_base", "lines_spanned"]

# One page is 64 lines, so per-page line state fits one 64-bit mask word.  The
# loops here and in cache.py spell that geometry as literals: a byte offset
# ``>> 6`` is a line number, ``>> 12`` a page number, ``& 4095`` page-relative.
PAGE_SIZE = 4096
ZERO_PAGE = bytes(PAGE_SIZE)
assert CACHE_LINE == 64


# Masks are looked up, not shifted into being: a 64-bit shift allocates a fresh
# multi-digit int on every access.  SPAN[lo][hi] selects lines lo..hi of a
# page, BIT[lo] line lo alone, _BELOW[n] lines 0..n-1.
SPAN = tuple(tuple((2 << hi) - (1 << lo) if hi >= lo else 0 for hi in range(64))
             for lo in range(64))
BIT = tuple(1 << lo for lo in range(64))
_BELOW = tuple((1 << n) - 1 for n in range(65))


def mask_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def copy_lines(dst: bytearray, src, mask: int) -> None:
    """Copy the 64 B lines selected by ``mask`` from page ``src`` to page
    ``dst``: one slice per contiguous run.  (Callers that know ``mask`` is the
    single run ``SPAN[lo][hi]`` copy that slice themselves.)"""
    while mask:
        top = mask.bit_length()                         # the run is [low, top)
        low = (mask ^ _BELOW[top]).bit_length()
        dst[low << 6:top << 6] = src[low << 6:top << 6]
        mask &= _BELOW[low]


class Page:
    """One touched 4 KiB page: its bytes and two 64-bit line masks.

    In a host cache ``present`` marks the cached lines and ``dirty`` (always
    a subset) those not yet written back; bytes of absent lines are garbage.
    In the pool ``present`` marks the lines ever written and ``dirty`` stays
    zero.  ``data`` reaches only as far as the highest line ever held (in the
    pool the rest of the page reads as zeros): rings of 2 KiB packet buffers
    holding 256 B frames, and counters alone on their page, would otherwise
    be mostly resident padding.
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


def line_base(addr: int) -> int:
    """Base byte address of the cache line containing ``addr``.

    Negative addresses are rejected: Python's floor-division/masking would
    silently return a "valid"-looking line for them, so a sign bug upstream
    would corrupt an unrelated line instead of faulting.
    """
    if addr < 0:
        raise MemoryFault(f"negative address {addr}")
    return addr & ~(CACHE_LINE - 1)


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

    def record(self, direction: str, category: str, nbytes: int) -> None:
        table = self.read_bytes if direction == "read" else self.write_bytes
        table[category] = table.get(category, 0) + nbytes

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

    def snapshot(self) -> "LinkStats":
        return LinkStats(dict(self.read_bytes), dict(self.write_bytes))

    def delta_since(self, earlier: "LinkStats") -> "LinkStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        delta = LinkStats()
        for category, nbytes in self.read_bytes.items():
            delta.read_bytes[category] = nbytes - earlier.read_bytes.get(category, 0)
        for category, nbytes in self.write_bytes.items():
            delta.write_bytes[category] = nbytes - earlier.write_bytes.get(category, 0)
        return delta


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

    def total_traffic(self) -> int:
        return sum(stats.total() for stats in self.link_stats.values())

    # -- raw line access (used by HostCache and DMA) -------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryFault(f"access [{addr}, {addr + size}) outside pool of {self.size} B")

    def _page_for_write(self, pidx: int, mask: int) -> bytearray:
        """Bytes of page ``pidx``, materialised, with the lines ``mask`` marked written."""
        page = self._pages.get(pidx)
        if page is None:
            page = self._pages[pidx] = Page()
        page.present |= mask
        lines = mask.bit_length()
        return page.data if len(page.data) >= lines << 6 else page.reach(lines)

    def read_line(self, index: int) -> bytes:
        """Return the 64 B line at ``index`` (zeros if never written)."""
        self._check(index * CACHE_LINE, CACHE_LINE)
        page = self._pages.get(index >> 6)
        if page is None:
            return bytes(CACHE_LINE)
        offset = (index & 63) << 6
        return bytes(page.data[offset:offset + CACHE_LINE]).ljust(CACHE_LINE, b"\x00")

    def write_line(self, index: int, data: bytes) -> None:
        if index < 0 or (index + 1) << 6 > self.size:
            self._check(index * CACHE_LINE, CACHE_LINE)
        if len(data) != CACHE_LINE:
            raise MemoryFault(f"line write must be {CACHE_LINE} B, got {len(data)}")
        # _page_for_write, inlined: the Figure 6 microbench lands every posted
        # write through here, one call per line.
        page = self._pages.get(index >> 6)
        if page is None:
            page = self._pages[index >> 6] = Page()
        page.present |= BIT[index & 63]
        offset = (index & 63) << 6
        if len(page.data) < offset + CACHE_LINE:
            page.reach((index & 63) + 1)
        page.data[offset:offset + CACHE_LINE] = data

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
            chunk = b"" if page is None else page.data[off:stop]
            chunks.append(chunk)
            if len(chunk) < stop - off:             # beyond the written extent
                chunks.append(bytes(stop - off - len(chunk)))
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
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = min(off + left, PAGE_SIZE)
            self._page_for_write(pos >> 12, SPAN[off >> 6][(stop - 1) >> 6])[off:stop] = (
                data if stop - off == size else data[size - left:size - left + stop - off])
            pos += stop - off
            left -= stop - off
        self._account(host, "write", category,
                      account_bytes if account_bytes is not None
                      else len(lines_spanned(addr, size)) * CACHE_LINE)

    # -- transfer timing -----------------------------------------------------

    def set_link_fault(self, host: Optional[str] = None, derate: float = 1.0,
                       extra_s: float = 0.0) -> None:
        """Degrade a host's CXL link: divide bandwidth by ``derate`` and add
        ``extra_s`` to every transfer.  ``host=None`` degrades all links."""
        if derate < 1.0:
            raise MemoryFault(f"link derate must be >= 1, got {derate}")
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

    def touched_lines(self) -> Iterator[Tuple[int, bytes]]:
        """All lines ever written, for debugging/verification."""
        for pidx in sorted(self._pages):
            page = self._pages[pidx]
            for bit in mask_bits(page.present):
                yield (pidx << 6) | bit, bytes(page.data[bit << 6:(bit + 1) << 6])
