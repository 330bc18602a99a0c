"""Per-host CPU cache over non-coherent shared CXL memory.

This is the model that makes the paper's §3.2 problems *real* rather than
narrated:

* a host's load hits its own cached copy of a line even after another host
  (or a device) has overwritten the line in the pool -- i.e. **stale reads**;
* a host's store stays in its cache (dirty) and is invisible to everyone else
  until an explicit CLWB / CLFLUSHOPT;
* PREFETCHT0 on a line that is *already cached* is a no-op, which is exactly
  why naive prefetching stalls in Figure 6 (design ②) and why the Oasis
  channel must invalidate consumed and prefetched-but-stale lines (③/④).

Within one host, DMA is kept coherent the way real hardware does it: a device
write snoops and invalidates the local cache line, a device read snoops out
dirty data.  Across hosts there is no snooping at all -- that is the CXL 2.0
reality Oasis is built for.

Every operation returns its CPU cost in nanoseconds; callers (driver loops,
the Figure 6 microbench) accumulate those costs into virtual time.

Representation (DESIGN §3h): per touched 4 KiB page the cache keeps one data
page and two 64-bit masks, ``present`` and ``dirty``.  Every operation is, per
page spanned, one mask computation, ``int.bit_count()`` for the stats, link
bytes and cost, and one slice copy per contiguous run of lines; a single-line
access is the one-bit case of that loop.  Only two conditions make an
operation walk its lines bit by bit: a writeback hook and an armed writeback
fault, both of which see one 64 B line at a time.  The cache is unbounded:
no line is ever evicted for capacity.

``load``, ``store`` and ``prefetch_range`` begin with a short cut for an
access that lies inside one line (every ring slot and counter): same result
as the loop, a third of the interpreter steps.  It is the one hand-written
fast path here and it is kept because the ledger says so -- without it
``channel_sweep`` is 18 % slower than the per-line model it replaced, with it
5 % (DESIGN §3h); the differential oracle drives both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import CACHE_LINE, CacheTimings
from ..errors import MemoryFault
from .cxl import BELOW, BIT, SPAN, CXLMemoryPool, Page, copy_lines

__all__ = ["HostCache", "CacheStats"]


@dataclass
class CacheStats:
    """Operation counters, used by tests and the Table 3 experiment.

    ``writebacks`` counts the writebacks software asked for (CLWB or
    CLFLUSHOPT of a dirty line).  The one the hardware starts on its own is
    counted where it is caused instead: a dirty line snooped out by a device
    read under ``dma_read_snoop_hits`` (link category ``"snoop"``).  The
    cache never evicts for capacity, so ``evictions`` stays 0; it is kept as
    a reported series.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    writebacks: int = 0
    invalidations: int = 0
    fences: int = 0
    prefetches_issued: int = 0
    prefetches_ignored: int = 0     # line already cached: the Fig 6 pathology
    evictions: int = 0
    dma_read_snoop_hits: int = 0
    dma_write_snoop_hits: int = 0
    writebacks_lost: int = 0        # injected fault: posted write vanished
    writebacks_partial: int = 0     # injected fault: only half the line landed


class HostCache:
    """One host's view of the shared pool through its (non-coherent) caches."""

    __slots__ = ("pool", "host", "timings", "_pages", "stats", "_spare",
                 "_size", "_rd", "_wr", "writeback_hook", "_wb_fault")

    def __init__(
        self,
        pool: CXLMemoryPool,
        host: str,
        timings: Optional[CacheTimings] = None,
    ):
        self.pool = pool
        self._size = pool.size
        self.host = host
        self.timings = timings or pool.timings
        self._pages: "dict[int, Page]" = {}
        # The page that last went empty, kept for the next claim: a buffer
        # that is invalidated and re-read does not churn 4 KiB allocations.
        self._spare: Optional[Page] = None
        self.stats = CacheStats()
        # This host's per-category byte counters, bound lazily on the first
        # accounted transfer so the pool's link table is populated exactly
        # when traffic first flows (not when the cache object is built).
        self._rd = None
        self._wr = None
        # Optional interception of explicit writebacks (CLWB/CLFLUSHOPT of a
        # dirty line).  The Figure 6 microbench uses this to model the posted
        # write's flight time: the hook receives (line_index, data, category)
        # and applies the bytes to the pool once the write lands.  When unset,
        # writebacks reach the pool immediately.
        self.writeback_hook = None
        # Fault injection (repro.faults): the next N writebacks of matching
        # category are dropped ("drop") or torn in half ("partial").
        self._wb_fault: Optional[dict] = None

    # -- internals ----------------------------------------------------------

    def _link_tables(self):
        stats = self.pool.stats_for(self.host)
        self._rd = stats.read_bytes
        self._wr = stats.write_bytes
        return self._rd, self._wr

    def _account(self, direction_write: bool, category: str, nbytes: int) -> None:
        table = self._wr if direction_write else self._rd
        if table is None:
            table = self._link_tables()[direction_write]
        table[category] = table.get(category, 0) + nbytes

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self._size:
            raise MemoryFault(
                f"access [{addr}, {addr + size}) outside pool of {self._size} B")

    def _claim(self, pidx: int, page: Optional[Page], lo: int, hi: int,
               claim: int, fetch: int, category: str, addr: int, size: int) -> Page:
        """Make the absent lines ``claim`` (within lines ``lo..hi``) of page
        ``pidx`` present, reading the subset ``fetch`` from the pool (the rest
        is about to be fully overwritten).  ``[addr, addr+size)`` is the whole
        access: it is validated here, before the first mutation, because an
        access that finds all its lines present needs no check -- present
        lines are always in range (an access that goes on into another page
        is validated by its caller before it touches the first).
        """
        if addr < 0 or addr + size > self._size:
            self._check(addr, size)
        if page is None:
            page = self._pages[pidx] = self._spare or Page()
            self._spare = None
        dst = page.data
        end = (hi + 1) << 6
        if len(dst) < end:
            dst = page.reach(hi + 1)
        if fetch:
            src = self.pool._pages.get(pidx)
            if src is None:
                copy_lines(dst, b"", fetch, 0)
            elif fetch == SPAN[lo][hi] and src.present & fetch == fetch:
                # The run was all written: one slice of the packed pool page.
                rank = (src.present & BELOW[lo]).bit_count() << 6
                dst[lo << 6:end] = src.data[rank:rank + end - (lo << 6)]
            else:
                copy_lines(dst, src.data, fetch, src.present)
            rd = self._rd
            if rd is None:
                rd = self._link_tables()[0]
            rd[category] = rd.get(category, 0) + fetch.bit_count() * CACHE_LINE
        page.present |= claim
        return page

    def _forget(self, pidx: int, page: Page, mask: int) -> None:
        """Drop the present lines ``mask`` of ``page`` (no writeback)."""
        page.present ^= mask
        page.dirty &= ~mask
        if not page.present:
            del self._pages[pidx]
            self._spare = page

    def _write_back(self, pidx: int, page: Page, lo: int, hi: int, mask: int,
                    category: str, posted: bool = True) -> None:
        """Send the dirty lines ``mask`` (within lines ``lo..hi``) of ``page``
        to the pool and mark them clean.  ``posted=False`` is a device
        snooping data out inside the host -- not a posted CXL write, so
        neither hook nor fault applies.
        """
        page.dirty ^= mask
        if not posted or (self._wb_fault is None and self.writeback_hook is None):
            # The pool's run write (see dma_write), inlined: every CLWB of a
            # ring line or a counter comes through here.  A run replaces its
            # present lines in the packed pool page and inserts the others;
            # runs go highest first, so the rank of a lower one still holds.
            pool_pages = self.pool._pages
            dst = pool_pages.get(pidx)
            if dst is None:
                dst = pool_pages[pidx] = Page()
            present = dst.present
            if mask == SPAN[lo][hi]:
                rank = (present & BELOW[lo]).bit_count() << 6
                dst.data[rank:rank + ((present & mask).bit_count() << 6)] = \
                    page.data[lo << 6:(hi + 1) << 6]
            else:
                run = mask
                while run:
                    top = run.bit_length()              # the run is [low, top)
                    low = (run ^ BELOW[top]).bit_length()
                    rank = (present & BELOW[low]).bit_count() << 6
                    old = (present & SPAN[low][top - 1]).bit_count() << 6
                    dst.data[rank:rank + old] = page.data[low << 6:top << 6]
                    run &= BELOW[low]
            dst.present = present | mask
            wr = self._wr
            if wr is None:
                wr = self._link_tables()[1]
            wr[category] = wr.get(category, 0) + mask.bit_count() * CACHE_LINE
            return
        # A hook or a fault sees one line at a time (and a fault can run out
        # in the middle of a range).
        data = page.data
        for bit in range(lo, hi + 1):
            if not mask & BIT[bit]:
                continue
            index = (pidx << 6) | bit
            line = bytes(data[bit << 6:(bit + 1) << 6])
            if self._wb_fault is not None and self._writeback_faulted(index, line, category):
                continue
            if self.writeback_hook is not None:
                self.writeback_hook(index, line, category)
            else:
                self.pool.write_line(index, line)
            wr = self._wr
            if wr is None:
                wr = self._link_tables()[1]
            wr[category] = wr.get(category, 0) + CACHE_LINE

    def _sweep(self, addr: int, size: int, category: Optional[str], drop: bool,
               posted: bool = True) -> Tuple[int, int, int]:
        """Visit the cached lines of ``[addr, addr+size)``: write the dirty
        ones back under ``category`` (``None``: do not), then forget them all
        if ``drop``.  Returns ``(lines spanned, written back, dropped)``.
        """
        if (addr | size) < 0 or addr + size > self._size:     # either negative
            self._check(addr, size)
        pages = self._pages
        spanned = written = dropped = 0
        while size > 0:
            off = addr & 4095                       # page-relative [off, stop)
            stop = off + size
            if stop > 4096:
                stop = 4096
            lo = off >> 6
            hi = (stop - 1) >> 6
            spanned += hi - lo + 1
            page = pages.get(addr >> 12)
            if page is not None:
                mask = SPAN[lo][hi]
                dirty = page.dirty & mask
                if dirty and category is not None:
                    self._write_back(addr >> 12, page, lo, hi, dirty, category, posted)
                    written += dirty.bit_count()
                hit = page.present & mask
                if hit and drop:
                    self._forget(addr >> 12, page, hit)
                    dropped += hit.bit_count()
            stop -= off
            addr += stop
            size -= stop
        return spanned, written, dropped

    # -- inspection (free: used by assertions, not the datapath) -------------

    def contains(self, addr: int) -> bool:
        page = self._pages.get(addr >> 12)
        return page is not None and page.present & BIT[(addr & 4095) >> 6] != 0

    def is_dirty(self, addr: int) -> bool:
        page = self._pages.get(addr >> 12)
        return page is not None and page.dirty & BIT[(addr & 4095) >> 6] != 0

    @property
    def cached_line_count(self) -> int:
        return sum(page.present.bit_count() for page in self._pages.values())

    @property
    def armed_writeback_faults(self) -> int:
        """Injected writeback faults still waiting for a matching writeback."""
        return 0 if self._wb_fault is None else self._wb_fault["count"]

    # -- CPU loads and stores -------------------------------------------------

    def load(self, addr: int, size: int, category: str = "payload") -> Tuple[bytes, float]:
        """CPU load of ``size`` bytes.  Returns ``(data, cost_ns)``.

        Cached lines are served from the cache *even if stale* -- staleness is
        the caller's problem, exactly as on real non-coherent CXL 2.0.
        """
        pages = self._pages
        off = addr & 4095
        if 0 < size <= 64 - (off & 63):
            # Short cut for the commonest access of all, one inside a single
            # line (ring slots, counters): the loop below computes the same
            # thing in three times the steps (DESIGN §3h has the ledger rows).
            page = pages.get(addr >> 12)
            lo = off >> 6
            if page is not None and page.present & BIT[lo]:
                self.stats.hits += 1
                return bytes(page.data[off:off + size]), self.timings.cache_hit_ns
            page = self._claim(addr >> 12, page, lo, lo, BIT[lo], BIT[lo], category, addr, size)
            self.stats.misses += 1
            return bytes(page.data[off:off + size]), self.timings.cxl_load_ns
        if size < 0:
            self._check(addr, size)
        out = b""
        lines = misses = 0
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = off + left
            if stop > 4096:
                stop = 4096
                self._check(addr, size)             # more pages follow: validate first
            lo = off >> 6
            hi = (stop - 1) >> 6
            mask = SPAN[lo][hi]
            page = pages.get(pos >> 12)
            if page is None or page.present & mask != mask:
                need = mask if page is None else mask & ~page.present
                page = self._claim(pos >> 12, page, lo, hi, need, need, category, addr, size)
                misses += need.bit_count()
            lines += hi - lo + 1
            out += page.data[off:stop]
            stop -= off
            pos += stop
            left -= stop
        if not misses:
            self.stats.hits += lines
            return out, lines * self.timings.cache_hit_ns
        stats = self.stats
        stats.hits += lines - misses
        stats.misses += misses
        t = self.timings
        # A sequential multi-line load overlaps misses after the first
        # (hardware prefetch + MLP): only the first pays the full load-to-use
        # latency.
        return out, ((lines - misses) * t.cache_hit_ns + t.cxl_load_ns
                     + (misses - 1) * t.cxl_stream_ns)

    def store(self, addr: int, data: bytes, category: str = "payload") -> float:
        """CPU store (write-allocate).  Dirty data stays local until CLWB."""
        size = len(data)
        pages = self._pages
        off = addr & 4095
        if 0 < size <= 64 - (off & 63):
            # The same short cut as in load(): a store inside a single line.
            page = pages.get(addr >> 12)
            lo = off >> 6
            t = self.timings
            cost = t.store_ns
            if page is None or not page.present & BIT[lo]:
                # Read-for-ownership unless the whole line is overwritten.
                fetch = 0 if size == 64 else BIT[lo]
                page = self._claim(addr >> 12, page, lo, lo, BIT[lo], fetch, category, addr, size)
                if fetch:
                    cost += t.cxl_load_ns
            page.data[off:off + size] = data
            page.dirty |= BIT[lo]
            self.stats.stores += 1
            return cost
        lines = fetched = 0
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = off + left
            if stop > 4096:
                stop = 4096
                self._check(addr, size)             # more pages follow: validate first
            lo = off >> 6
            hi = (stop - 1) >> 6
            mask = SPAN[lo][hi]
            page = pages.get(pos >> 12)
            if page is None or page.present & mask != mask:
                absent = mask if page is None else mask & ~page.present
                # Read-for-ownership only where old bytes survive the store:
                # a first or last line that is partially overwritten.
                fetch = 0
                if off & 63:
                    fetch = absent & BIT[lo]
                if stop & 63:
                    fetch |= absent & BIT[hi]
                page = self._claim(pos >> 12, page, lo, hi, absent, fetch, category, addr, size)
                fetched += fetch.bit_count()
            lines += hi - lo + 1
            stop -= off
            page.data[off:off + stop] = (
                data if stop == size else data[size - left:size - left + stop])
            page.dirty |= mask
            pos += stop
            left -= stop
        self.stats.stores += lines
        t = self.timings
        if not fetched:
            return lines * t.store_ns
        # RFO fetches overlap after the first miss (MLP), like loads.
        return lines * t.store_ns + t.cxl_load_ns + (fetched - 1) * t.cxl_stream_ns

    # -- explicit coherence operations ----------------------------------------

    def clwb(self, addr: int, category: str = "payload") -> float:
        """Write back the line containing ``addr`` (kept cached, clean)."""
        page = self._pages.get(addr >> 12)
        if page is not None:
            lo = (addr & 4095) >> 6
            if page.dirty & BIT[lo]:
                self._write_back(addr >> 12, page, lo, lo, BIT[lo], category)
                self.stats.writebacks += 1
                return self.timings.clwb_ns
        if addr < 0 or addr >= self._size:      # (a cached line is always in range)
            self._check(addr, 1)
        return self.timings.clflush_issue_ns

    def clwb_range(self, addr: int, size: int, category: str = "payload") -> float:
        spanned, written, _ = self._sweep(addr, size, category, drop=False)
        self.stats.writebacks += written
        t = self.timings
        return written * t.clwb_ns + (spanned - written) * t.clflush_issue_ns

    def clflush(self, addr: int, fenced: bool = False, category: str = "payload") -> float:
        """CLFLUSHOPT: write back if dirty, then drop the line.

        ``fenced=True`` models a CLFLUSHOPT immediately ordered by MFENCE
        (serialising, ~5x the cost of a background flush) -- the difference
        that separates the Figure 6 baseline from the Oasis design.
        """
        page = self._pages.get(addr >> 12)
        lo = (addr & 4095) >> 6
        bit = BIT[lo]
        if page is not None and page.present & bit:
            if page.dirty & bit:
                self._write_back(addr >> 12, page, lo, lo, bit, category)
                self.stats.writebacks += 1
            page.present ^= bit                 # _forget, inlined
            if not page.present:
                del self._pages[addr >> 12]
                self._spare = page
            self.stats.invalidations += 1
        elif addr < 0 or addr >= self._size:    # (a cached line is always in range)
            self._check(addr, 1)
        t = self.timings
        return t.clflush_ns if fenced else t.clflush_issue_ns

    def clflush_range(self, addr: int, size: int, fenced: bool = False,
                      category: str = "payload") -> float:
        spanned, written, dropped = self._sweep(addr, size, category, drop=True)
        stats = self.stats
        stats.writebacks += written
        stats.invalidations += dropped
        t = self.timings
        return spanned * (t.clflush_ns if fenced else t.clflush_issue_ns)

    def clflush_cached(self, addr: int, size: int,
                       category: str = "payload") -> float:
        """Unfenced CLFLUSHOPT of exactly the cached lines in the range.

        For a caller that tracks what it brought in (a receiver's prefetch
        window) and so issues no flush for the lines it knows are absent:
        those cost nothing.  Returns ``cost_ns``.
        """
        _, written, dropped = self._sweep(addr, size, category, drop=True)
        stats = self.stats
        stats.writebacks += written
        stats.invalidations += dropped
        return dropped * self.timings.clflush_issue_ns

    def inject_writeback_fault(self, count: int = 1, mode: str = "drop",
                               category: Optional[str] = "payload",
                               on_fault=None) -> None:
        """Arm a writeback fault: the next ``count`` writebacks whose category
        matches (``None`` matches any) are dropped or half-torn.

        The CPU side is oblivious -- CLWB retires, the line goes clean, the
        writeback counter ticks -- but the pool never (fully) sees the bytes,
        which is exactly how a lost posted write on a flaky CXL link behaves.
        ``on_fault(line_index, category, mode)`` lets the injector record the
        damaged line so invariant checks can exclude it.
        """
        if mode not in ("drop", "partial"):
            raise ValueError(f"unknown writeback fault mode {mode!r}")
        if count <= 0:
            raise ValueError("writeback fault count must be positive")
        self._wb_fault = {"count": int(count), "mode": mode,
                          "category": category, "on_fault": on_fault}

    def _writeback_faulted(self, index: int, line: bytes, category: str) -> bool:
        fault = self._wb_fault
        if fault["category"] is not None and fault["category"] != category:
            return False
        fault["count"] -= 1
        if fault["count"] <= 0:
            self._wb_fault = None
        if fault["on_fault"] is not None:
            fault["on_fault"](index, category, fault["mode"])
        if fault["mode"] == "drop":
            self.stats.writebacks_lost += 1
            return True
        # Partial: the first half of the line lands, the tail is torn off.
        half = CACHE_LINE // 2
        self.pool.write_line(
            index, line[:half] + self.pool.dma_read((index << 6) + half, half))
        self._account(True, category, CACHE_LINE)
        self.stats.writebacks_partial += 1
        return True

    def mfence(self) -> float:
        self.stats.fences += 1
        return self.timings.mfence_ns

    def prefetch_range(self, addr: int, size: int,
                       category: str = "message") -> float:
        """One PREFETCHT0 per line of the range.  Returns ``cost_ns``.  A
        prefetch of a line already present in the cache is ignored by the
        hardware -- including when the cached copy is stale.  This no-op is
        the root cause dissected in §3.2.2."""
        pages = self._pages
        off = addr & 4095
        if 0 < size <= 64 - (off & 63):
            # One line (the streaming receiver's usual request): short cut.
            page = pages.get(addr >> 12)
            lo = off >> 6
            if page is not None and page.present & BIT[lo]:
                self.stats.prefetches_ignored += 1
                return self.timings.prefetch_issue_ns
            self._claim(addr >> 12, page, lo, lo, BIT[lo], BIT[lo], category, addr, size)
            self.stats.prefetches_issued += 1
            return self.timings.prefetch_issue_ns
        if size < 0:
            self._check(addr, size)
        issued = lines = 0
        pos = addr
        left = size
        while left > 0:
            off = pos & 4095                        # page-relative [off, stop)
            stop = off + left
            if stop > 4096:
                stop = 4096
                self._check(addr, size)             # more pages follow: validate first
            lo = off >> 6
            hi = (stop - 1) >> 6
            mask = SPAN[lo][hi]
            page = pages.get(pos >> 12)
            need = mask if page is None else mask & ~page.present
            if need:
                self._claim(pos >> 12, page, lo, hi, need, need, category, addr, size)
                issued += need.bit_count()
            lines += hi - lo + 1
            stop -= off
            pos += stop
            left -= stop
        stats = self.stats
        stats.prefetches_issued += issued
        stats.prefetches_ignored += lines - issued
        return lines * self.timings.prefetch_issue_ns

    def drop_all(self) -> None:
        """Invalidate the entire cache without writing anything back."""
        self._pages.clear()
        self._spare = None

    # -- intra-host DMA snooping ------------------------------------------------

    def snoop_dma_write(self, addr: int, size: int) -> float:
        """Called when a *local* device DMA-writes: invalidate our copies."""
        _, _, dropped = self._sweep(addr, size, None, drop=True)
        self.stats.dma_write_snoop_hits += dropped
        return dropped * self.timings.clflush_issue_ns

    def snoop_dma_read(self, addr: int, size: int) -> float:
        """Called when a *local* device DMA-reads: flush our dirty data."""
        _, written, _ = self._sweep(addr, size, "snoop", drop=False, posted=False)
        self.stats.dma_read_snoop_hits += written
        return written * self.timings.clwb_ns
