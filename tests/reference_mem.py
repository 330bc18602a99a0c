"""Reference memory model: the per-line implementation, kept as a test oracle.

Until PR 15 this *was* ``repro.mem``: the pool a dict of 64 B ``bytearray``
lines, the cache an ordered dict of ``_Line`` objects, every range operation
one Python step per line.  The production model now keeps 4 KiB pages and
bitmasks (DESIGN §3h); this copy, with the hand-inlined fast paths folded
back into one loop per operation, is what ``test_mem_oracle.py`` drives in
lock-step with it.  It follows the same contract as the production model:
bounds are validated up front, zero-length loads and stores are free, and the
pool size is a whole number of lines; a negative size is refused.
``ReferencePool.discard`` forgets the lines lying wholly inside a range (the
production pool drops them from packed pages).  Correctness over speed -- do not
optimise this file.

``ReferenceFixedPool`` (PR 22) is the same idea for ``mem/layout.py``: the
free stack built eagerly, one boxed int per buffer the area could ever hand
out, which the production pool replaced with a bump index.
``ReferenceRxPath`` keeps the RX posting that sat on top of it: the
backend's eager fill, one ``RxDescriptor`` per posted buffer in a
``DescriptorRing``, and the NIC's pop, which production replaced with runs of
addresses and a descriptor made only for a buffer a frame lands in.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.config import CACHE_LINE, CacheTimings, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cache import CacheStats
from repro.mem.cxl import LinkStats
from repro.pcie.queues import DescriptorRing, RxDescriptor

__all__ = ["ReferencePool", "ReferenceCache", "ReferenceFixedPool", "ReferenceRxPath"]


def _record(stats: LinkStats, direction: str, category: str, nbytes: int) -> None:
    table = stats.read_bytes if direction == "read" else stats.write_bytes
    table[category] = table.get(category, 0) + nbytes


def _lines(addr: int, size: int) -> range:
    if size <= 0:
        return range(0)
    return range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)


class ReferencePool:
    def __init__(self, config: Optional[CXLConfig] = None, size: Optional[int] = None):
        self.config = config or CXLConfig()
        self.size = size if size is not None else self.config.pool_bytes
        if self.size <= 0 or self.size % CACHE_LINE:
            raise MemoryFault("pool size must be a positive multiple of a line")
        self._lines: Dict[int, bytearray] = {}
        self.link_stats: Dict[str, LinkStats] = {}
        self.timings = self.config.timings

    def stats_for(self, host: str) -> LinkStats:
        return self.link_stats.setdefault(host, LinkStats())

    def _account(self, host, direction: str, category: str, nbytes: int) -> None:
        if host is not None:
            _record(self.stats_for(host), direction, category, nbytes)

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryFault(f"access [{addr}, {addr + size}) outside pool")

    def read_line(self, index: int) -> bytes:
        self._check(index * CACHE_LINE, CACHE_LINE)
        return bytes(self._lines.get(index, bytes(CACHE_LINE)))

    def write_line(self, index: int, data: bytes) -> None:
        self._check(index * CACHE_LINE, CACHE_LINE)
        if len(data) != CACHE_LINE:
            raise MemoryFault("line write must be one line")
        self._lines[index] = bytearray(data)

    def dma_read(self, addr, size, host=None, category="payload", account_bytes=None) -> bytes:
        self._check(addr, size)
        out = bytearray()
        for index in _lines(addr, size):
            out += self._lines.get(index, bytes(CACHE_LINE))
        start = addr % CACHE_LINE
        self._account(host, "read", category,
                      account_bytes if account_bytes is not None
                      else len(_lines(addr, size)) * CACHE_LINE)
        return bytes(out[start:start + size])

    def dma_write(self, addr, data, host=None, category="payload", account_bytes=None) -> None:
        size = len(data)
        self._check(addr, size)
        pos = 0
        while pos < size:
            index, offset = divmod(addr + pos, CACHE_LINE)
            take = min(CACHE_LINE - offset, size - pos)
            line = self._lines.setdefault(index, bytearray(CACHE_LINE))
            line[offset:offset + take] = data[pos:pos + take]
            pos += take
        self._account(host, "write", category,
                      account_bytes if account_bytes is not None
                      else len(_lines(addr, size)) * CACHE_LINE)

    def discard(self, addr, size) -> None:
        self._check(addr, size)
        first = (addr + CACHE_LINE - 1) // CACHE_LINE
        for index in range(first, (addr + size) // CACHE_LINE):
            self._lines.pop(index, None)

    def touched_lines(self) -> Iterator[Tuple[int, bytes]]:
        for index in sorted(self._lines):
            yield index, bytes(self._lines[index])

    def footprint(self) -> Tuple[int, int]:
        return len(self._lines), CACHE_LINE * len(self._lines)


class _Line:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytearray):
        self.data = data
        self.dirty = False


class ReferenceCache:
    def __init__(self, pool: ReferencePool, host: str,
                 timings: Optional[CacheTimings] = None):
        self.pool = pool
        self.host = host
        self.timings = timings or pool.timings
        self._lines: Dict[int, _Line] = {}
        self.stats = CacheStats()
        self.writeback_hook = None
        self._wb_fault: Optional[dict] = None

    # -- internals ----------------------------------------------------------

    def _account(self, write: bool, category: str, nbytes: int) -> None:
        _record(self.pool.stats_for(self.host), "write" if write else "read", category, nbytes)

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.pool.size:
            raise MemoryFault(f"access [{addr}, {addr + size}) outside pool")

    def _fill(self, index: int, category: str) -> _Line:
        line = _Line(bytearray(self.pool.read_line(index)))
        self._lines[index] = line
        self._account(False, category, CACHE_LINE)
        return line

    def _write_back(self, index: int, line: _Line, category: str) -> None:
        fault = self._wb_fault
        if fault is not None and fault["category"] in (None, category):
            fault["count"] -= 1
            if fault["count"] <= 0:
                self._wb_fault = None
            if fault["on_fault"] is not None:
                fault["on_fault"](index, category, fault["mode"])
            if fault["mode"] == "drop":
                self.stats.writebacks_lost += 1
                return
            half = CACHE_LINE // 2
            self.pool.write_line(index, bytes(line.data[:half]) + self.pool.read_line(index)[half:])
            self._account(True, category, CACHE_LINE)
            self.stats.writebacks_partial += 1
            return
        if self.writeback_hook is not None:
            self.writeback_hook(index, bytes(line.data), category)
        else:
            self.pool.write_line(index, bytes(line.data))
        self._account(True, category, CACHE_LINE)

    # -- inspection ---------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return addr // CACHE_LINE in self._lines

    def is_dirty(self, addr: int) -> bool:
        line = self._lines.get(addr // CACHE_LINE)
        return bool(line and line.dirty)

    @property
    def cached_line_count(self) -> int:
        return len(self._lines)

    @property
    def armed_writeback_faults(self) -> int:
        return 0 if self._wb_fault is None else self._wb_fault["count"]

    # -- loads and stores ---------------------------------------------------

    def load(self, addr: int, size: int, category: str = "payload") -> Tuple[bytes, float]:
        if size == 0:
            return b"", 0.0
        self._check(addr, size)
        t = self.timings
        out = bytearray()
        cost = 0.0
        first_miss = True
        for index in _lines(addr, size):
            line = self._lines.get(index)
            if line is None:
                line = self._fill(index, category)
                self.stats.misses += 1
                cost += t.cxl_load_ns if first_miss else t.cxl_stream_ns
                first_miss = False
            else:
                self.stats.hits += 1
                cost += t.cache_hit_ns
            out += line.data
        start = addr % CACHE_LINE
        return bytes(out[start:start + size]), cost

    def store(self, addr: int, data: bytes, category: str = "payload") -> float:
        size = len(data)
        if size <= 0:
            return 0.0
        self._check(addr, size)
        t = self.timings
        cost = 0.0
        pos = 0
        first_miss = True
        while pos < size:
            index, offset = divmod(addr + pos, CACHE_LINE)
            take = min(CACHE_LINE - offset, size - pos)
            line = self._lines.get(index)
            if line is None:
                if take == CACHE_LINE:          # full line: no read-for-ownership
                    line = self._lines[index] = _Line(bytearray(CACHE_LINE))
                else:
                    line = self._fill(index, category)
                    cost += t.cxl_load_ns if first_miss else t.cxl_stream_ns
                    first_miss = False
            line.data[offset:offset + take] = data[pos:pos + take]
            line.dirty = True
            cost += t.store_ns
            self.stats.stores += 1
            pos += take
        return cost

    # -- explicit coherence operations --------------------------------------

    def clwb(self, addr: int, category: str = "payload") -> float:
        return self.clwb_range(addr, 1, category)

    def clwb_range(self, addr: int, size: int, category: str = "payload") -> float:
        self._check(addr, size)
        cost = 0.0
        for index in _lines(addr, size):
            line = self._lines.get(index)
            if line is None or not line.dirty:
                cost += self.timings.clflush_issue_ns
                continue
            self._write_back(index, line, category)
            line.dirty = False
            self.stats.writebacks += 1
            cost += self.timings.clwb_ns
        return cost

    def clflush(self, addr: int, fenced: bool = False, category: str = "payload") -> float:
        return self.clflush_range(addr, 1, fenced, category)

    def clflush_range(self, addr: int, size: int, fenced: bool = False,
                      category: str = "payload") -> float:
        self._check(addr, size)
        t = self.timings
        cost = 0.0
        for index in _lines(addr, size):
            self._drop(index, category)
            cost += t.clflush_ns if fenced else t.clflush_issue_ns
        return cost

    def clflush_cached(self, addr: int, size: int, category: str = "payload"):
        self._check(addr, size)
        dropped = [i for i in _lines(addr, size) if self._drop(i, category)]
        return len(dropped) * self.timings.clflush_issue_ns

    def _drop(self, index: int, category: str) -> bool:
        line = self._lines.pop(index, None)
        if line is None:
            return False
        if line.dirty:
            self._write_back(index, line, category)
            self.stats.writebacks += 1
        self.stats.invalidations += 1
        return True

    def inject_writeback_fault(self, count=1, mode="drop", category="payload", on_fault=None):
        if mode not in ("drop", "partial"):
            raise ValueError(mode)
        if count <= 0:
            raise ValueError(count)
        self._wb_fault = {"count": int(count), "mode": mode,
                          "category": category, "on_fault": on_fault}

    def mfence(self) -> float:
        self.stats.fences += 1
        return self.timings.mfence_ns

    def prefetch_range(self, addr: int, size: int, category: str = "message"):
        if size == 0:
            return 0.0
        self._check(addr, size)
        for index in _lines(addr, size):
            if index in self._lines:
                self.stats.prefetches_ignored += 1
            else:
                self._fill(index, category)
                self.stats.prefetches_issued += 1
        return len(_lines(addr, size)) * self.timings.prefetch_issue_ns

    def drop_all(self) -> None:
        self._lines.clear()

    # -- intra-host DMA snooping --------------------------------------------

    def snoop_dma_write(self, addr: int, size: int) -> float:
        self._check(addr, size)
        cost = 0.0
        for index in _lines(addr, size):
            if self._lines.pop(index, None) is not None:
                self.stats.dma_write_snoop_hits += 1
                cost += self.timings.clflush_issue_ns
        return cost

    def snoop_dma_read(self, addr: int, size: int) -> float:
        self._check(addr, size)
        cost = 0.0
        for index in _lines(addr, size):
            line = self._lines.get(index)
            if line is not None and line.dirty:
                self.pool.write_line(index, bytes(line.data))
                self._account(True, "snoop", CACHE_LINE)
                line.dirty = False
                self.stats.dma_read_snoop_hits += 1
                cost += self.timings.clwb_ns
        return cost


class ReferenceFixedPool:
    def __init__(self, region, buffer_size: int):
        self.buffer_size = buffer_size
        base = (region.base + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE
        self.capacity = (region.end - base) // buffer_size
        self._free = [base + i * buffer_size for i in range(self.capacity)][::-1]
        self._outstanding: set = set()

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def alloc(self) -> Optional[int]:
        if not self._free:
            return None
        addr = self._free.pop()
        self._outstanding.add(addr)
        return addr

    def free(self, addr: int) -> None:
        if addr not in self._outstanding:
            raise MemoryFault(f"recycling unknown or double-freed buffer {addr:#x}")
        self._outstanding.remove(addr)
        self._free.append(addr)


class ReferenceRxPath:
    """One NIC's RX side as the eager model posted it: the backend fills the
    ring with a descriptor per buffer, the NIC pops one per arriving frame."""

    def __init__(self, region, buffer_size: int, depth: int, local: bool):
        self.pool = ReferenceFixedPool(region, buffer_size)
        self.ring = DescriptorRing(depth, "ref-rxq")
        self.local = local
        self.failed = False
        self.rx_dropped_down = 0
        self.rx_dropped_no_buffer = 0
        self.fill()

    def fill(self) -> None:
        """``NetBackend._fill_rx_ring`` as it was before buffers were runs."""
        while not self.ring.full:
            addr = self.pool.alloc()
            if addr is None:
                break
            self.ring.post(RxDescriptor(addr=addr, capacity=self.pool.buffer_size,
                                        local=self.local))

    def arrive(self) -> Optional[RxDescriptor]:
        """A frame reaches the NIC: the buffer it lands in, or None (dropped)."""
        if self.failed:
            self.rx_dropped_down += 1
            return None
        if self.ring.empty:
            self.rx_dropped_no_buffer += 1
            return None
        return self.ring.pop()

    def recycle(self, addr: int) -> None:
        """The buffer came back (consumed by a frontend or dropped)."""
        self.pool.free(addr)
        self.fill()

    def posted(self) -> list:
        return [desc.addr for desc in self.ring._entries]
