"""Differential oracle: the page/bitmask memory model against the per-line one.

``repro.mem`` (4 KiB pages, ``present``/``dirty`` masks, DESIGN §3h) and
``tests/reference_mem.py`` (the per-line implementation it replaced) are driven
in lock-step with random interleavings of every cache, DMA, snoop and pool
``discard`` operation from two hosts -- unaligned, sub-line, page-straddling,
pool-end, negative-size and out-of-range ranges; with and without a writeback
hook and an armed writeback fault.  After every step both must agree on the
returned bytes, the costs, ``CacheStats``, the per-category link bytes, which
lines are cached and dirty, and the pool contents and footprint -- and every
pool page must hold its written lines and nothing more.

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly job).
"""

import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.config import CACHE_LINE, CacheTimings, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import FixedPool, Region

from .reference_mem import ReferenceCache, ReferenceFixedPool, ReferencePool

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "40"))

# Three pages and two lines: the last page is partial, so "end of pool" and
# "end of page" are different places.
POOL_BYTES = 3 * 4096 + 2 * CACHE_LINE
POOL_LINES = POOL_BYTES // CACHE_LINE
HOSTS = ("a", "b")
CATEGORIES = ("payload", "message", "counter")

# Addresses cluster where the representation has seams: line and page
# boundaries, the partial last page, and just outside the pool.
_EDGES = sorted({base + delta
                 for base in (0, 64, 4096, 8192, 12288, POOL_BYTES)
                 for delta in (-130, -65, -64, -1, 0, 1, 63, 64)})
addresses = st.one_of(st.sampled_from(_EDGES),
                      st.integers(-200, POOL_BYTES + 200))
sizes = st.one_of(st.sampled_from((0, 1, 8, 16, 63, 64, 65, 128, 512, 4096, 4097, 8192,
                                   -1, -64)),
                  st.integers(0, 9000))
hosts = st.sampled_from(HOSTS)
categories = st.sampled_from(CATEGORIES)

# Non-dyadic timings: n * t and the repeated sum may then differ in the last bit.
odd_timings = st.builds(
    CacheTimings,
    cxl_load_ns=st.floats(110.0, 400.0), cxl_stream_ns=st.floats(0.1, 9.0),
    cache_hit_ns=st.floats(0.1, 3.0), clflush_ns=st.floats(1.0, 60.0),
    clflush_issue_ns=st.floats(0.1, 9.0), clwb_ns=st.floats(1.0, 40.0),
    prefetch_issue_ns=st.floats(0.1, 3.0), store_ns=st.floats(0.1, 5.0))


class MemoryModels(RuleBasedStateMachine):
    @initialize(timings=st.none() | odd_timings, hooked=st.booleans())
    def build(self, timings, hooked):
        self.exact = timings is None
        config = CXLConfig() if timings is None else CXLConfig(timings=timings)
        self.pools = (CXLMemoryPool(config, size=POOL_BYTES),
                      ReferencePool(config, size=POOL_BYTES))
        self.caches = {
            host: (HostCache(self.pools[0], host),
                   ReferenceCache(self.pools[1], host))
            for host in HOSTS}
        # A hook owns the posted write until it "lands"; both models' hooks
        # must have been handed the same lines in the same order.
        self.in_flight = ([], [])
        self.fault_log = ([], [])
        if hooked:
            for pair in self.caches.values():
                for side, cache in enumerate(pair):
                    cache.writeback_hook = (
                        lambda index, data, category, side=side:
                        self.in_flight[side].append((index, data, category)))

    # -- running one operation on both models -------------------------------

    def both(self, host, op, *args):
        results = []
        for cache in self.caches[host]:
            try:
                results.append(getattr(cache, op)(*args))
            except MemoryFault:
                results.append(MemoryFault)
        self.same(results[0], results[1], (host, op, args))

    def same(self, new, ref, what):
        if isinstance(new, tuple):
            assert isinstance(ref, tuple) and len(new) == len(ref), what
            for n, r in zip(new, ref):
                self.same(n, r, what)
        elif isinstance(new, float) and not self.exact:
            assert math.isclose(new, ref, rel_tol=1e-12, abs_tol=0.0), (what, new, ref)
        else:
            assert new == ref and type(new) is type(ref), (what, new, ref)

    @rule(host=hosts, addr=addresses, size=sizes, category=categories)
    def load(self, host, addr, size, category):
        self.both(host, "load", addr, size, category)

    @rule(host=hosts, addr=addresses, size=sizes, fill=st.integers(1, 255),
          category=categories)
    def store(self, host, addr, size, fill, category):
        data = bytes((fill + i) & 0xFF for i in range(size))
        self.both(host, "store", addr, data, category)

    @rule(host=hosts, addr=addresses, category=categories)
    def clwb(self, host, addr, category):
        self.both(host, "clwb", addr, category)

    @rule(host=hosts, addr=addresses, size=sizes, category=categories)
    def clwb_range(self, host, addr, size, category):
        self.both(host, "clwb_range", addr, size, category)

    @rule(host=hosts, addr=addresses, fenced=st.booleans(), category=categories)
    def clflush(self, host, addr, fenced, category):
        self.both(host, "clflush", addr, fenced, category)

    @rule(host=hosts, addr=addresses, size=sizes, fenced=st.booleans(),
          category=categories)
    def clflush_range(self, host, addr, size, fenced, category):
        self.both(host, "clflush_range", addr, size, fenced, category)

    @rule(host=hosts, addr=addresses, size=sizes, category=categories)
    def clflush_cached(self, host, addr, size, category):
        self.both(host, "clflush_cached", addr, size, category)

    @rule(host=hosts, addr=addresses, category=categories)
    def prefetch(self, host, addr, category):
        # One line: prefetch_range's short cut (the streaming receiver's case).
        self.both(host, "prefetch_range", addr, 1, category)

    @rule(host=hosts, addr=addresses, size=sizes, category=categories)
    def prefetch_range(self, host, addr, size, category):
        self.both(host, "prefetch_range", addr, size, category)

    @rule(host=hosts)
    def mfence(self, host):
        self.both(host, "mfence")

    @rule(host=hosts)
    def drop_all(self, host):
        self.both(host, "drop_all")

    @rule(host=hosts, addr=addresses, size=sizes)
    def snoop_dma_read(self, host, addr, size):
        self.both(host, "snoop_dma_read", addr, size)

    @rule(host=hosts, addr=addresses, size=sizes)
    def snoop_dma_write(self, host, addr, size):
        self.both(host, "snoop_dma_write", addr, size)

    @rule(host=st.none() | hosts, addr=addresses, size=sizes, fill=st.integers(1, 255),
          account=st.none() | st.integers(0, 2000))
    def dma_write(self, host, addr, size, fill, account):
        data = bytes((fill * 3 + i) & 0xFF for i in range(size))
        outcomes = []
        for pool in self.pools:
            try:
                outcomes.append(pool.dma_write(addr, data, host, "payload", account))
            except MemoryFault:
                outcomes.append(MemoryFault)
        assert outcomes[0] == outcomes[1]

    @rule(host=st.none() | hosts, addr=addresses, size=sizes,
          account=st.none() | st.integers(0, 2000))
    def dma_read(self, host, addr, size, account):
        outcomes = []
        for pool in self.pools:
            try:
                outcomes.append(pool.dma_read(addr, size, host, "payload", account))
            except MemoryFault:
                outcomes.append(MemoryFault)
        assert outcomes[0] == outcomes[1]

    @rule(addr=addresses, size=sizes)
    def discard(self, addr, size):
        # A recycled buffer: the lines wholly inside leave the pool, a
        # partial edge line (a neighbour's bytes) stays.
        outcomes = []
        for pool in self.pools:
            try:
                outcomes.append(pool.discard(addr, size))
            except MemoryFault:
                outcomes.append(MemoryFault)
        assert outcomes[0] == outcomes[1]

    @rule(host=hosts, count=st.integers(1, 3), mode=st.sampled_from(("drop", "partial")),
          category=st.none() | categories)
    def arm_writeback_fault(self, host, count, mode, category):
        for side, cache in enumerate(self.caches[host]):
            cache.inject_writeback_fault(
                count, mode, category,
                on_fault=lambda *event, side=side: self.fault_log[side].append(event))

    @rule()
    def land_posted_writes(self):
        for pool, posted in zip(self.pools, self.in_flight):
            for index, data, _category in posted:
                pool.write_line(index, data)
            posted.clear()

    # -- after every step ---------------------------------------------------

    @invariant()
    def models_agree(self):
        assert self.in_flight[0] == self.in_flight[1]
        assert self.fault_log[0] == self.fault_log[1]
        new_pool, ref_pool = self.pools
        assert list(new_pool.touched_lines()) == list(ref_pool.touched_lines())
        assert new_pool.footprint() == ref_pool.footprint()
        # Memory is O(lines held): a pool page holds its written lines only,
        # and a page discard emptied is gone.
        for page in new_pool._pages.values():
            assert page.present
            assert len(page.data) == CACHE_LINE * page.present.bit_count()
        assert sorted(new_pool.link_stats) == sorted(ref_pool.link_stats)
        for host, stats in new_pool.link_stats.items():
            assert stats.read_bytes == ref_pool.link_stats[host].read_bytes, host
            assert stats.write_bytes == ref_pool.link_stats[host].write_bytes, host
        for host, (new, ref) in self.caches.items():
            assert new.stats == ref.stats, host
            assert new.cached_line_count == ref.cached_line_count, host
            assert new.armed_writeback_faults == ref.armed_writeback_faults, host
            for index in range(POOL_LINES):
                addr = index * CACHE_LINE
                assert new.contains(addr) == ref.contains(addr), (host, index)
                assert new.is_dirty(addr) == ref.is_dirty(addr), (host, index)


MemoryModels.TestCase.settings = settings(
    max_examples=MAX_EXAMPLES, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
TestMemoryModels = MemoryModels.TestCase


class TestPageRunHelpers:
    """The two bit tricks everything else leans on, against brute force."""

    @pytest.mark.parametrize("mask", [
        0b1, 0b1011, 1 << 63, (1 << 64) - 1, 0b0110_1100, (1 << 63) | 1,
        0xF0F0_F0F0_0F0F_0F0F, 0x8000_0000_0000_0001 | (0xFF << 20)])
    def test_copy_lines_and_mask_bits(self, mask):
        """``copy_lines`` unpacks the lines ``mask`` of a page whose
        ``present`` lines are packed in line order: from a dense page (all
        present), and from a packed one holding every other line."""
        from repro.mem.cxl import copy_lines, mask_bits
        bits = [i for i in range(64) if mask >> i & 1]
        assert list(mask_bits(mask)) == bits
        dense = bytes((i // 64 + 1) for i in range(4096))
        evens = sum(1 << i for i in range(0, 64, 2))
        packed = b"".join(dense[i * 64:(i + 1) * 64] for i in range(0, 64, 2))
        for src, present in ((dense, (1 << 64) - 1), (packed, evens)):
            dst = bytearray(b"\xEE" * 4096)
            copy_lines(dst, src, mask, present)
            for i in range(64):
                line = dense[i * 64:(i + 1) * 64] if present >> i & 1 else bytes(64)
                want = line if i in bits else b"\xEE" * 64
                assert dst[i * 64:(i + 1) * 64] == want


class TestFixedPoolAgainstEagerList:
    """The bump-index pool hands out the eager free stack's address sequence."""

    # alloc, or free of: the k-th oldest live buffer, an address never handed
    # out (unknown buffer), or the one freed last (double free).
    steps = st.lists(st.one_of(
        st.just(("alloc", 0)),
        st.tuples(st.sampled_from(("free", "free-unknown", "free-again")),
                  st.integers(0, 40))), max_size=80)

    @given(steps=steps, base=st.sampled_from((0, 64, 100)),
           buffers=st.integers(1, 12))
    @settings(max_examples=MAX_EXAMPLES * 5, deadline=None)
    def test_same_addresses_counts_and_faults(self, steps, base, buffers):
        region = Region(base, buffers * 128 + 90)
        pools = FixedPool(region, 128), ReferenceFixedPool(region, 128)
        assert pools[0].capacity == pools[1].capacity
        live, last_freed = [], None
        for op, k in steps:
            if op == "alloc":
                addrs = [pool.alloc() for pool in pools]
                assert addrs[0] == addrs[1]
                # exhausted exactly when every buffer is out
                assert (addrs[0] is None) == (len(live) == pools[0].capacity)
                if addrs[0] is not None:
                    live.append(addrs[0])
            else:
                if op == "free" and live:
                    addr = last_freed = live.pop(k % len(live))
                elif op == "free-again" and last_freed not in (None, *live):
                    addr = last_freed
                else:
                    addr = region.end + 64 * k
                faults = []
                for pool in pools:
                    try:
                        pool.free(addr)
                        faults.append(None)
                    except MemoryFault as exc:
                        faults.append(str(exc))
                assert faults[0] == faults[1]
            assert pools[0].available == pools[1].available
            assert pools[0].outstanding == pools[1].outstanding == len(live)


def test_mem_privates_stay_inside_mem():
    """Nothing outside ``src/repro/mem`` (and the oracle) reaches into a cache
    or pool: the next representation change stays a one-layer change."""
    import re
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    private = re.compile(r"(cache|pool)\w*\._[a-z]")
    files = [p for top in ("src", "tests", "benchmarks", "examples", "perf", "tools")
             for p in (root / top).rglob("*.py")
             if "repro/mem/" not in p.as_posix() and p.name != "reference_mem.py"
             and p != Path(__file__).resolve()]
    assert [f"{p}:{n}" for p in files
            for n, line in enumerate(p.read_text().splitlines(), 1) if private.search(line)] == []


def test_pool_pages_stay_packed():
    """The padded pool layout stays deleted: ``CXLMemoryPool`` neither
    extends a page to a line's offset (``Page.reach``) nor pads a short read
    (``ljust``) -- a pool page holds its written lines and nothing else."""
    import inspect
    source = inspect.getsource(CXLMemoryPool)
    assert ".reach(" not in source and "ljust(" not in source
