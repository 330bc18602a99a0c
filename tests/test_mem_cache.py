"""Tests for the non-coherent per-host cache model.

These tests pin down the exact semantics the Oasis datapath is built on:
stale reads across hosts, explicit writeback visibility, prefetch no-ops on
cached lines, and intra-host DMA snooping.
"""

import pytest

from repro.config import CACHE_LINE, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool


class TestBasics:
    def test_read_your_own_write(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"hello")
        data, _ = a.load(0, 5)
        assert data == b"hello"

    def test_dirty_data_invisible_to_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        assert small_pool.dma_read(0, 5) == bytes(5)

    def test_clwb_publishes_to_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clwb(0)
        assert small_pool.dma_read(0, 5) == b"hello"

    def test_clwb_keeps_line_cached(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clwb(0)
        assert a.contains(0)
        assert not a.is_dirty(0)

    def test_clflush_drops_line(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clflush(0)
        assert not a.contains(0)
        assert small_pool.dma_read(0, 5) == b"hello"  # flushed dirty data

    def test_load_miss_fetches_from_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"pooled")
        data, cost = a.load(0, 6)
        assert data == b"pooled"
        assert cost >= a.timings.cxl_load_ns

    def test_hit_cheaper_than_miss(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"x" * 8)
        _, miss_cost = a.load(0, 8)
        _, hit_cost = a.load(0, 8)
        assert hit_cost < miss_cost

    def test_multi_line_load(self, cache_pair, small_pool):
        a, _ = cache_pair
        data = bytes(range(200))
        small_pool.dma_write(30, data)
        out, _ = a.load(30, 200)
        assert out == data

    def test_full_line_store_skips_rfo(self, cache_pair):
        a, _ = cache_pair
        cost = a.store(0, b"z" * CACHE_LINE)
        assert cost < a.timings.cxl_load_ns  # no read-for-ownership

    def test_partial_store_miss_pays_rfo(self, cache_pair):
        a, _ = cache_pair
        cost = a.store(4, b"z")
        assert cost >= a.timings.cxl_load_ns


class TestNonCoherence:
    """The crux: no coherence across hosts (§3.2)."""

    def test_stale_read_after_remote_write(self, cache_pair, small_pool):
        a, b = cache_pair
        small_pool.dma_write(0, b"old-data")
        b.load(0, 8)                    # B caches the line
        a.store(0, b"new-data")
        a.clwb(0)                       # A publishes new data
        stale, _ = b.load(0, 8)
        assert stale == b"old-data"     # B still sees its cached copy

    def test_invalidation_unblocks_fresh_read(self, cache_pair, small_pool):
        a, b = cache_pair
        small_pool.dma_write(0, b"old-data")
        b.load(0, 8)
        a.store(0, b"new-data")
        a.clwb(0)
        b.clflush(0)
        fresh, _ = b.load(0, 8)
        assert fresh == b"new-data"

    def test_remote_dirty_data_never_visible(self, cache_pair):
        a, b = cache_pair
        a.store(0, b"private")          # never written back
        data, _ = b.load(0, 7)
        assert data == bytes(7)

    def test_prefetch_ignored_when_cached(self, cache_pair, small_pool):
        """The Figure 6 pathology: PREFETCHT0 on a cached line is a no-op."""
        a, b = cache_pair
        small_pool.dma_write(0, b"old")
        b.load(0, 3)
        a.store(0, b"new")
        a.clwb(0)
        b.prefetch_range(0, 1)
        assert b.stats.prefetches_ignored == 1 and b.stats.prefetches_issued == 0
        data, _ = b.load(0, 3)
        assert data == b"old"           # prefetch did NOT refresh the line

    def test_prefetch_fills_uncached_line(self, cache_pair, small_pool):
        _, b = cache_pair
        small_pool.dma_write(0, b"pooled")
        b.prefetch_range(0, 1)
        assert b.stats.prefetches_issued == 1 and b.contains(0)
        data, cost = b.load(0, 6)
        assert data == b"pooled"
        assert cost < b.timings.cxl_load_ns  # served from cache


class TestExplicitOps:
    def test_clwb_clean_line_is_cheap(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"x" * 8)
        a.load(0, 8)
        cost = a.clwb(0)
        assert cost == a.timings.clflush_issue_ns

    def test_fenced_clflush_costs_more(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"x")
        fenced = a.clflush(0, fenced=True)
        a.store(64, b"x")
        unfenced = a.clflush(64, fenced=False)
        assert fenced > unfenced

    def test_clwb_range_covers_all_lines(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(10, b"q" * 150)
        a.clwb_range(10, 150)
        assert small_pool.dma_read(10, 150) == b"q" * 150

    def test_clflush_range_drops_all_lines(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"q" * 150)
        a.clflush_range(0, 150)
        assert not a.contains(0)
        assert not a.contains(64)
        assert not a.contains(128)

    def test_mfence_counts(self, cache_pair):
        a, _ = cache_pair
        a.mfence()
        assert a.stats.fences == 1

    def test_drop_all_discards_dirty_data(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"lost")
        a.drop_all()
        assert small_pool.dma_read(0, 4) == bytes(4)

    def test_writeback_hook_intercepts(self, cache_pair, small_pool):
        a, _ = cache_pair
        captured = []
        a.writeback_hook = lambda idx, data, cat: captured.append((idx, data))
        a.store(0, b"hooked")
        a.clwb(0)
        assert captured and captured[0][0] == 0
        assert captured[0][1][:6] == b"hooked"
        # Pool not yet written (the hook owns the delayed apply).
        assert small_pool.dma_read(0, 6) == bytes(6)


class TestDmaSnoop:
    def test_dma_write_snoop_invalidates_local_copy(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"old")
        a.load(0, 3)
        a.snoop_dma_write(0, 3)
        small_pool.dma_write(0, b"new")
        data, _ = a.load(0, 3)
        assert data == b"new"
        assert a.stats.dma_write_snoop_hits == 1

    def test_dma_read_snoop_flushes_dirty(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"dirty")
        a.snoop_dma_read(0, 5)
        assert small_pool.dma_read(0, 5) == b"dirty"
        assert a.stats.dma_read_snoop_hits == 1

    def test_snoop_miss_costs_nothing(self, cache_pair):
        a, _ = cache_pair
        assert a.snoop_dma_read(0, 64) == 0.0
        assert a.snoop_dma_write(0, 64) == 0.0


def _snapshot(cache, pool):
    return (cache.cached_line_count, vars(cache.stats).copy(),
            {h: (dict(s.read_bytes), dict(s.write_bytes))
             for h, s in pool.link_stats.items()},
            list(pool.touched_lines()))


class TestBoundsCheckedUpFront:
    """PR 15: every path validates ``[addr, addr+size)`` before it mutates.

    At the parent the full-line no-RFO store never checked bounds (the fault
    only appeared at a later CLWB, and a load of the bogus line then *hit*),
    and an out-of-range multi-line load filled its in-range lines first.
    """

    @pytest.mark.parametrize("addr", [-64, -1, 1 << 20, (1 << 20) - 32])
    def test_out_of_range_full_line_store_faults(self, cache_pair, small_pool, addr):
        a, _ = cache_pair
        before = _snapshot(a, small_pool)
        with pytest.raises(MemoryFault):
            a.store(addr, bytes(CACHE_LINE))
        assert _snapshot(a, small_pool) == before
        assert not a.contains(addr)

    def test_out_of_range_load_fills_nothing(self, cache_pair, small_pool):
        a, _ = cache_pair
        before = _snapshot(a, small_pool)
        with pytest.raises(MemoryFault):
            a.load(small_pool.size - 128, 256)      # two lines in, two out
        assert _snapshot(a, small_pool) == before

    def test_page_crossing_store_past_the_end_writes_nothing(self, small_pool):
        # The first page is fully cached, so nothing in it needs claiming --
        # the access must still be rejected before the first byte lands.
        pool = CXLMemoryPool(CXLConfig(), size=8192)
        cache = HostCache(pool, "h")
        cache.load(4096, 4096)
        before = _snapshot(cache, pool)
        with pytest.raises(MemoryFault):
            cache.store(8000, b"x" * 400)
        assert _snapshot(cache, pool) == before
        assert not cache.is_dirty(8000)

    @pytest.mark.parametrize("op", [
        lambda c: c.clwb(-64), lambda c: c.clflush(1 << 20),
        lambda c: c.clwb_range(-1, 10), lambda c: c.clflush_range((1 << 20) - 64, 128),
        lambda c: c.prefetch_range(-1, 1), lambda c: c.snoop_dma_write((1 << 20) - 8, 16),
        lambda c: c.snoop_dma_read(-8, 16), lambda c: c.clflush_cached(-64, 128)])
    def test_every_operation_rejects_out_of_range(self, cache_pair, op):
        a, _ = cache_pair
        with pytest.raises(MemoryFault):
            op(a)

    def test_pool_size_must_be_whole_lines(self):
        with pytest.raises(MemoryFault):
            CXLMemoryPool(CXLConfig(), size=1000)


class TestNegativeSizeIsRefused:
    """A negative size is refused up front, as the pool's ``dma_read(100,
    -5)`` always did.  At the parent the cache took it for free work:
    ``load(100, -5)`` returned ``(b"", 0.0)`` and the range ops below cost
    0.0 with size -64.  (The single-line short cuts never see it: their
    guard is ``0 < size``.)"""

    @pytest.mark.parametrize("op", [
        lambda c: c.load(100, -5), lambda c: c.clwb_range(100, -64),
        lambda c: c.clflush_range(100, -64), lambda c: c.clflush_cached(100, -64),
        lambda c: c.prefetch_range(100, -64), lambda c: c.snoop_dma_read(100, -64),
        lambda c: c.snoop_dma_write(100, -64)],
        ids=["load", "clwb_range", "clflush_range", "clflush_cached",
             "prefetch_range", "snoop_dma_read", "snoop_dma_write"])
    def test_cache_range_op_refuses_a_negative_size(self, cache_pair, small_pool, op):
        a, _ = cache_pair
        a.store(0, bytes(range(128)))          # dirty lines around the range
        before = _snapshot(a, small_pool)
        with pytest.raises(MemoryFault):
            op(a)
        assert _snapshot(a, small_pool) == before

    def test_pool_refuses_a_negative_size(self, small_pool):
        small_pool.dma_write(0, b"\x01" * 256)
        with pytest.raises(MemoryFault):
            small_pool.dma_read(100, -5)
        with pytest.raises(MemoryFault):
            small_pool.discard(100, -5)
        assert small_pool.footprint() == (4, 256)


class TestZeroLengthIsFree:
    """PR 15: at the parent ``load(a, 0)`` filled a line, counted a miss and
    charged 250 ns; ``store(a, b"")`` did an RFO and dirtied the line."""

    def test_zero_length_load(self, cache_pair, small_pool):
        a, _ = cache_pair
        before = _snapshot(a, small_pool)
        assert a.load(128, 0) == (b"", 0.0)
        assert _snapshot(a, small_pool) == before

    def test_zero_length_store(self, cache_pair, small_pool):
        a, _ = cache_pair
        before = _snapshot(a, small_pool)
        assert a.store(130, b"") == 0.0
        assert _snapshot(a, small_pool) == before
        assert not a.contains(130)


class TestPageLayoutEdges:
    """Ranges that cross the seams of the page/bitmask layout (DESIGN §3h)."""

    def test_partial_first_and_last_lines_pay_rfo(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(4000, b"\x11" * 400)
        # [4090, 4300): partial line 63 of page 0, lines 0-2 of page 1 whole,
        # partial line 3 of page 1.  Exactly the two partial lines are fetched.
        t = a.timings
        cost = a.store(4090, b"\x22" * 210)
        assert cost == 5 * t.store_ns + t.cxl_load_ns + t.cxl_stream_ns
        assert small_pool.stats_for("hostA").read_bytes == {"payload": 2 * CACHE_LINE}
        assert a.stats.stores == 5 and a.stats.misses == 0
        data, _ = a.load(4032, 320)
        assert data == (b"\x11" * 58 + b"\x22" * 210 + b"\x11" * 52)

    def test_clwb_range_publishes_across_a_page_boundary(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(4000, bytes(range(200)))
        t = a.timings
        # Lines 62, 63 | 0, 1 are dirty; the range also spans clean line 2.
        assert a.clwb_range(4000, 330) == 4 * t.clwb_ns + 2 * t.clflush_issue_ns
        assert small_pool.dma_read(4000, 200) == bytes(range(200))
        assert a.stats.writebacks == 4

    def test_partial_writeback_fault_in_the_middle_of_a_range(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"\xEE" * 512)
        a.store(0, b"\x55" * 512)
        a.clwb(0)                                   # line 0 lands whole
        seen = []
        a.inject_writeback_fault(count=2, mode="partial",
                                 on_fault=lambda i, c, m: seen.append((i, m)))
        a.clwb_range(64, 448)                       # lines 1..7; 1 and 2 are torn
        assert seen == [(1, "partial"), (2, "partial")]
        assert a.armed_writeback_faults == 0
        torn = b"\x55" * 32 + b"\xEE" * 32
        assert small_pool.dma_read(0, 512) == b"\x55" * 64 + torn * 2 + b"\x55" * 320
        assert a.stats.writebacks == 8 and a.stats.writebacks_partial == 2
        assert not any(a.is_dirty(i * 64) for i in range(8))
        assert small_pool.stats_for("hostA").write_bytes == {"payload": 512}

    def test_clflush_cached_charges_only_cached_lines(self, cache_pair):
        a, _ = cache_pair
        a.load(64, 1)
        a.load(4096, 1)
        cost = a.clflush_cached(0, 8192)
        assert cost == 2 * a.timings.clflush_issue_ns
        assert a.cached_line_count == 0 and a.stats.invalidations == 2

    def test_prefetch_range_skips_cached_lines(self, cache_pair, small_pool):
        _, b = cache_pair
        b.load(4096, 1)
        cost = b.prefetch_range(4032, 192)  # lines 63 | 0 (cached), 1
        assert b.contains(4032) and b.contains(4096 + 64)
        assert cost == 3 * b.timings.prefetch_issue_ns
        assert b.stats.prefetches_issued == 2 and b.stats.prefetches_ignored == 1

    def test_read_buffer_recycled_from_a_dirty_write_buffer(self, cache_pair, small_pool):
        """The storage frontend's invalidate-before-read (§3.2.1), byte for
        byte: the region still holds a previous write's lines -- some written
        back, some still dirty -- when a device on another host DMA-writes it."""
        a, _ = cache_pair
        old = bytes((3 * i) & 0xFF for i in range(4096))
        a.store(8192 - 2048, old)                  # straddles pages 1 and 2
        a.clwb_range(8192 - 2048, 1024)            # first quarter published
        device = bytes((5 * i + 1) & 0xFF for i in range(4096))

        # Without the invalidation the instance would read its own stale bytes.
        small_pool.dma_write(8192 - 2048, device)
        assert a.load(8192 - 2048, 4096)[0] == old

        # The real sequence: recycle -> invalidate -> device writes -> read.
        cost = a.clflush_range(8192 - 2048, 4096)
        assert cost == 64 * a.timings.clflush_issue_ns
        assert a.stats.invalidations == 64
        assert a.stats.writebacks == 16 + 48       # CLWB'd quarter + flushed dirty rest
        # Only the still-dirty three quarters are written back over the device's
        # bytes; the clean quarter is dropped without touching the pool.
        assert small_pool.dma_read(8192 - 2048, 4096) == device[:1024] + old[1024:]
        small_pool.dma_write(8192 - 2048, device)  # remote device: no snoop
        data, load_cost = a.load(8192 - 2048, 4096)
        assert data == device
        t = a.timings
        assert load_cost == t.cxl_load_ns + 63 * t.cxl_stream_ns
