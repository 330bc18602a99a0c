"""Tests for the shared CXL pool model."""

import pytest

from repro.config import CACHE_LINE, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cxl import CXLMemoryPool, LinkStats, line_index, lines_spanned
from repro.obs.bindings import bind_pool
from repro.obs.metrics import MetricsRegistry


class TestAddressMath:
    def test_line_index(self):
        assert line_index(0) == 0
        assert line_index(63) == 0
        assert line_index(64) == 1

    def test_lines_spanned(self):
        assert list(lines_spanned(0, 64)) == [0]
        assert list(lines_spanned(60, 8)) == [0, 1]
        assert list(lines_spanned(0, 0)) == []
        assert list(lines_spanned(128, 1)) == [2]

    def test_lines_spanned_rejects_negative_address(self):
        with pytest.raises(MemoryFault):
            lines_spanned(-1, 64)
        with pytest.raises(MemoryFault):
            lines_spanned(-128, 0)   # addr checked before the size early-out


class TestPool:
    def test_unwritten_reads_as_zero(self, small_pool):
        assert small_pool.dma_read(0, 128) == bytes(128)

    def test_dma_roundtrip(self, small_pool):
        data = bytes(range(200)) + b"tail"
        small_pool.dma_write(100, data)
        assert small_pool.dma_read(100, len(data)) == data

    def test_unaligned_write_preserves_neighbours(self, small_pool):
        small_pool.dma_write(0, b"\xAA" * 128)
        small_pool.dma_write(60, b"\xBB" * 8)
        out = small_pool.dma_read(0, 128)
        assert out[:60] == b"\xAA" * 60
        assert out[60:68] == b"\xBB" * 8
        assert out[68:] == b"\xAA" * 60

    def test_out_of_bounds_rejected(self, small_pool):
        with pytest.raises(MemoryFault):
            small_pool.dma_read(small_pool.size - 4, 8)
        with pytest.raises(MemoryFault):
            small_pool.dma_write(-1, b"x")

    def test_discard_forgets_whole_lines_and_keeps_partial_edges(self, small_pool):
        small_pool.dma_write(4096 - 128, b"\xAA" * 256)     # lines 62..65
        small_pool.discard(4096 - 100, 200)                  # wholly: 63, 64
        assert [index for index, _ in small_pool.touched_lines()] == [62, 65]
        assert small_pool.footprint() == (2, 128)
        assert small_pool.dma_read(4096 - 128, 256) == (
            b"\xAA" * 64 + bytes(128) + b"\xAA" * 64)
        small_pool.discard(0, 8192)                          # empties both pages
        assert small_pool.footprint() == (0, 0)
        assert list(small_pool.touched_lines()) == []

    def test_line_write_size_enforced(self, small_pool):
        with pytest.raises(MemoryFault):
            small_pool.write_line(0, b"short")

    def test_read_line_and_write_line(self, small_pool):
        payload = bytes(range(64))
        small_pool.write_line(3, payload)
        assert small_pool.dma_read(3 * 64, 64) == payload

    def test_zero_size_pool_rejected(self):
        with pytest.raises(MemoryFault):
            CXLMemoryPool(CXLConfig(), size=0)

    def test_touched_lines_enumerates_writes(self, small_pool):
        small_pool.dma_write(64, b"x" * 64)
        lines = dict(small_pool.touched_lines())
        assert 1 in lines

    def test_two_frames_in_one_page_hold_only_their_lines(self, small_pool):
        """Two 2 KiB RX buffers share a page; a 256 B frame in each is 8
        written lines, and the page holds 512 B (2,304 when its data
        reached the highest line written)."""
        first = bytes(range(256))
        second = bytes(reversed(range(256)))
        small_pool.dma_write(0, first)
        small_pool.dma_write(2048, second)
        assert small_pool.footprint() == (8, 512)
        assert small_pool.dma_read(0, 256) == first
        assert small_pool.dma_read(2048, 256) == second
        assert small_pool.dma_read(256, 1792) == bytes(1792)


class TestLinkFault:
    @pytest.mark.parametrize("derate, extra_s", [
        (float("nan"), 0.0), (float("inf"), 0.0), (0.5, 0.0),
        (1.0, -1e-3), (1.0, float("nan")), (1.0, float("inf"))])
    def test_impossible_fault_is_refused_before_anything_changes(
            self, small_pool, derate, extra_s):
        base = small_pool.transfer_time_s(64)
        with pytest.raises(MemoryFault):
            small_pool.set_link_fault("h0", derate=derate, extra_s=extra_s)
        assert not small_pool.link_fault_active("h0")
        assert small_pool.transfer_time_s(64, host="h0") == base > 0


class TestAccounting:
    def test_dma_accounts_lines_by_default(self, small_pool):
        small_pool.dma_write(0, b"x" * 10, host="h0")
        stats = small_pool.stats_for("h0")
        assert stats.write_bytes["payload"] == CACHE_LINE

    def test_account_bytes_override(self, small_pool):
        small_pool.dma_write(0, b"x" * 48, host="h0", account_bytes=1500)
        assert small_pool.stats_for("h0").write_bytes["payload"] == 1500

    def test_categories_separate(self, small_pool):
        small_pool.dma_write(0, b"x" * 64, host="h0", category="message")
        small_pool.dma_read(0, 64, host="h0", category="payload")
        stats = small_pool.stats_for("h0")
        assert stats.write_bytes["message"] == 64
        assert stats.read_bytes["payload"] == 64

    def test_no_host_no_accounting(self, small_pool):
        small_pool.dma_write(0, b"x" * 64)
        assert small_pool.link_stats == {}

    def test_total_and_direction(self, small_pool):
        small_pool.dma_write(0, b"x" * 64, host="h0")
        small_pool.dma_read(0, 64, host="h0")
        stats = small_pool.stats_for("h0")
        assert stats.total("read") == 64
        assert stats.total("write") == 64
        assert stats.total() == 128

    def test_snapshot_delta(self, small_pool):
        """A window's traffic is the delta of two registry snapshots."""
        reg = MetricsRegistry()
        bind_pool(reg, small_pool)
        small_pool.dma_write(0, b"x" * 64, host="h0")
        snap = reg.snapshot()
        small_pool.dma_write(64, b"y" * 64, host="h0")
        delta = reg.snapshot().delta_since(snap)
        assert delta.get("cxl_link_bytes", host="h0", direction="write",
                         category="payload") == 64

    def test_by_category_merges_directions(self, small_pool):
        small_pool.dma_write(0, b"x" * 64, host="h0", category="message")
        small_pool.dma_read(0, 64, host="h0", category="message")
        assert small_pool.stats_for("h0").by_category()["message"] == 128


class TestTransferTiming:
    def test_transfer_time_scales_with_bytes(self, small_pool):
        t1 = small_pool.transfer_time_s(1500)
        t2 = small_pool.transfer_time_s(3000)
        assert t2 == pytest.approx(2 * t1)

    def test_x8_link_transfer_time(self, small_pool):
        # 32 GB/s * 0.92 efficiency: 1500 B in ~51 ns.
        t = small_pool.transfer_time_s(1500)
        assert 30e-9 < t < 80e-9
