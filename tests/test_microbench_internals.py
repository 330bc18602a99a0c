"""Tests for the Figure 6 microbench internals and timing hooks."""

import pytest

from repro.channel.microbench import ChannelMicrobench, _PipelineTiming
from repro.channel.protocol import TimingHooks


class TestPipelineTiming:
    def test_prefetch_arrival_tracked(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.clock_ns = 1000.0
        timing.on_prefetch_issued(7)
        assert timing.ready[7] == 1250.0

    def test_hit_before_arrival_stalls(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.clock_ns = 1000.0
        timing.on_prefetch_issued(7)
        timing.clock_ns = 1100.0
        assert timing.hit_stall_ns(7) == pytest.approx(150.0)

    def test_hit_after_arrival_free(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.on_prefetch_issued(7)
        timing.clock_ns = 500.0
        assert timing.hit_stall_ns(7) == 0.0

    def test_stall_consumed_once(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.on_prefetch_issued(7)
        timing.hit_stall_ns(7)
        assert timing.hit_stall_ns(7) == 0.0   # entry removed

    def test_invalidate_cancels_inflight(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.on_prefetch_issued(7)
        timing.on_invalidate(7)
        assert timing.hit_stall_ns(7) == 0.0

    def test_demand_fill_clears_entry(self):
        timing = _PipelineTiming(cxl_load_ns=250.0)
        timing.on_prefetch_issued(7)
        timing.on_demand_fill(7)
        assert 7 not in timing.ready

    def test_default_hooks_are_no_ops(self):
        hooks = TimingHooks()
        hooks.on_prefetch_issued(1)
        hooks.on_demand_fill(1)
        hooks.on_invalidate(1)
        assert hooks.hit_stall_ns(1) == 0.0


class TestMicrobenchHarness:
    def test_64_byte_messages_supported(self):
        result = ChannelMicrobench("invalidate-prefetched", slots=512,
                                   message_size=64).run(2000)
        assert result.messages > 0
        assert result.achieved_mops > 0

    def test_counter_batch_override(self):
        bench = ChannelMicrobench("invalidate-prefetched", slots=512,
                                  counter_batch=8)
        bench.run(2000)
        assert bench.receiver.counters.counter_updates > 2000 // 256

    def test_warmup_fraction_skips_messages(self):
        bench = ChannelMicrobench("bypass-cache", slots=512)
        full = bench.run(2000, warmup_fraction=0.0)
        bench2 = ChannelMicrobench("bypass-cache", slots=512)
        skipped = bench2.run(2000, warmup_fraction=0.5)
        assert skipped.messages == pytest.approx(full.messages / 2, abs=2)

    def test_posted_writes_are_delayed(self):
        """The sender's CLWB lands in the pool only after the flight time;
        until then the ring line is unchanged (microbench-only behaviour)."""
        bench = ChannelMicrobench("invalidate-prefetched", slots=512)
        bench._actor_now = 0.0
        bench.sender.cache.store(bench.layout.region.base, b"\x01" * 16)
        bench.sender.cache.clwb(bench.layout.region.base)
        assert bench.pool.dma_read(bench.layout.region.base, 64) == bytes(64)
        bench._apply_pending(1e9)
        assert bench.pool.dma_read(bench.layout.region.base, 16) == b"\x01" * 16
