"""Tests for the Figure 6 microbench internals: the receiver's timed cache,
the posted-write landings, and the kernel harness against the old
interleave loop (``tests/reference_microbench.py``)."""

import re
from pathlib import Path

import pytest

from repro.channel.microbench import ChannelMicrobench, _TimedCache
from repro.config import CXLConfig
from repro.mem.cxl import CXLMemoryPool
from repro.sim.core import Simulator

from .reference_microbench import ReferenceLoop

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
T = CXLConfig().timings
LINE = 7 * 64          # a line of the pool, by address


def timed_cache():
    sim = Simulator()
    pool = CXLMemoryPool(CXLConfig(), size=64 * 64)
    return sim, _TimedCache(pool, "receiver", sim)


def prefetched_at(now):
    sim, cache = timed_cache()
    sim.now = now
    cache.prefetch_range(LINE, 64)
    return sim, cache


class TestPipelineTiming:
    """The receiver's ``_TimedCache``: prefetch arrival, hit stall, cancel."""

    def test_prefetch_arrival_tracked(self):
        _sim, cache = prefetched_at(1000.0)
        assert cache.ready == {LINE >> 6: 1000.0 + T.cxl_load_ns}

    def test_hit_before_arrival_stalls(self):
        sim, cache = prefetched_at(1000.0)
        sim.now = 1100.0
        _data, cost = cache.load(LINE, 16)
        assert cost == T.cache_hit_ns + (T.cxl_load_ns - 100.0)

    def test_hit_after_arrival_free(self):
        sim, cache = prefetched_at(0.0)
        sim.now = 500.0
        assert cache.load(LINE, 16)[1] == T.cache_hit_ns

    def test_stall_consumed_once(self):
        sim, cache = prefetched_at(1000.0)
        sim.now = 1100.0
        cache.load(LINE, 16)
        assert cache.ready == {}
        assert cache.load(LINE, 16)[1] == T.cache_hit_ns

    def test_invalidate_cancels_inflight(self):
        """Both invalidations the receivers issue cancel the arrival: a
        re-prefetch later is timed from its own issue."""
        for drop in (lambda c: c.clflush(LINE, True),
                     lambda c: c.clflush_cached(LINE, 64)):
            sim, cache = prefetched_at(1000.0)
            drop(cache)
            assert cache.ready == {}
            sim.now = 1100.0
            assert cache.load(LINE, 16)[1] == T.cxl_load_ns    # demand miss

    def test_entries_follow_the_present_masks(self):
        """A range prefetch times only the lines it fetched (a held line is
        ignored by the hardware); a range flush cancels only the lines it
        dropped, so an entry for a line that left some other way stays."""
        sim, cache = timed_cache()
        cache.load(LINE + 64, 16)                   # line 8 held
        sim.now = 1000.0
        cache.prefetch_range(LINE, 4 * 64)          # lines 7..10
        arrival = 1000.0 + T.cxl_load_ns
        assert cache.ready == {7: arrival, 9: arrival, 10: arrival}
        cache.drop_all()
        sim.now = 1200.0
        cache.prefetch_range(LINE + 2 * 64, 64)     # line 9 again
        cache.clflush_cached(LINE, 4 * 64)          # drops line 9 only
        assert cache.ready == {7: arrival, 10: arrival}

    def test_demand_fill_clears_entry(self):
        """A line dropped behind the cache's back (``drop_all``) is
        re-fetched on demand: no stall on top of the miss, entry gone."""
        sim, cache = prefetched_at(1000.0)
        cache.drop_all()
        sim.now = 1100.0
        assert cache.load(LINE, 16)[1] == T.cxl_load_ns
        assert cache.ready == {}


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
        until then the ring line is unchanged."""
        bench = ChannelMicrobench("invalidate-prefetched", slots=512)
        base = bench.layout.region.base
        bench.sender.cache.store(base, b"\x01" * 16)
        bench.sender.cache.clwb(base)
        assert bench.pool.dma_read(base, 64) == bytes(64)
        bench.sim.run(until=T.cxl_write_ns - 1.0)
        assert bench.pool.dma_read(base, 64) == bytes(64)
        bench.sim.run(until=T.cxl_write_ns)
        assert bench.pool.dma_read(base, 16) == b"\x01" * 16

    def test_the_run_leaves_nothing_queued(self):
        bench = ChannelMicrobench("invalidate-prefetched", slots=512)
        bench.run(2000, interval_ns=100.0)
        assert bench.sim.pending == 0


class _Recording:
    """Stands in for a receiver and keeps every payload it delivers."""

    def __init__(self, receiver):
        self.receiver = receiver
        self.delivered = []

    @property
    def next_seq(self):
        return self.receiver.next_seq

    def poll(self):
        payload, cost = self.receiver.poll()
        if payload is not None:
            self.delivered.append(payload)
        return payload, cost


DESIGNS = ("bypass-cache", "naive-prefetch", "invalidate-consumed",
           "invalidate-prefetched")
LOADS = (0.5, 4.0, 14.0, 50.0, None)       # MOp/s; None = saturation


@pytest.mark.parametrize("messages", (2_000, 13_200))
@pytest.mark.parametrize("design", DESIGNS)
def test_kernel_harness_matches_the_interleave_loop(design, messages):
    """Every point of the kernel harness equals the old loop's by ``repr``
    and delivers the same payloads in the same order: a landing sorts
    before same-instant steps, as the loop applied it before either
    actor's step, and sender/receiver ties touch no shared state."""
    for load in LOADS:
        interval = None if load is None else 1e3 / load
        runs = []
        for drive in (lambda b: b.run, lambda b: ReferenceLoop(b).run):
            bench = ChannelMicrobench(design)
            bench.receiver = recorder = _Recording(bench.receiver)
            runs.append((repr(drive(bench)(messages, interval_ns=interval)),
                         recorder.delivered))
        (kernel, k_order), (loop, l_order) = runs
        assert len(k_order) == messages
        assert k_order == l_order, (design, load)
        assert kernel == loop, (design, load)


FORBIDDEN = ("TimingHooks", "_timing", "timing is", "_apply_pending",
             "_actor_now", "_PipelineTiming")


def test_one_timing_model_in_the_source():
    """The receivers have one code path and the harness one clock: the
    hook interface, its per-receiver slots and forks, and the second
    clock's pending-write list stay deleted."""
    pattern = re.compile(r"\b(?:%s)\b" % "|".join(map(re.escape, FORBIDDEN)))
    found = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
             for path in sorted(SRC.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []
