"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.designs import make_receiver
from repro.channel.protocol import ChannelSender
from repro.channel.ring import RingLayout
from repro.core.raft.log import LogEntry, RaftLog
from repro.errors import MemoryFault
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import FixedPool, Region, RegionAllocator, align_up
from repro.net.packet import Frame

from .reference_ring import decode_slot, encode_slot, expected_epoch

slow = settings(max_examples=50,
                suppress_health_check=[HealthCheck.too_slow])


class TestRegionAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1,
                    max_size=40))
    @slow
    def test_no_overlap_and_conservation(self, sizes):
        alloc = RegionAllocator(Region(0, 1 << 20))
        total = alloc.free_bytes
        regions = []
        for size in sizes:
            regions.append(alloc.alloc(size))
        spans = sorted((r.base, r.base + align_up(r.size, 64)) for r in regions)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0, "allocations overlap"
        assert alloc.free_bytes + alloc.allocated_bytes == total
        for r in regions:
            alloc.free(r)
        assert alloc.free_bytes == total

    @given(st.lists(st.tuples(st.integers(1, 1024), st.booleans()),
                    min_size=1, max_size=60))
    @slow
    def test_interleaved_alloc_free_never_corrupts(self, ops):
        alloc = RegionAllocator(Region(0, 1 << 18))
        total = alloc.free_bytes
        live = []
        for size, do_free in ops:
            if do_free and live:
                alloc.free(live.pop())
            else:
                try:
                    live.append(alloc.alloc(size))
                except MemoryFault:
                    pass
        for r in live:
            alloc.free(r)
        assert alloc.free_bytes == total


class TestFixedPoolProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @slow
    def test_capacity_invariant(self, ops):
        pool = FixedPool(Region(0, 16384), 2048)
        live = []
        for do_alloc in ops:
            if do_alloc:
                addr = pool.alloc()
                if addr is not None:
                    live.append(addr)
            elif live:
                pool.free(live.pop())
            assert pool.available + pool.outstanding == pool.capacity
            assert len(set(live)) == len(live)   # no duplicate handouts


class TestEpochCodecProperties:
    @given(st.binary(min_size=16, max_size=16), st.integers(0, 1))
    @slow
    def test_roundtrip_any_payload(self, payload, epoch):
        payload = bytes([payload[0] & 0x7F]) + payload[1:]
        stamped = encode_slot(payload, epoch)
        got, got_epoch = decode_slot(stamped)
        assert got == payload
        assert got_epoch == epoch

    @given(st.integers(0, 1 << 20))
    @slow
    def test_expected_epoch_toggles_exactly_per_lap(self, seq):
        layout = RingLayout(
            Region(0, RingLayout.required_bytes(64, 16)), 64, 16)
        assert expected_epoch(layout, seq) != expected_epoch(layout, seq + 64)
        assert expected_epoch(layout, seq) == expected_epoch(layout, seq + 128)


class TestChannelFifoProperty:
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=30),
           st.sampled_from(["bypass-cache", "naive-prefetch",
                            "invalidate-consumed", "invalidate-prefetched"]))
    @slow
    def test_random_batches_preserve_fifo(self, batch_sizes, design):
        pool = CXLMemoryPool(size=1 << 20)
        layout = RingLayout(
            Region(0, RingLayout.required_bytes(64, 16)), 64, 16)
        sender = ChannelSender(layout, HostCache(pool, "s"))
        receiver = make_receiver(design, layout, HostCache(pool, "r"),
                                 counter_batch=8)
        sent = []
        received = []
        seq = 0
        for batch in batch_sizes:
            for _ in range(batch):
                payload = bytes([1]) + seq.to_bytes(8, "little") + bytes(7)
                ok, _ = sender.try_send(payload)
                if ok:
                    sent.append(payload)
                    seq += 1
            sender.flush()
            for _ in range(200):
                item, _ = receiver.poll()
                if item is None:
                    if len(received) == len(sent):
                        break
                else:
                    received.append(item)
        assert received == sent


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000), st.binary(min_size=1,
                                                              max_size=80)),
                    min_size=1, max_size=30))
    @slow
    def test_read_your_writes_within_host(self, writes):
        pool = CXLMemoryPool(size=1 << 20)
        cache = HostCache(pool, "h")
        shadow = bytearray(2048)
        for addr, data in writes:
            cache.store(addr, data)
            shadow[addr:addr + len(data)] = data
        got, _ = cache.load(0, 2048)
        assert got == bytes(shadow)

    @given(st.lists(st.tuples(st.integers(0, 15), st.binary(min_size=64,
                                                            max_size=64)),
                    min_size=1, max_size=20))
    @slow
    def test_clwb_makes_pool_match_cache(self, line_writes):
        pool = CXLMemoryPool(size=1 << 20)
        cache = HostCache(pool, "h")
        for line, data in line_writes:
            cache.store(line * 64, data)
            cache.clwb(line * 64)
        for line, _ in line_writes:
            cached, _ = cache.load(line * 64, 64)
            assert pool.dma_read(line * 64, 64) == cached


class TestFrameProperties:
    @given(
        st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 48) - 1),
        st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
        st.integers(0, 255), st.integers(0, 65535), st.integers(0, 65535),
        st.integers(0, (1 << 32) - 1), st.binary(max_size=200),
    )
    @slow
    def test_pack_unpack_roundtrip(self, dst, src, sip, dip, proto, sport,
                                   dport, seq, payload):
        frame = Frame(dst_mac=dst, src_mac=src, src_ip=sip, dst_ip=dip,
                      proto=proto, src_port=sport, dst_port=dport, seq=seq,
                      payload=payload)
        out = Frame.unpack(frame.pack())
        assert (out.dst_mac, out.src_mac, out.src_ip, out.dst_ip) == \
            (dst, src, sip, dip)
        assert (out.proto, out.src_port, out.dst_port, out.seq) == \
            (proto, sport, dport, seq)
        assert out.payload == payload


class TestRaftLogProperties:
    # Every property holds over a compacted prefix too: the log starts at a
    # drawn (base index, term 1) and is read from ``first_index``.
    bases = st.integers(0, 40)

    @staticmethod
    def _entries(log):
        return [log.entry(i) for i in range(log.first_index, log.last_index + 1)]

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 100)),
                    min_size=1, max_size=30), bases)
    @slow
    def test_merge_idempotent(self, raw_entries, base):
        entries = [LogEntry(t, c) for t, c in
                   sorted(raw_entries, key=lambda e: e[0])]
        log1 = RaftLog(base, 1)
        log1.merge(base, entries)
        snapshot = self._entries(log1)
        assert snapshot == entries
        log1.merge(base, entries)
        assert self._entries(log1) == snapshot
        assert log1.last_index == base + len(entries)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=20), bases)
    @slow
    def test_terms_monotonic_after_sorted_merge(self, terms, base):
        entries = [LogEntry(t, i) for i, t in enumerate(sorted(terms))]
        log = RaftLog(base, 1)
        log.merge(base, entries)
        observed = [log.term_at(i)
                    for i in range(log.base_index, log.last_index + 1)]
        assert observed == sorted(observed)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=20), bases,
           st.data())
    @slow
    def test_compaction_changes_no_answer_above_the_cut(self, terms, base, data):
        log = RaftLog(base, 1)
        log.merge(base, [LogEntry(t, i) for i, t in enumerate(sorted(terms))])
        cut = data.draw(st.integers(log.first_index, log.last_index))
        last = log.last_index, log.last_term
        above = {i: log.term_at(i) for i in range(cut, log.last_index + 1)}
        kept = [log.entry(i) for i in range(cut + 1, log.last_index + 1)]
        log.compact(cut)
        assert (log.last_index, log.last_term) == last
        assert {i: log.term_at(i) for i in above} == above
        assert self._entries(log) == kept
        assert all(log.matches(i, t) for i, t in above.items())
        with pytest.raises(IndexError):
            log.term_at(cut - 1)


