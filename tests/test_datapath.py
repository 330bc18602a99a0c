"""Tests for shared regions and the DES channel adapters."""

import pytest

from repro.config import OasisConfig
from repro.core.datapath import ChannelPair, DoorbellChannel, LocalChannel, SharedRegions
from repro.errors import ChannelFullError, MemoryFault
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.sim.core import USEC


@pytest.fixture
def regions():
    return SharedRegions(CXLMemoryPool(size=64 << 20))


def payload(i):
    return bytes([1]) + i.to_bytes(8, "little") + bytes(7)


class TestSharedRegions:
    def test_alloc_ring_carves_distinct_regions(self, regions):
        r1 = regions.alloc_ring(16, "a", slots=64)
        r2 = regions.alloc_ring(16, "b", slots=64)
        assert r1.region.end <= r2.region.base or r2.region.end <= r1.region.base

    def test_free_returns_space(self, regions):
        before = regions.free_bytes
        region = regions.alloc(1 << 20, "tmp")
        regions.free(region)
        assert regions.free_bytes == before

    def test_exhaustion_raises(self):
        small = SharedRegions(CXLMemoryPool(size=1 << 16))
        with pytest.raises(MemoryFault):
            small.alloc(1 << 20, "too-big")


class TestDoorbellChannel:
    def _channel(self, sim, regions, hop_us=1.0):
        pool = regions.pool
        layout = regions.alloc_ring(16, "ch", slots=64)
        return DoorbellChannel(
            sim, layout,
            HostCache(pool, "sender-host"),
            HostCache(pool, "receiver-host"),
            "ch", hop_us=hop_us,
        )

    def test_send_wakes_bound_signal_after_hop(self, sim, regions):
        channel = self._channel(sim, regions, hop_us=2.0)
        wakes = []
        channel.bind(lambda: wakes.append(sim.now))
        sim.schedule(0.0, channel.send_many, [payload(1)])
        sim.run(until=10 * USEC)
        assert wakes and wakes[0] == pytest.approx(2 * USEC)

    def test_drain_returns_messages_in_order(self, sim, regions):
        channel = self._channel(sim, regions)
        channel.send_many([payload(i) for i in range(10)])
        sim.run(until=sim.now + 10 * USEC)   # let the messages become visible
        got, cost = channel.drain()
        assert got == [payload(i) for i in range(10)]
        assert cost > 0

    def test_messages_invisible_before_hop(self, sim, regions):
        """A drain before the hop elapses must see nothing -- later messages
        cannot ride an earlier doorbell."""
        channel = self._channel(sim, regions, hop_us=5.0)
        channel.send_many([payload(1)])
        got, _ = channel.drain()
        assert got == []
        sim.run(until=sim.now + 6 * USEC)
        got, _ = channel.drain()
        assert got == [payload(1)]

    def test_notify_coalesced_until_fired(self, sim, regions):
        channel = self._channel(sim, regions, hop_us=5.0)
        wakes = []
        channel.bind(lambda: wakes.append(sim.now))
        for i in range(5):
            sim.schedule(i * 0.1 * USEC, channel.send_many, [payload(i)])
        sim.run(until=100 * USEC)
        assert len(wakes) == 1       # one doorbell for the burst

    def test_send_many_full_raises(self, sim, regions):
        pool = regions.pool
        layout = regions.alloc_ring(16, "tiny", slots=16)
        channel = DoorbellChannel(sim, layout, HostCache(pool, "s"),
                                  HostCache(pool, "r"), "tiny")
        with pytest.raises(ChannelFullError):
            channel.send_many([payload(i) for i in range(17)])

    def test_drain_publishes_counter_when_idle(self, sim, regions):
        channel = self._channel(sim, regions)
        channel.send_many([payload(i) for i in range(4)])
        sim.run(until=sim.now + 10 * USEC)
        channel.drain()
        channel.drain()   # idle drain: forces the consumed-counter publish
        assert channel.receiver.counters.counter_updates >= 1


class TestLocalChannel:
    def test_roundtrip(self, sim):
        channel = LocalChannel(sim, "ipc")
        channel.send_many([b"a"])
        channel.send_many([b"b", b"c"])
        got, _ = channel.drain()
        assert got == [b"a", b"b", b"c"]

    def test_doorbell(self, sim):
        channel = LocalChannel(sim, "ipc", hop_us=0.5)
        wakes = []
        channel.bind(lambda: wakes.append(sim.now))
        sim.schedule(0.0, channel.send_many, [b"x"])
        sim.run(until=10 * USEC)
        assert wakes and wakes[0] == pytest.approx(0.5 * USEC)


class TestChannelPair:
    def test_over_cxl_directions_are_independent(self, sim, regions):
        pool = regions.pool
        pair = ChannelPair.over_cxl(sim, regions, HostCache(pool, "a"),
                                    HostCache(pool, "b"), "p", slots=64)
        pair.a_to_b.send_many([payload(1)])
        pair.b_to_a.send_many([payload(2)])
        sim.run(until=sim.now + 10 * USEC)
        assert pair.a_to_b.drain()[0] == [payload(1)]
        assert pair.b_to_a.drain()[0] == [payload(2)]

    def test_local_pair(self, sim):
        pair = ChannelPair.local(sim, "p")
        pair.a_to_b.send_many([b"x"])
        assert pair.a_to_b.drain()[0] == [b"x"]
