"""Tests for the four Figure 6 receiver designs.

All four must be functionally identical (same delivered message stream); they
differ only in cost profile and cache behaviour.  A fifth, deliberately
broken receiver shows the staleness failure the invalidations exist to
prevent.
"""

import pytest

from repro.channel.designs import (
    RECEIVER_DESIGNS,
    InvalidateConsumedReceiver,
    InvalidatePrefetchedReceiver,
    NaivePrefetchReceiver,
    make_receiver,
)
from repro.channel.protocol import ChannelReceiver, ChannelSender
from repro.channel.ring import RingLayout
from repro.mem.cache import HostCache
from repro.mem.layout import Region

from .reference_ring import send_one


def build(small_pool, design, slots=32, counter_batch=1, **kwargs):
    size = RingLayout.required_bytes(slots, 16)
    layout = RingLayout(Region(0, size), slots, 16)
    sender = ChannelSender(layout, HostCache(small_pool, "s"))
    receiver = make_receiver(design, layout, HostCache(small_pool, "r"),
                             counter_batch=counter_batch, **kwargs)
    return sender, receiver


def msg(i):
    return bytes([1]) + i.to_bytes(8, "little") + bytes(7)


def pump(sender, receiver, n, max_polls_per_msg=10):
    """Send n messages one at a time; receiver polls until it gets each."""
    got = []
    for i in range(n):
        send_one(sender, msg(i))
        for _ in range(max_polls_per_msg):
            payload, _ = receiver.poll()
            if payload is not None:
                got.append(payload)
                break
    return got


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("design", sorted(RECEIVER_DESIGNS))
    def test_delivers_all_messages_in_order(self, small_pool, design):
        sender, receiver = build(small_pool, design)
        got = pump(sender, receiver, 100)
        assert got == [msg(i) for i in range(100)]

    @pytest.mark.parametrize("design", sorted(RECEIVER_DESIGNS))
    def test_survives_ring_wrap(self, small_pool, design):
        sender, receiver = build(small_pool, design, slots=16)
        got = pump(sender, receiver, 64)   # 4 laps
        assert len(got) == 64

    @pytest.mark.parametrize("design", sorted(RECEIVER_DESIGNS))
    def test_batch_bursts(self, small_pool, design):
        sender, receiver = build(small_pool, design, slots=64, counter_batch=8)
        for i in range(32):
            ok, _ = sender.try_send(msg(i))
            assert ok
        sender.flush()
        got = []
        polls = 0
        while len(got) < 32 and polls < 500:
            payload, _ = receiver.poll()
            polls += 1
            if payload is not None:
                got.append(payload)
        assert got == [msg(i) for i in range(32)]


class TestStaleness:
    def test_receiver_without_invalidation_starves_after_wrap(self, small_pool):
        """A receiver that never invalidates spins on stale cached lines --
        the §3.2.2 failure mode that motivates the whole design space."""

        class NoInvalidateReceiver(ChannelReceiver):
            design = "broken-no-invalidate"

            def poll(self):
                payload, cost = self._check_slot(self.next_seq)
                if payload is not None:
                    cost += self._consume(self.next_seq)
                return payload, cost

        size = RingLayout.required_bytes(16, 16)
        layout = RingLayout(Region(0, size), 16, 16)
        sender = ChannelSender(layout, HostCache(small_pool, "s"))
        receiver = NoInvalidateReceiver(layout, HostCache(small_pool, "r"),
                                        counter_batch=1)
        # A whole lap written before any poll is read fresh (demand misses).
        for i in range(16):
            sender.try_send(msg(i))
        sender.flush()
        got, _ = receiver.poll_batch(limit=32)
        assert len(got) == 16
        # From now on every ring line is stale in the receiver's cache and it
        # never invalidates: new messages are permanently invisible.
        send_one(sender, msg(100))
        for _ in range(50):
            payload, _ = receiver.poll()
            assert payload is None

    def test_naive_prefetch_recovers_via_empty_poll_invalidate(self, small_pool):
        sender, receiver = build(small_pool, "naive-prefetch", slots=16)
        got = pump(sender, receiver, 40)
        assert len(got) == 40

    def test_invalidate_consumed_keeps_prefetch_effective(self, small_pool):
        sender, receiver = build(small_pool, "invalidate-consumed", slots=64,
                                 counter_batch=8, prefetch_depth=4)
        for i in range(64):
            sender.try_send(msg(i))
        sender.flush()
        got, _ = receiver.poll_batch(limit=64)
        assert len(got) == 64
        # Streaming consumption re-issued prefetches beyond the first lines.
        assert receiver.cache.stats.prefetches_issued > 0


class TestDesignSpecificBehaviour:
    def test_bypass_never_keeps_ring_lines(self, small_pool):
        sender, receiver = build(small_pool, "bypass-cache")
        pump(sender, receiver, 8)
        # Every poll starts with a fenced invalidate+MFENCE of the current
        # line (the flush of a not-yet-cached line does not count as an
        # invalidation, so count fences).
        assert receiver.cache.stats.fences >= 8

    def test_invalidate_prefetched_resets_horizon(self, small_pool):
        sender, receiver = build(small_pool, "invalidate-prefetched",
                                 slots=64, prefetch_depth=4)
        for i in range(16):
            sender.try_send(msg(i))
        sender.flush()
        receiver.poll_batch(limit=16)
        horizon_before = receiver._prefetch_horizon
        receiver.poll()          # empty poll invalidates the window
        assert receiver._prefetch_horizon <= horizon_before

    def test_make_receiver_rejects_unknown_design(self, small_pool):
        size = RingLayout.required_bytes(16, 16)
        layout = RingLayout(Region(0, size), 16, 16)
        with pytest.raises(ValueError):
            make_receiver("nonsense", layout, HostCache(small_pool, "r"))

    def test_design_registry_complete(self):
        assert set(RECEIVER_DESIGNS) == {
            "bypass-cache", "naive-prefetch", "invalidate-consumed",
            "invalidate-prefetched",
        }
