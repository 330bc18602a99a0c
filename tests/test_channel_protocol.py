"""Tests for the sender/receiver ring protocol over non-coherent caches."""

import pytest

from repro.channel.designs import InvalidatePrefetchedReceiver, make_receiver
from repro.channel.protocol import ChannelSender
from repro.channel.ring import RingLayout
from repro.errors import ChannelError, ChannelFullError
from repro.mem.cache import HostCache
from repro.mem.layout import Region

from .reference_ring import send_one


def build_channel(small_pool, slots=64, message_size=16, design="invalidate-prefetched",
                  counter_batch=None):
    size = RingLayout.required_bytes(slots, message_size)
    layout = RingLayout(Region(0, size), slots, message_size)
    sender = ChannelSender(layout, HostCache(small_pool, "sender"))
    receiver = make_receiver(design, layout, HostCache(small_pool, "receiver"),
                             counter_batch=counter_batch)
    return sender, receiver


def msg(i, size=16):
    return bytes([1]) + i.to_bytes(8, "little") + bytes(size - 9)


class TestRoundtrip:
    def test_single_message(self, small_pool):
        sender, receiver = build_channel(small_pool)
        send_one(sender, msg(7))
        payload, _ = receiver.poll()
        assert payload == msg(7)

    def test_fifo_order(self, small_pool):
        sender, receiver = build_channel(small_pool)
        for i in range(20):
            send_one(sender, msg(i))
        got = []
        while True:
            payload, _ = receiver.poll()
            if payload is None:
                break
            got.append(payload)
        assert got == [msg(i) for i in range(20)]

    def test_poll_empty_returns_none(self, small_pool):
        _, receiver = build_channel(small_pool)
        payload, _ = receiver.poll()
        assert payload is None
        assert receiver.counters.empty_polls == 1

    def test_unflushed_line_not_visible(self, small_pool):
        """A message is invisible until its line is CLWB'd (visibility rule)."""
        sender, receiver = build_channel(small_pool)
        ok, _ = sender.try_send(msg(1))   # 1 of 4 slots in the line: no CLWB
        assert ok
        payload, _ = receiver.poll()
        assert payload is None
        sender.flush()
        # The receiver's empty poll invalidated the line; re-poll sees it.
        payload, _ = receiver.poll()
        assert payload == msg(1)

    def test_line_end_auto_flushes(self, small_pool):
        sender, receiver = build_channel(small_pool)
        for i in range(4):                # exactly one full line
            ok, _ = sender.try_send(msg(i))
            assert ok
        got = []
        for _ in range(4):
            payload, _ = receiver.poll()
            got.append(payload)
        assert got == [msg(i) for i in range(4)]

    def test_wrong_size_payload_rejected(self, small_pool):
        sender, _ = build_channel(small_pool)
        with pytest.raises(ChannelError):
            sender.try_send(b"short")

    def test_poll_batch(self, small_pool):
        sender, receiver = build_channel(small_pool)
        for i in range(10):
            send_one(sender, msg(i))
        payloads, _ = receiver.poll_batch(limit=100)
        assert payloads == [msg(i) for i in range(10)]


class TestRingWrap:
    def test_many_laps_preserve_order(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=4)
        seq = 0
        for lap in range(5):
            for _ in range(16):
                send_one(sender, msg(seq))
                # The receiver may need an empty-poll-invalidate cycle to see
                # a message landing in a line it already has cached.
                payload = None
                for _ in range(5):
                    payload, _ = receiver.poll()
                    if payload is not None:
                        break
                assert payload == msg(seq)
                seq += 1

    def test_epoch_prevents_rereading_old_lap(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=1)
        for i in range(16):
            send_one(sender, msg(i))
        while receiver.poll()[0] is not None:
            pass
        # Ring content is one lap old everywhere; nothing new to read.
        payload, _ = receiver.poll()
        assert payload is None


class TestBackpressure:
    def test_sender_blocks_when_ring_full(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=8)
        for i in range(16):
            ok, _ = sender.try_send(msg(i))
            assert ok
        ok, _ = sender.try_send(msg(99))
        assert not ok
        assert sender.counters.full_stalls == 1

    def test_send_raises_when_full(self, small_pool):
        """A send on a full ring (a driver batch, ``send_many``) raises,
        carrying how many of the batch's messages went out."""
        from repro.core.datapath import DoorbellChannel
        from repro.sim.core import Simulator

        layout = RingLayout(Region(0, RingLayout.required_bytes(16, 16)), 16, 16)
        channel = DoorbellChannel(Simulator(), layout, HostCache(small_pool, "s"),
                                  HostCache(small_pool, "r"), "ring")
        with pytest.raises(ChannelFullError) as full:
            channel.send_many([msg(i) for i in range(17)])
        assert full.value.sent == 16
        assert channel.sender.counters.full_stalls == 1

    def test_counter_update_unblocks_sender(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=8)
        for i in range(16):
            sender.try_send(msg(i))
        assert sender.try_send(msg(99))[0] is False
        # Receiver consumes half the ring; its counter batch publishes.
        for _ in range(8):
            payload, _ = receiver.poll()
            assert payload is not None
        ok, _ = sender.try_send(msg(99))
        assert ok
        assert sender.counters.counter_refreshes >= 1

    def test_unpublished_counter_keeps_sender_blocked(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=100)
        for i in range(16):
            sender.try_send(msg(i))
        for _ in range(4):
            receiver.poll()
        # Consumed 4 but batch threshold (100) not reached: still blocked.
        ok, _ = sender.try_send(msg(99))
        assert not ok

    def test_force_publish_counter(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=100)
        for i in range(16):
            sender.try_send(msg(i))
        for _ in range(4):
            receiver.poll()
        receiver.force_publish_counter()
        ok, _ = sender.try_send(msg(99))
        assert ok

    def test_counter_never_ahead_of_sender(self, small_pool):
        sender, receiver = build_channel(small_pool, slots=16, counter_batch=1)
        send_one(sender, msg(0))
        receiver.poll()
        sender.refresh_consumed()
        assert sender._cached_consumed <= sender.next_seq
