"""Tests for ring layout and the epoch-bit codec (the codec and slot
arithmetic are the oracle in ``reference_ring.py``)."""

import pytest

from repro.channel.protocol import ChannelSender
from repro.channel.ring import RingLayout
from repro.errors import ChannelError
from repro.mem.cache import HostCache
from repro.mem.layout import Region

from .reference_ring import (decode_slot, encode_slot, expected_epoch,
                             is_line_end, is_line_start, slot_addr)


class TestEpochCodec:
    def test_roundtrip(self):
        payload = b"\x01" + b"x" * 15
        for epoch in (0, 1):
            stamped = encode_slot(payload, epoch)
            got, got_epoch = decode_slot(stamped)
            assert got == payload
            assert got_epoch == epoch

    def test_epoch_bit_is_msb_of_first_byte(self):
        stamped = encode_slot(b"\x01" + b"\x00" * 15, 1)
        assert stamped[0] == 0x81

    def test_payload_must_leave_epoch_bit_clear(self):
        with pytest.raises(ChannelError):
            encode_slot(b"\x80" + b"\x00" * 15, 0)

    def test_empty_payload_rejected(self):
        with pytest.raises(ChannelError):
            encode_slot(b"", 0)

    def test_bad_epoch_rejected(self):
        with pytest.raises(ChannelError):
            encode_slot(b"\x01", 2)

    def test_decode_empty_rejected(self):
        with pytest.raises(ChannelError):
            decode_slot(b"")

    def test_sender_writes_the_reference_slot_format(self, small_pool):
        """Over three laps, every slot the real sender leaves in the pool is
        the reference stamp of its payload with the lap's epoch."""
        layout = RingLayout(Region(0, RingLayout.required_bytes(16, 16)), 16, 16)
        sender = ChannelSender(layout, HostCache(small_pool, "sender"))
        for seq in range(48):
            payload = bytes([seq % 0x80]) + seq.to_bytes(15, "little")
            assert sender.try_send(payload)[0]
            sender.flush()
            sender._cached_consumed = seq + 1      # a receiver that keeps up
            raw = small_pool.dma_read(slot_addr(layout, seq), 16)
            assert raw == encode_slot(payload, expected_epoch(layout, seq))
            assert decode_slot(raw) == (payload, expected_epoch(layout, seq))


class TestRingLayout:
    def _layout(self, slots=64, msg=16):
        size = RingLayout.required_bytes(slots, msg)
        return RingLayout(Region(0, size), slots, msg)

    def test_required_bytes_includes_counter_line(self):
        assert RingLayout.required_bytes(64, 16) == 64 * 16 + 64

    def test_messages_per_line(self):
        assert self._layout(msg=16).messages_per_line == 4
        assert self._layout(msg=64).messages_per_line == 1

    def test_slot_addresses_wrap(self):
        layout = self._layout(slots=64)
        assert slot_addr(layout, 0) == slot_addr(layout, 64)
        assert slot_addr(layout, 1) == slot_addr(layout, 0) + 16

    def test_counter_on_its_own_line(self):
        layout = self._layout(slots=64)
        assert layout.counter_addr % 64 == 0
        assert layout.counter_addr >= slot_addr(layout, 63) + 16

    def test_expected_epoch_toggles_per_lap(self):
        layout = self._layout(slots=64)
        assert expected_epoch(layout, 0) == 1     # lap 0: epoch 1
        assert expected_epoch(layout, 63) == 1
        assert expected_epoch(layout, 64) == 0    # lap 1
        assert expected_epoch(layout, 128) == 1   # lap 2

    def test_zero_filled_slots_read_as_old(self):
        """Lap 0 expects epoch 1, so untouched (zero) memory is never a
        valid message -- the reason lap 0 starts at epoch 1."""
        layout = self._layout()
        _, epoch = decode_slot(bytes(16))
        assert epoch != expected_epoch(layout, 0)

    def test_line_boundaries(self):
        layout = self._layout()
        assert is_line_start(layout, 0)
        assert not is_line_start(layout, 1)
        assert is_line_end(layout, 3)
        assert not is_line_end(layout, 2)

    def test_line_count(self):
        assert self._layout(slots=64, msg=16).lines == 16

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ChannelError):
            self._layout(slots=60)

    def test_bad_message_size_rejected(self):
        with pytest.raises(ChannelError):
            RingLayout(Region(0, 4096), 64, 32)

    def test_too_small_region_rejected(self):
        with pytest.raises(ChannelError):
            RingLayout(Region(0, 64), 64, 16)
