"""Reference slot format: the epoch-bit codec and slot arithmetic, kept as a
test oracle.

``repro.channel.ring`` used to define these beside ``RingLayout``, while
``ChannelSender.try_send`` and ``ChannelReceiver._check_slot`` inlined their
own copies on the hot path; the slot format is now written once, in
``repro.channel.protocol``.  ``test_channel_ring.py`` pins this copy and
checks the bytes the real sender leaves in the pool against it.
"""

from __future__ import annotations

from repro.config import CACHE_LINE
from repro.errors import ChannelError


def encode_slot(payload: bytes, epoch: int) -> bytes:
    """Stamp ``payload`` with ``epoch`` (0 or 1) in the MSB of byte 0."""
    if not payload:
        raise ChannelError("empty payload")
    if payload[0] & 0x80:
        raise ChannelError("payload first byte must leave the epoch bit clear")
    if epoch not in (0, 1):
        raise ChannelError(f"epoch must be 0 or 1, got {epoch}")
    return bytes([payload[0] | (epoch << 7)]) + payload[1:]


def decode_slot(raw: bytes) -> tuple[bytes, int]:
    """Split a raw slot into ``(payload, epoch)``."""
    if not raw:
        raise ChannelError("empty slot")
    epoch = raw[0] >> 7
    return bytes([raw[0] & 0x7F]) + raw[1:], epoch


def slot_addr(layout, seq: int) -> int:
    """Byte address of the slot for message sequence number ``seq``."""
    return layout.region.base + (seq % layout.slots) * layout.message_size


def expected_epoch(layout, seq: int) -> int:
    """Epoch bit a fresh message with sequence ``seq`` carries: lap 0 uses
    epoch 1 so never-written (zero-filled) slots decode as old; each ring
    wrap toggles the bit."""
    return 1 - ((seq // layout.slots) & 1)


def is_line_start(layout, seq: int) -> bool:
    return slot_addr(layout, seq) % CACHE_LINE == 0


def is_line_end(layout, seq: int) -> bool:
    return (slot_addr(layout, seq) + layout.message_size) % CACHE_LINE == 0


def send_one(sender, payload: bytes) -> float:
    """One message, flushed at once: a driver batch of one (what the
    deleted ``ChannelSender.send`` did, without its full-ring raise)."""
    ok, cost = sender.try_send(payload)
    assert ok, "ring full"
    return cost + sender.flush()
