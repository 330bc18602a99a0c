"""Circular-buffer layout for Oasis message channels (§3.2.2).

A channel is a region of shared CXL memory holding ``slots`` fixed-size
messages (16 B for the network engine, 64 B for the storage engine) followed
by an 8 B *consumed counter* on its own cache line.

The most significant bit of each message's first byte is the **epoch bit**:
the sender toggles it on every ring wrap, so the receiver can distinguish a
fresh message from a leftover of the previous lap without any other shared
state.  Message payloads must therefore keep their first byte below 0x80
(all Oasis opcodes do).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CACHE_LINE
from ..errors import ChannelError
from ..mem.layout import Region, align_up

__all__ = ["RingLayout", "encode_slot", "decode_slot"]


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


@dataclass(frozen=True)
class RingLayout:
    """Address arithmetic for one ring in shared memory.

    The derived geometry (``messages_per_line``, ``lines``, ``counter_addr``)
    is computed once at construction -- layouts are frozen, and the datapath
    reads these on hot paths.
    """

    region: Region
    slots: int
    message_size: int

    # Derived geometry -- messages_per_line, lines, counter_addr -- is set by
    # __post_init__ via object.__setattr__ (the dataclass is frozen) and is
    # deliberately not part of the field list: construction, equality and
    # repr stay keyed on the three inputs alone.

    def __post_init__(self):
        if self.slots < 2 or self.slots & (self.slots - 1):
            raise ChannelError("slots must be a power of two >= 2")
        if self.message_size not in (16, 64):
            raise ChannelError("message_size must be 16 or 64")
        if self.region.base % CACHE_LINE:
            raise ChannelError("ring must start on a cache-line boundary")
        if self.region.size < self.required_bytes(self.slots, self.message_size):
            raise ChannelError(
                f"region of {self.region.size} B too small for "
                f"{self.slots} x {self.message_size} B ring"
            )
        array_bytes = align_up(self.slots * self.message_size, CACHE_LINE)
        object.__setattr__(self, "messages_per_line", CACHE_LINE // self.message_size)
        object.__setattr__(self, "lines", array_bytes // CACHE_LINE)
        object.__setattr__(self, "counter_addr", self.region.base + array_bytes)

    @staticmethod
    def required_bytes(slots: int, message_size: int) -> int:
        """Region size needed: slot array + counter on its own line."""
        return align_up(slots * message_size, CACHE_LINE) + CACHE_LINE

    def slot_addr(self, seq: int) -> int:
        """Byte address of the slot for message sequence number ``seq``."""
        return self.region.base + (seq % self.slots) * self.message_size

    def slot_line_addr(self, seq: int) -> int:
        """Base address of the cache line containing ``seq``'s slot."""
        return self.slot_addr(seq) & ~(CACHE_LINE - 1)

    def expected_epoch(self, seq: int) -> int:
        """Epoch bit value a fresh message with sequence ``seq`` carries.

        Lap 0 uses epoch 1 so that never-written (zero-filled) slots decode
        as *old*; each ring wrap toggles the bit.
        """
        return 1 - ((seq // self.slots) & 1)

    def is_line_start(self, seq: int) -> bool:
        return self.slot_addr(seq) % CACHE_LINE == 0

    def is_line_end(self, seq: int) -> bool:
        return (self.slot_addr(seq) + self.message_size) % CACHE_LINE == 0
