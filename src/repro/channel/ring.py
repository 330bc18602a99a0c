"""Circular-buffer layout for Oasis message channels (§3.2.2).

A channel is a region of shared CXL memory holding ``slots`` fixed-size
messages (16 B for the network engine, 64 B for the storage engine) followed
by an 8 B *consumed counter* on its own cache line.

The most significant bit of each message's first byte is the **epoch bit**:
the sender toggles it on every ring wrap, so the receiver can distinguish a
fresh message from a leftover of the previous lap without any other shared
state.  Message payloads must therefore keep their first byte below 0x80
(all Oasis opcodes do).  Lap 0 carries epoch 1, so never-written (zero)
slots read as old.  The bit is stamped and checked in one place each,
:meth:`~repro.channel.protocol.ChannelSender.try_send` and
``ChannelReceiver._check_slot``; this module is only the address geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CACHE_LINE
from ..errors import ChannelError
from ..mem.layout import Region, align_up

__all__ = ["RingLayout"]


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
