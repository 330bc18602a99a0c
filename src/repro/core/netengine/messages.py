"""The network engine's 16 B message format (§3.3.1).

Every frontend<->backend signal is one fixed 16 B message: an 8 B buffer
pointer, a 2 B packet size, a 1 B opcode, a 4 B instance IP and a 1 B
fencing epoch stamp (§3.3.3).  The stamp is the low byte of the sender's
lease epoch; backends compare it against the published epoch table and
answer stale posts with ``OP_TX_FENCED`` instead of touching the device.
"""

from __future__ import annotations

import struct

from ...errors import ChannelError

__all__ = [
    "NetMessage",
    "OP_TX",
    "OP_TX_COMP",
    "OP_RX",
    "OP_RX_COMP",
    "OP_TX_FENCED",
    "NET_MESSAGE_SIZE",
]

OP_TX = 0x01        # frontend -> backend: transmit buffer
OP_TX_COMP = 0x02   # backend -> frontend: TX buffer done, free it
OP_RX = 0x03        # backend -> frontend: RX packet for instance
OP_RX_COMP = 0x04   # frontend -> backend: RX buffer consumed, recycle it
OP_TX_FENCED = 0x05  # backend -> frontend: stale epoch, post rejected

_FMT = struct.Struct("<BHIQB")   # opcode, size, instance ip, buffer ptr, epoch
NET_MESSAGE_SIZE = _FMT.size     # 16 bytes
assert NET_MESSAGE_SIZE == 16

_VALID_OPS = {OP_TX, OP_TX_COMP, OP_RX, OP_RX_COMP, OP_TX_FENCED}


class NetMessage:
    """One decoded network-engine message.

    A plain slotted class rather than a dataclass: these are created and
    unpacked once per message hop on the driver cores' hottest loop, where
    a frozen dataclass pays ``object.__setattr__`` per field.  Messages
    are decoded and consumed, never compared or hashed.
    """

    __slots__ = ("opcode", "size", "instance_ip", "buffer_addr", "epoch")

    def __init__(self, opcode: int, size: int, instance_ip: int,
                 buffer_addr: int, epoch: int = 0):
        self.opcode = opcode
        self.size = size
        self.instance_ip = instance_ip
        self.buffer_addr = buffer_addr
        self.epoch = epoch

    def pack(self) -> bytes:
        if self.opcode not in _VALID_OPS:
            raise ChannelError(f"invalid network-engine opcode {self.opcode:#x}")
        if not 0 <= self.size <= 0xFFFF:
            raise ChannelError(f"packet size {self.size} does not fit in 2 bytes")
        return _FMT.pack(self.opcode, self.size, self.instance_ip,
                         self.buffer_addr, self.epoch & 0xFF)

    @classmethod
    def unpack(cls, data: bytes) -> "NetMessage":
        message = cls.__new__(cls)
        (message.opcode, message.size, message.instance_ip,
         message.buffer_addr, message.epoch) = _FMT.unpack(data)
        if message.opcode not in _VALID_OPS:
            raise ChannelError(f"invalid network-engine opcode {message.opcode:#x}")
        return message
