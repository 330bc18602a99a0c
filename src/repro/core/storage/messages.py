"""The storage engine's 64 B message format (§3.4).

Each frontend<->backend storage message mirrors the fields of a 64 B NVMe
command: opcode, command id, namespace, starting LBA, block count and the
data buffer pointer in shared CXL memory, plus a status field for
completions and a one-byte fencing epoch stamp (§3.3.3).  Backends compare
the stamp against the allocator-published epoch table and answer stale
requests with ``STATUS_FENCED`` instead of touching the drive.
"""

from __future__ import annotations

import struct

from ...errors import ChannelError

__all__ = [
    "StorageMessage",
    "SOP_READ",
    "SOP_WRITE",
    "SOP_COMPLETION",
    "SOP_FLUSH",
    "STATUS_FENCED",
    "STORAGE_MESSAGE_SIZE",
]

SOP_WRITE = 0x01       # mirrors NVMe NVM write
SOP_READ = 0x02        # mirrors NVMe NVM read
SOP_FLUSH = 0x03
SOP_COMPLETION = 0x10  # backend -> frontend CQE

#: Synthetic completion status: the request carried a stale fencing epoch
#: and was rejected before reaching the drive (§3.3.3).
STATUS_FENCED = 0xFD

# opcode, flags, cid, nsid, slba, nlb, buffer addr, instance ip, status,
# fencing epoch stamp + pad
_FMT = struct.Struct("<BBHIQIQIHB")
_PAD = 64 - _FMT.size
STORAGE_MESSAGE_SIZE = 64

_VALID_OPS = {SOP_READ, SOP_WRITE, SOP_FLUSH, SOP_COMPLETION}


class StorageMessage:
    """One decoded 64 B storage-engine message.

    A plain slotted class rather than a dataclass: messages are created and
    unpacked once per hop on the storage drivers' polling loops, where a
    frozen dataclass pays ``object.__setattr__`` per field.  Messages are
    decoded and consumed, never compared or hashed.
    """

    __slots__ = ("opcode", "cid", "slba", "nlb", "buffer_addr", "instance_ip",
                 "status", "nsid", "flags", "epoch")

    def __init__(self, opcode: int, cid: int, slba: int, nlb: int,
                 buffer_addr: int, instance_ip: int, status: int = 0,
                 nsid: int = 1, flags: int = 0, epoch: int = 0):
        self.opcode = opcode
        self.cid = cid
        self.slba = slba
        self.nlb = nlb
        self.buffer_addr = buffer_addr
        self.instance_ip = instance_ip
        self.status = status
        self.nsid = nsid
        self.flags = flags
        self.epoch = epoch

    def pack(self) -> bytes:
        if self.opcode not in _VALID_OPS:
            raise ChannelError(f"invalid storage opcode {self.opcode:#x}")
        raw = _FMT.pack(self.opcode, self.flags, self.cid, self.nsid, self.slba,
                        self.nlb, self.buffer_addr, self.instance_ip,
                        self.status, self.epoch & 0xFF)
        return raw + b"\x00" * _PAD

    @classmethod
    def unpack(cls, data: bytes) -> "StorageMessage":
        message = cls.__new__(cls)
        (message.opcode, message.flags, message.cid, message.nsid,
         message.slba, message.nlb, message.buffer_addr, message.instance_ip,
         message.status, message.epoch) = _FMT.unpack_from(data)
        if message.opcode not in _VALID_OPS:
            raise ChannelError(f"invalid storage opcode {message.opcode:#x}")
        return message
