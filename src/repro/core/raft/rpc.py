"""Raft RPC transports.

Two implementations of the same interface:

* :class:`DirectTransport` -- point-to-point delivery with a configurable
  latency distribution; the default for pod-internal use where the message
  channels' end-to-end latency is what matters, not their byte layout.
* :class:`ChannelRpcTransport` -- RPCs carried over real Oasis message
  channels (§3.5: "using RPCs transmitted over the message channels"),
  fragmenting JSON-encoded messages into fixed 64 B control messages with a
  reassembly layer.  Slower to simulate; used by tests to show that the
  control plane genuinely runs over the non-coherent shared-memory datapath.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Optional, Tuple

from ...errors import ChannelError, ChannelFullError
from ...sim.core import Simulator, USEC
from ..engine import Driver, Link

__all__ = ["DirectTransport", "ChannelRpcTransport", "FRAGMENT_PAYLOAD"]


class DirectTransport:
    """In-pod message delivery with per-hop latency."""

    def __init__(self, sim: Simulator, latency_us: float = 5.0):
        self.sim = sim
        self.latency_s = latency_us * USEC
        self._nodes: Dict[str, Callable[[str, dict], None]] = {}
        self._partitioned: set = set()
        self.messages_sent = 0

    def register(self, node_id: str, deliver: Callable[[str, dict], None]) -> None:
        self._nodes[node_id] = deliver

    def partition(self, node_id: str) -> None:
        """Isolate a node (for leader-failure tests)."""
        self._partitioned.add(node_id)

    def heal(self, node_id: str) -> None:
        self._partitioned.discard(node_id)

    def send(self, src: str, dst: str, message: dict) -> None:
        if src in self._partitioned or dst in self._partitioned:
            return
        deliver = self._nodes.get(dst)
        if deliver is None:
            return
        self.messages_sent += 1
        self.sim.schedule(self.latency_s, deliver, src, message)


# 64 B control message: opcode 0x10, rpc id, fragment index, fragment count,
# payload length, then up to 48 B of JSON payload.
_FRAG_HEADER = struct.Struct("<BxHIIH")
FRAGMENT_PAYLOAD = 64 - _FRAG_HEADER.size
_OP_FRAGMENT = 0x10


class ChannelRpcTransport:
    """RPCs over Oasis 64 B message channels, with fragmentation."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nodes: Dict[str, Callable[[str, dict], None]] = {}
        # (src, dst) -> DoorbellChannel-like endpoint (64 B messages)
        self._channels: Dict[Tuple[str, str], Any] = {}
        self._reassembly: Dict[Tuple[str, str, int], list] = {}
        self._next_rpc_id = 1
        self.messages_sent = 0
        self.fragments_sent = 0

    def register(self, node_id: str, deliver: Callable[[str, dict], None]) -> None:
        self._nodes[node_id] = deliver

    def add_channel(self, src: str, dst: str, channel) -> None:
        """Wire a one-way 64 B channel for src -> dst and pump it."""
        self._channels[(src, dst)] = channel
        _ChannelPump(self.sim, self, src, dst, channel).start()

    def send(self, src: str, dst: str, message: dict) -> None:
        channel = self._channels.get((src, dst))
        if channel is None:
            raise ChannelError(f"no channel {src} -> {dst}")
        payload = json.dumps(message, separators=(",", ":")).encode()
        rpc_id = self._next_rpc_id
        self._next_rpc_id += 1
        nfrags = max(1, (len(payload) + FRAGMENT_PAYLOAD - 1) // FRAGMENT_PAYLOAD)
        self.messages_sent += 1
        for i in range(nfrags):
            chunk = payload[i * FRAGMENT_PAYLOAD:(i + 1) * FRAGMENT_PAYLOAD]
            frag = _FRAG_HEADER.pack(_OP_FRAGMENT, rpc_id & 0xFFFF, i, nfrags,
                                     len(chunk))
            frag += chunk.ljust(FRAGMENT_PAYLOAD, b"\x00")
            try:
                channel.send_many([frag])
            except ChannelFullError:
                return  # dropped; Raft retries on its own timers
            self.fragments_sent += 1

    def _on_fragment(self, src: str, dst: str, raw: bytes) -> None:
        opcode, rpc_id, index, nfrags, length = _FRAG_HEADER.unpack_from(raw)
        if opcode != _OP_FRAGMENT:
            return
        chunk = raw[_FRAG_HEADER.size:_FRAG_HEADER.size + length]
        key = (src, dst, rpc_id)
        frags = self._reassembly.setdefault(key, [None] * nfrags)
        if index >= len(frags):
            return
        frags[index] = chunk
        if all(f is not None for f in frags):
            del self._reassembly[key]
            message = json.loads(b"".join(frags).decode())
            deliver = self._nodes.get(dst)
            if deliver is not None:
                deliver(src, message)


class _ChannelPump(Driver):
    """The receiving end of one control channel: an engine driver with one
    link whose messages feed the transport's reassembly.  The sending end
    is :meth:`ChannelRpcTransport.send`, which drops on a full ring instead
    of parking -- Raft retries on its own timers."""

    def __init__(self, sim, transport: ChannelRpcTransport, src: str, dst: str,
                 channel):
        super().__init__(sim, f"rpc-{src}-{dst}")
        self.transport = transport
        self.src = src
        self.dst = dst
        self.connect(Link(src, tx=None, rx=channel))

    def _on_messages(self, link: Link, payloads: list, cost: float) -> float:
        for raw in payloads:
            self.transport._on_fragment(self.src, self.dst, raw)
        return cost
