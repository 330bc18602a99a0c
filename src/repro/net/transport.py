"""Datagram and reliable transports on top of the frame interface.

:class:`UdpSocket` is a thin port-demultiplexer used by the UDP echo
workloads (Figures 10-13).

:class:`ReliableSocket` is a message-oriented reliable transport -- the
TCP stand-in for the memcached experiments (Figures 9 and 14).  It keeps the
one property that matters for the paper's failover tail: packets lost during
an interruption are retransmitted on timer expiry (RTO with exponential
backoff) and delivered *late*, so client-observed P99 latency spikes and then
recovers, exactly the Figure 14 dynamic.

Both work over anything exposing ``send_frame`` / ``add_handler`` / ``ip``:
Oasis :class:`~repro.host.instance.Instance` vNICs and bare
:class:`~repro.net.endpoint.ExternalEndpoint` clients alike.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..config import TransportConfig
from ..sim.core import MSEC, Simulator, Timer
from .packet import PROTO_TCP, PROTO_UDP, Frame

__all__ = ["UdpSocket", "ReliableSocket", "ReceivedSeqs", "FLAG_ACK"]

FLAG_ACK = 0x01


class UdpSocket:
    """Unreliable datagram socket bound to a local port."""

    def __init__(self, sim: Simulator, endpoint, port: int):
        self.sim = sim
        self.endpoint = endpoint
        self.port = port
        self._on_datagram: Optional[Callable[[Frame], None]] = None
        self.sent = 0
        self.received = 0
        endpoint.add_handler(self._handle)

    def on_datagram(self, callback: Callable[[Frame], None]) -> None:
        self._on_datagram = callback

    def sendto(
        self,
        payload: bytes,
        dst_ip: int,
        dst_port: int,
        wire_size: int = 0,
        seq: int = 0,
    ) -> Frame:
        frame = Frame(
            dst_mac=0,
            src_mac=0,
            dst_ip=dst_ip,
            proto=PROTO_UDP,
            src_port=self.port,
            dst_port=dst_port,
            seq=seq,
            payload=payload,
            wire_size=wire_size,
        )
        self.sent += 1
        self.endpoint.send_frame(frame)
        return frame

    def reply(self, request: Frame, payload: Optional[bytes] = None) -> Frame:
        """Echo-style response to ``request`` (used by the echo servers)."""
        response = request.reply_template(seq=request.seq)
        if payload is not None:
            response.payload = payload
        response.dst_mac = 0
        response.src_mac = 0
        self.sent += 1
        self.endpoint.send_frame(response)
        return response

    def _handle(self, frame: Frame) -> None:
        if frame.proto != PROTO_UDP or frame.dst_port != self.port:
            return
        self.received += 1
        if self._on_datagram is not None:
            self._on_datagram(frame)


class ReceivedSeqs:
    """The sequence numbers received from one peer, in bounded space.

    Every seq up to ``floor`` was received, plus the out-of-order ones in
    ``above``; a contiguous arrival advances ``floor`` and pulls the seqs it
    reaches out of ``above``.  A sender numbers from 1, so ``floor`` starts
    at 0.  ``above`` holds only what arrived ahead of a gap, instead of one
    entry per message ever received.
    """

    __slots__ = ("floor", "above")

    def __init__(self):
        self.floor = 0
        self.above: set = set()

    def add(self, seq: int) -> bool:
        """Record ``seq``; False if it had been received already."""
        floor = self.floor
        if seq <= floor:
            return False
        above = self.above
        if seq != floor + 1:
            if seq in above:
                return False
            above.add(seq)
            return True
        floor = seq
        while floor + 1 in above:
            floor += 1
            above.remove(floor)
        self.floor = floor
        return True


class ReliableSocket:
    """Message-oriented reliable transport with RTO-based retransmission."""

    def __init__(
        self,
        sim: Simulator,
        endpoint,
        port: int,
        config: Optional[TransportConfig] = None,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.port = port
        self.config = config or TransportConfig()
        self._next_seq = 1
        self._unacked: Dict[int, dict] = {}
        self._seen: Dict[Tuple[int, int], ReceivedSeqs] = {}
        self._on_message: Optional[Callable[[Frame], None]] = None
        self._on_give_up: Optional[Callable[[int], None]] = None
        self.sent = 0
        self.received = 0
        self.retransmits = 0
        self.gave_up = 0
        endpoint.add_handler(self._handle)

    def on_message(self, callback: Callable[[Frame], None]) -> None:
        self._on_message = callback

    def on_give_up(self, callback: Callable[[int], None]) -> None:
        """Called with the seq when a message exhausts its retries."""
        self._on_give_up = callback

    # -- sending -------------------------------------------------------------

    def send(
        self,
        payload: bytes,
        dst_ip: int,
        dst_port: int,
        wire_size: int = 0,
    ) -> int:
        """Send one reliable message; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        frame = Frame(
            dst_mac=0,
            src_mac=0,
            dst_ip=dst_ip,
            proto=PROTO_TCP,
            src_port=self.port,
            dst_port=dst_port,
            seq=seq,
            payload=payload,
            wire_size=wire_size,
        )
        state = {
            "frame": frame,
            "retries": 0,
            "rto_ms": self.config.initial_rto_ms,
            "timer": Timer(self.sim, self._on_timeout, seq),
        }
        self._unacked[seq] = state
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        state = self._unacked.get(seq)
        if state is None:
            return
        frame = state["frame"]
        # Frames are mutated by MAC fill-in; resend a shallow copy so stale
        # MACs from before a failover don't stick.
        resend = Frame(
            dst_mac=0, src_mac=0,
            src_ip=frame.src_ip, dst_ip=frame.dst_ip, proto=frame.proto,
            src_port=frame.src_port, dst_port=frame.dst_port,
            seq=frame.seq, ack=frame.ack, flags=frame.flags,
            payload=frame.payload, wire_size=frame.wire_size,
        )
        self.sent += 1
        self.endpoint.send_frame(resend)
        state["timer"].set(state["rto_ms"] * MSEC)

    def _on_timeout(self, seq: int) -> None:
        state = self._unacked.get(seq)
        if state is None:
            return
        state["retries"] += 1
        if state["retries"] > self.config.max_retries:
            del self._unacked[seq]
            self.gave_up += 1
            if self._on_give_up is not None:
                self._on_give_up(seq)
            return
        self.retransmits += 1
        state["rto_ms"] = min(state["rto_ms"] * self.config.rto_backoff,
                              self.config.max_rto_ms)
        self._transmit(seq)

    @property
    def inflight(self) -> int:
        return len(self._unacked)

    # -- receiving -------------------------------------------------------------

    def _handle(self, frame: Frame) -> None:
        if frame.proto != PROTO_TCP or frame.dst_port != self.port:
            return
        if frame.flags & FLAG_ACK:
            state = self._unacked.pop(frame.ack, None)
            if state is not None:
                state["timer"].clear()
            return
        # Data: ack it, deduplicate, deliver.
        ack = frame.reply_template(payload=b"", flags=FLAG_ACK, ack=frame.seq,
                                   wire_size=64)
        ack.dst_mac = 0
        ack.src_mac = 0
        self.endpoint.send_frame(ack)
        peer = (frame.src_ip, frame.src_port)
        seen = self._seen.get(peer)
        if seen is None:
            seen = self._seen[peer] = ReceivedSeqs()
        if not seen.add(frame.seq):
            return
        self.received += 1
        if self._on_message is not None:
            self._on_message(frame)
