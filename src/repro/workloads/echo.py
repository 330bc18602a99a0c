"""UDP echo workload (the §5.1 overhead microbenchmark).

A client on its own switch port sends fixed-size UDP packets at a configured
rate to an echo server instance; the server echoes them back and the client
records per-packet round-trip latency.  Used for Figures 10, 11, 12 and 13.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.stats import percentile
from ..net.packet import Frame
from ..net.transport import UdpSocket
from ..obs.flow import NULL_FLOWS
from ..sim.core import Simulator, USEC
from ..sim.rng import Stream

__all__ = ["EchoServer", "EchoClient", "EchoStats"]

ECHO_PORT = 7


class EchoServer:
    """Echoes every datagram back to its sender.

    ``tenant`` tags each reply's ``Frame.meta`` so an instance-side echo
    service bills its TX traffic against that tenant's WFQ lane at the net
    frontend (wire bytes drop ``meta``, so the tag must be applied on the
    sending side of the instance TX path).
    """

    def __init__(self, sim: Simulator, endpoint, port: int = ECHO_PORT,
                 tenant: Optional[str] = None):
        self.sock = UdpSocket(sim, endpoint, port)
        self.sock.on_datagram(self._on_datagram)
        self.echoed = 0
        self.tenant = tenant

    def _on_datagram(self, frame: Frame) -> None:
        self.echoed += 1
        if self.tenant is not None:
            frame.meta["tenant"] = self.tenant
        self.sock.reply(frame)


def _samples() -> array:
    return array("d")


@dataclass
class EchoStats:
    """Client-side results.

    ``send_times`` (by sequence number), ``recv_times`` and ``latencies_us``
    (one per first reply) are packed ``array("d")`` records, 8 B a sample.
    ``outstanding`` is the client's send map, sequence number -> send time:
    a sequence number leaves it on its first reply.
    """

    sent: int = 0
    received: int = 0
    latencies_us: array = field(default_factory=_samples)
    send_times: array = field(default_factory=_samples)
    recv_times: array = field(default_factory=_samples)
    outstanding: Dict[int, float] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        return self.sent - self.received

    def percentile_us(self, q: float) -> float:
        return percentile(self.latencies_us, q)

    def loss_timeline(self, bin_s: float, duration: float) -> List[int]:
        """Lost packets per time bin (Figure 13a).

        A sent packet counts as lost if it is still outstanding (no reply
        came back); the loss is attributed to the bin it was sent in.
        """
        bins = math.ceil(duration / bin_s)
        lost = [0] * bins
        for t in self.outstanding.values():
            lost[min(bins - 1, int(t / bin_s))] += 1
        return lost


class EchoClient:
    """Open-loop UDP load generator measuring round-trip latency."""

    def __init__(
        self,
        sim: Simulator,
        endpoint,
        server_ip: int,
        packet_size: int = 75,
        rate_pps: float = 10_000.0,
        port: int = 20_000,
        server_port: int = ECHO_PORT,
        rng: Optional[Stream] = None,
        poisson: bool = False,
        metrics=None,
        flows=None,
        name: str = "echo-client",
        tenant: Optional[str] = None,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.server_ip = server_ip
        self.server_port = server_port
        self.packet_size = packet_size
        self.rate_pps = rate_pps
        self.rng = rng
        self.poisson = poisson
        self.sock = UdpSocket(sim, endpoint, port)
        self.sock.on_datagram(self._on_reply)
        self.stats = EchoStats()
        self.name = name
        # Multi-tenant serving: tag outbound frames so the net frontend's
        # per-tenant WFQ lanes can classify them (None -> untagged lane).
        self.tenant = tenant
        # When a pod's MetricsRegistry is passed in, RTTs are also observed
        # into an "echo_rtt_us" histogram, which keeps every observation,
        # so experiments can compute exact percentiles from the registry.
        self.rtt_hist = None
        if metrics is not None:
            self.rtt_hist = metrics.histogram(
                "echo_rtt_us", help="UDP echo round-trip time (us)",
                client=name,
            )
        # When a pod's FlowRegistry is passed in (and enabled), every echo
        # becomes an end-to-end flow record attributing its RTT across hops.
        self.flows = flows if flows is not None else NULL_FLOWS
        self._next_seq = 0
        self._task = None
        self._stopped = False

    def start(self, duration: float) -> None:
        """Schedule sends covering ``duration`` seconds from now."""
        self._stopped = False
        self._schedule_next(first=True)
        self.sim.schedule(duration, self._stop)

    def _stop(self) -> None:
        self._stopped = True

    def _interval(self) -> float:
        mean = 1.0 / self.rate_pps
        if self.poisson and self.rng is not None:
            return self.rng.exponential(mean)
        return mean

    def _schedule_next(self, first: bool = False) -> None:
        if self._stopped:
            return
        delay = 0.0 if first else self._interval()
        self.sim.call_after(delay, self._send_one)

    def _send_one(self) -> None:
        if self._stopped:
            return
        seq = self._next_seq
        self._next_seq += 1
        # Carry real bytes up to the declared wire size so CPU-side buffer
        # traffic (stores, copies, writebacks) is accounted at full size.
        from ..net.packet import HEADER_SIZE
        pad = max(0, self.packet_size - HEADER_SIZE - 8)
        payload = seq.to_bytes(8, "little") + b"\x00" * pad
        stats = self.stats
        stats.outstanding[seq] = self.sim.now
        stats.sent += 1
        stats.send_times.append(self.sim.now)
        frame = self.sock.sendto(payload, self.server_ip, self.server_port,
                                 wire_size=self.packet_size, seq=seq)
        if self.tenant is not None:
            frame.meta["tenant"] = self.tenant
        flow = self.flows.start("echo", origin=self.name, stage="client.tx",
                                seq=seq)
        if flow is not None:
            frame.meta["flow"] = flow
        self._schedule_next()

    def _on_reply(self, frame: Frame) -> None:
        stats = self.stats
        sent_at = stats.outstanding.pop(frame.seq, None)
        if sent_at is None:
            return
        if frame.meta:
            flow = frame.meta.get("flow")
            if flow is not None:
                self.flows.complete(flow)
        stats.received += 1
        rtt_us = (self.sim.now - sent_at) / USEC
        stats.latencies_us.append(rtt_us)
        if self.rtt_hist is not None:
            self.rtt_hist.observe(rtt_us)
        stats.recv_times.append(self.sim.now)
