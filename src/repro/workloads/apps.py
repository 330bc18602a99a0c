"""Application service models (Figures 8, 9 and 14).

The paper measures Oasis's overhead on four web applications (a Python HTTP
server, a Rust Rocket server, nginx, Apache Tomcat) and on memcached.  Each
is modelled as a single-worker request/response server with a calibrated
service-time distribution, so the *datapath* overhead under test rides on a
realistic application-latency floor, and queueing appears at high load just
as in Figure 8's near-saturation spikes.

Requests/responses ride the reliable transport (the apps are TCP-based), so
the memcached failover experiment (Figure 14) naturally shows the
retransmission-driven latency tail after a NIC failure.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from ..analysis.stats import percentile, summarize_latencies
from ..config import TransportConfig
from ..net.packet import Frame
from ..net.transport import ReliableSocket
from ..sim.core import Simulator, USEC
from ..sim.rng import Stream

__all__ = ["AppProfile", "APP_PROFILES", "AppServer", "AppClient"]

APP_PORT = 8080


@dataclass(frozen=True)
class AppProfile:
    """One application's service-time model and message sizes."""

    name: str
    service_mean_us: float
    service_sigma: float          # lognormal sigma
    request_bytes: int
    response_bytes: int

    @cached_property
    def _log_mu(self) -> float:
        """The normal's mean that gives the lognormal a mean of
        ``service_mean_us``."""
        return math.log(self.service_mean_us) - self.service_sigma ** 2 / 2

    def sample_service_us(self, rng: Stream) -> float:
        return rng.lognormal(self._log_mu, self.service_sigma)


#: Calibrated floors: an interpreted Python server is ~10x slower than nginx.
APP_PROFILES: Dict[str, AppProfile] = {
    "python-http": AppProfile("python-http", 85.0, 0.35, 200, 2048),
    "rocket": AppProfile("rocket", 14.0, 0.30, 200, 1024),
    "nginx": AppProfile("nginx", 9.0, 0.25, 180, 1024),
    "tomcat": AppProfile("tomcat", 28.0, 0.35, 220, 2048),
    "memcached": AppProfile("memcached", 2.5, 0.20, 64, 120),
}


class AppServer:
    """Single-worker request/response server over the reliable transport."""

    def __init__(
        self,
        sim: Simulator,
        endpoint,
        profile: AppProfile,
        rng: Stream,
        port: int = APP_PORT,
        transport_config: Optional[TransportConfig] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.sock = ReliableSocket(sim, endpoint, port, transport_config)
        self.sock.on_message(self._on_request)
        self._busy_until = 0.0
        self.served = 0

    def _on_request(self, frame: Frame) -> None:
        service = self.profile.sample_service_us(self.rng) * USEC
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service
        self.sim.at(self._busy_until, self._respond, frame)

    def _respond(self, request: Frame) -> None:
        self.served += 1
        self.sock.send(
            payload=bytes(min(self.profile.response_bytes, 1400)),
            dst_ip=request.src_ip,
            dst_port=request.src_port,
            wire_size=self.profile.response_bytes,
        )


class AppClient:
    """Open-loop Poisson client measuring request->response latency."""

    def __init__(
        self,
        sim: Simulator,
        endpoint,
        server_ip: int,
        profile: AppProfile,
        rate_rps: float,
        rng: Stream,
        port: int = 30_000,
        server_port: int = APP_PORT,
        transport_config: Optional[TransportConfig] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.rate_rps = rate_rps
        self.rng = rng
        self.server_ip = server_ip
        self.server_port = server_port
        self.sock = ReliableSocket(sim, endpoint, port, transport_config)
        self.sock.on_message(self._on_response)
        self._outstanding: Dict[int, float] = {}   # our request seq -> sent at
        self._sent_request_for: Dict[int, int] = {}
        self.latencies_us = array("d")
        self.response_times = array("d")
        self.sent = 0
        self._stopped = False

    def start(self, duration: float) -> None:
        self._stopped = False
        self.sim.schedule(0.0, self._send_one)
        self.sim.schedule(duration, self._stop)

    def _stop(self) -> None:
        self._stopped = True

    def _send_one(self) -> None:
        if self._stopped:
            return
        seq = self.sock.send(
            payload=bytes(min(self.profile.request_bytes, 1400)),
            dst_ip=self.server_ip,
            dst_port=self.server_port,
            wire_size=self.profile.request_bytes,
        )
        self._outstanding[seq] = self.sim.now
        self.sent += 1
        self.sim.schedule(self.rng.exponential(1.0 / self.rate_rps),
                          self._send_one)

    def _on_response(self, frame: Frame) -> None:
        # Responses arrive in submission order per server; match greedily by
        # oldest outstanding request (the server responds FIFO).  Sequence
        # numbers rise with each send, so the oldest is the first key.
        if not self._outstanding:
            return
        seq = next(iter(self._outstanding))
        sent_at = self._outstanding.pop(seq)
        self.latencies_us.append((self.sim.now - sent_at) / USEC)
        self.response_times.append(self.sim.now)

    def latency_percentiles(self) -> dict:
        return summarize_latencies(self.latencies_us)

    def p99_timeline(self, bin_s: float, duration: float) -> List[float]:
        """Per-bin P99 latency (Figure 14), NaN for a bin without responses.

        Bin ``b`` holds the responses in ``[b * bin_s, (b + 1) * bin_s)``.
        """
        bins = math.ceil(duration / bin_s)
        edges = [b * bin_s for b in range(bins + 1)]
        per_bin = [[] for _ in range(bins)]
        for t, lat in zip(self.response_times, self.latencies_us):
            b = bisect_right(edges, t) - 1
            if 0 <= b < bins:
                per_bin[b].append(lat)
        return [percentile(lats, 99) for lats in per_bin]
