"""Packet-trace replay through the simulated Oasis stack (§5.2, Figure 12).

The paper replays rack A's inbound captures: two clients generate matching
UDP traffic to two hosts; each host echoes the packets back and the clients
record round-trip latency.  In the baseline each host uses its own NIC; with
multiplexing both share host 1's NIC.  Both setups run Oasis, so the
comparison isolates *multiplexing interference*.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.stats import summarize_latencies, utilization_percentile
from ..core.pod import CXLPod
from ..net.packet import make_ip
from ..workloads.echo import EchoServer
from ..workloads.traces import PacketTrace
from ..net.transport import UdpSocket
from ..sim.core import Simulator, USEC

__all__ = ["TraceReplayClient", "ReplayResult", "run_trace_replay"]


class TraceReplayClient:
    """Replays a PacketTrace as UDP requests and records RTTs."""

    def __init__(self, sim: Simulator, endpoint, server_ip: int,
                 trace: PacketTrace, port: int = 21_000, server_port: int = 7):
        self.sim = sim
        self.trace = trace
        self.server_ip = server_ip
        self.server_port = server_port
        self.sock = UdpSocket(sim, endpoint, port)
        self.sock.on_datagram(self._on_reply)
        self._send_time: Dict[int, float] = {}
        self.latencies_us = array("d")
        self.recv_times = array("d")
        self.recv_sizes: List[int] = []
        self.sent = 0

    def start(self) -> None:
        base = self.sim.now
        for seq, (t, size) in enumerate(zip(self.trace.times, self.trace.sizes)):
            self.sim.at(base + float(t), self._send_one, seq, int(size))

    def _send_one(self, seq: int, size: int) -> None:
        from ..net.packet import HEADER_SIZE

        self._send_time[seq] = self.sim.now
        self.sent += 1
        pad = max(0, size - HEADER_SIZE - 8)
        self.sock.sendto(seq.to_bytes(8, "little") + b"\x00" * pad,
                         self.server_ip, self.server_port, wire_size=size,
                         seq=seq)

    def _on_reply(self, frame) -> None:
        sent_at = self._send_time.pop(frame.seq, None)
        if sent_at is None:
            return
        self.latencies_us.append((self.sim.now - sent_at) / USEC)
        self.recv_times.append(self.sim.now)
        self.recv_sizes.append(frame.wire_size)

    @property
    def received(self) -> int:
        return len(self.latencies_us)


@dataclass
class ReplayResult:
    """Per-host RTT summaries plus aggregated NIC utilization."""

    multiplexed: bool
    per_host: List[dict]
    nic_p9999_util: float
    lost: int


def run_trace_replay(
    traces: List[PacketTrace],
    multiplexed: bool,
    duration_s: Optional[float] = None,
    config=None,
) -> ReplayResult:
    """Replay one trace per host; share host 0's NIC when multiplexed."""
    import numpy as np
    pod = CXLPod(config=config, mode="oasis")
    hosts = [pod.add_host() for _ in traces]
    nics = [pod.add_nic(h) for h in hosts]

    clients = []
    for i, trace in enumerate(traces):
        inst = pod.add_instance(
            hosts[i], ip=make_ip(10, 0, 0, 10 + i),
            nic=nics[0] if multiplexed else nics[i],
        )
        EchoServer(pod.sim, inst)
        client_endpoint = pod.add_external_client(ip=make_ip(10, 0, 9, 10 + i))
        client = TraceReplayClient(pod.sim, client_endpoint, inst.ip, trace)
        client.start()
        clients.append(client)

    run_for = duration_s if duration_s is not None else traces[0].duration_s
    pod.run(run_for + 0.02)   # drain tail
    pod.stop()

    # Aggregated utilization: the traffic the NIC(s) must carry (the offered
    # traces), relative to the provisioned NIC capacity -- one NIC when
    # multiplexed, one per host otherwise.  This mirrors the paper, where
    # Figure 12's 18 % -> 37 % is the Table 2 aggregated-utilization metric
    # recomputed against the shared NIC.
    all_times = np.concatenate([t.times for t in traces])
    all_sizes = np.concatenate([t.sizes for t in traces]).astype(float)
    line = traces[0].params.line_bytes_per_sec
    denominator = line if multiplexed else line * len(traces)
    util = utilization_percentile(all_times, all_sizes, run_for, denominator,
                                  99.99) if len(all_times) else 0.0
    lost = sum(c.sent - c.received for c in clients)
    return ReplayResult(
        multiplexed=multiplexed,
        per_host=[summarize_latencies(c.latencies_us) for c in clients],
        nic_p9999_util=util,
        lost=lost,
    )
