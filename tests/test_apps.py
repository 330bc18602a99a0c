"""Tests for the application service models (Figures 8/9/14 workloads)."""

import numpy as np
import pytest

from repro.net.packet import Frame, make_ip
from repro.sim.core import USEC, Simulator
from repro.workloads.apps import APP_PROFILES, AppClient, AppProfile, AppServer


class LoopbackEndpoint:
    """Zero-latency loopback wire for exercising the app layer alone."""

    def __init__(self, sim, ip):
        self.sim = sim
        self.ip = ip
        self.peer = None
        self.handlers = []

    def connect(self, peer):
        self.peer = peer
        peer.peer = self

    def send_frame(self, frame):
        if frame.src_ip == 0:
            frame.src_ip = self.ip
        self.sim.schedule(1e-6, self.peer._deliver, frame)

    def add_handler(self, fn):
        self.handlers.append(fn)

    def _deliver(self, frame):
        for fn in self.handlers:
            fn(frame)


@pytest.fixture
def wire(sim):
    a = LoopbackEndpoint(sim, make_ip(10, 0, 9, 1))
    b = LoopbackEndpoint(sim, make_ip(10, 0, 0, 1))
    a.connect(b)
    return a, b


class TestAppServer:
    def test_serves_requests(self, sim, wire, rng):
        client_ep, server_ep = wire
        profile = APP_PROFILES["nginx"]
        server = AppServer(sim, server_ep, profile, rng)
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=5000, rng=rng)
        client.start(0.02)
        sim.run(until=0.05)
        assert server.served > 50
        assert len(client.latencies_us) == server.served

    def test_latency_floor_is_service_time(self, sim, wire, rng):
        client_ep, server_ep = wire
        profile = AppProfile("fixed", 50.0, 0.01, 100, 100)
        AppServer(sim, server_ep, profile, rng)
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=1000, rng=rng)
        client.start(0.02)
        sim.run(until=0.05)
        assert min(client.latencies_us) >= 50.0

    def test_single_worker_queues_under_load(self, sim, wire, rng):
        client_ep, server_ep = wire
        profile = AppProfile("slow", 100.0, 0.01, 100, 100)
        AppServer(sim, server_ep, profile, rng)
        # Offered load 2x capacity: latency must blow up with queueing.
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=20_000, rng=rng)
        client.start(0.02)
        sim.run(until=0.05)
        stats = client.latency_percentiles()
        assert stats["p99"] > 5 * profile.service_mean_us

    def test_low_load_stays_near_floor(self, sim, wire, rng):
        client_ep, server_ep = wire
        profile = AppProfile("fast", 20.0, 0.05, 100, 100)
        AppServer(sim, server_ep, profile, rng)
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=2000, rng=rng)   # 4 % load
        client.start(0.05)
        sim.run(until=0.1)
        stats = client.latency_percentiles()
        assert stats["p50"] < 2.5 * profile.service_mean_us

    def test_p99_timeline_bins(self, sim, wire, rng):
        client_ep, server_ep = wire
        profile = APP_PROFILES["memcached"]
        AppServer(sim, server_ep, profile, rng)
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=5000, rng=rng)
        client.start(0.3)
        sim.run(until=0.4)
        timeline = client.p99_timeline(0.1, 0.3)
        assert len(timeline) == 3
        assert all(v > 0 for v in timeline if v == v)

    def test_responses_matched_fifo(self, sim, wire, rng):
        """The client matches responses to the oldest outstanding request,
        which is exact for a FIFO single-worker server."""
        client_ep, server_ep = wire
        profile = AppProfile("fixed", 30.0, 0.0, 100, 100)
        AppServer(sim, server_ep, profile, rng)
        client = AppClient(sim, client_ep, server_ep.ip, profile,
                           rate_rps=10_000, rng=rng)
        client.start(0.01)
        sim.run(until=0.03)
        # Deterministic service: latency = queue wait + 30 us, monotone in
        # queue depth; no negative or absurd values from mismatching.
        assert all(25.0 <= lat < 10_000 for lat in client.latencies_us)

    def test_first_outstanding_is_the_oldest_under_a_deep_queue(self, sim, wire):
        """With hundreds of requests outstanding, matching each response to
        the first key in send order pairs exactly what the oldest-seq rule
        (``min`` over the keys) pairs: the same latency list, bit for bit."""

        class MinMatchClient(AppClient):
            def _on_response(self, frame):
                if self._outstanding:
                    seq = min(self._outstanding)
                    sent_at = self._outstanding.pop(seq)
                    self.latencies_us.append((self.sim.now - sent_at) / USEC)

        def run(client_cls):
            sim = Simulator()
            client_ep = LoopbackEndpoint(sim, make_ip(10, 0, 9, 1))
            server_ep = LoopbackEndpoint(sim, make_ip(10, 0, 0, 1))
            client_ep.connect(server_ep)
            profile = AppProfile("slow", 200.0, 0.3, 100, 100)
            AppServer(sim, server_ep, profile, np.random.default_rng(3))
            client = client_cls(sim, client_ep, server_ep.ip, profile,
                                rate_rps=50_000, rng=np.random.default_rng(4))
            depth = []
            client.start(0.02)
            sim.every(1e-3, lambda: depth.append(len(client._outstanding)))
            sim.run(until=0.02)
            return client.latencies_us, max(depth)

        fifo, deepest = run(AppClient)
        reference, _ = run(MinMatchClient)
        assert deepest > 500
        assert len(fifo) > 50
        assert fifo == reference
