"""Tests for the datagram and reliable transports."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransportConfig
from repro.net.packet import PROTO_TCP, PROTO_UDP, Frame
from repro.net.transport import (FLAG_ACK, ReceivedSeqs, ReliableSocket,
                                 UdpSocket)
from repro.sim.core import MSEC, Simulator

MAX_EXAMPLES = max(200, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")))


class FakeEndpoint:
    """A loopback wire between two endpoints with controllable loss."""

    def __init__(self, sim, ip, latency_s=1e-6):
        self.sim = sim
        self.ip = ip
        self.latency = latency_s
        self.peer = None
        self.handlers = []
        self.drop_all = False
        self.sent = 0

    def connect(self, peer):
        self.peer = peer
        peer.peer = self

    def send_frame(self, frame):
        self.sent += 1
        if frame.src_ip == 0:
            frame.src_ip = self.ip
        if self.drop_all:
            return
        self.sim.schedule(self.latency, self.peer._deliver, frame)

    def add_handler(self, fn):
        self.handlers.append(fn)

    def _deliver(self, frame):
        for fn in self.handlers:
            fn(frame)


@pytest.fixture
def pair(sim):
    a = FakeEndpoint(sim, ip=1)
    b = FakeEndpoint(sim, ip=2)
    a.connect(b)
    return a, b


class TestUdpSocket:
    def test_delivery_and_port_demux(self, sim, pair):
        a, b = pair
        sock_b = UdpSocket(sim, b, port=7)
        other = UdpSocket(sim, b, port=8)
        got, got_other = [], []
        sock_b.on_datagram(got.append)
        other.on_datagram(got_other.append)
        sock_a = UdpSocket(sim, a, port=100)
        sock_a.sendto(b"hi", dst_ip=2, dst_port=7)
        sim.run_all()
        assert len(got) == 1 and got[0].payload == b"hi"
        assert got_other == []

    def test_reply_reaches_sender(self, sim, pair):
        a, b = pair
        server = UdpSocket(sim, b, port=7)
        server.on_datagram(lambda f: server.reply(f, payload=b"pong"))
        client = UdpSocket(sim, a, port=100)
        got = []
        client.on_datagram(got.append)
        client.sendto(b"ping", dst_ip=2, dst_port=7, seq=5)
        sim.run_all()
        assert got[0].payload == b"pong"
        assert got[0].seq == 5

    def test_non_udp_ignored(self, sim, pair):
        a, b = pair
        sock = UdpSocket(sim, b, port=7)
        got = []
        sock.on_datagram(got.append)
        a.send_frame(Frame(dst_mac=0, src_mac=0, dst_ip=2, proto=PROTO_TCP,
                           dst_port=7))
        sim.run_all()
        assert got == []


class TestReliableSocket:
    def test_delivery_and_ack(self, sim, pair):
        a, b = pair
        rs_a = ReliableSocket(sim, a, port=10)
        rs_b = ReliableSocket(sim, b, port=20)
        got = []
        rs_b.on_message(got.append)
        rs_a.send(b"data", dst_ip=2, dst_port=20)
        sim.run_all()
        assert len(got) == 1
        assert rs_a.inflight == 0          # ack cancelled the timer
        assert rs_a.retransmits == 0

    def test_loss_triggers_retransmit(self, sim, pair):
        a, b = pair
        config = TransportConfig(initial_rto_ms=10.0)
        rs_a = ReliableSocket(sim, a, port=10, config=config)
        rs_b = ReliableSocket(sim, b, port=20, config=config)
        got = []
        rs_b.on_message(got.append)
        a.drop_all = True
        rs_a.send(b"data", dst_ip=2, dst_port=20)
        sim.run(until=5 * MSEC)
        assert got == []
        a.drop_all = False                 # "failover" completes
        sim.run_all()
        assert len(got) == 1
        assert rs_a.retransmits >= 1
        assert rs_a.inflight == 0

    def test_retransmit_backoff(self, sim, pair):
        a, b = pair
        config = TransportConfig(initial_rto_ms=10.0,
                                 rto_backoff=2.0, max_rto_ms=1000.0)
        rs_a = ReliableSocket(sim, a, port=10, config=config)
        ReliableSocket(sim, b, port=20, config=config)
        a.drop_all = True
        rs_a.send(b"data", dst_ip=2, dst_port=20)
        sim.run(until=35 * MSEC)
        # 10 ms, then 20 ms backoff: exactly 2 retransmits by t=35 ms.
        assert rs_a.retransmits == 2

    def test_gives_up_after_max_retries(self, sim, pair):
        a, b = pair
        config = TransportConfig(initial_rto_ms=1.0,
                                 rto_backoff=1.0, max_retries=3)
        rs_a = ReliableSocket(sim, a, port=10, config=config)
        gave_up = []
        rs_a.on_give_up(gave_up.append)
        a.drop_all = True
        seq = rs_a.send(b"data", dst_ip=2, dst_port=20)
        sim.run_all()
        assert gave_up == [seq]
        assert rs_a.inflight == 0

    def test_duplicate_suppression(self, sim, pair):
        """A late original + a retransmit must deliver exactly once."""
        a, b = pair
        config = TransportConfig(initial_rto_ms=1.0)
        rs_a = ReliableSocket(sim, a, port=10, config=config)
        rs_b = ReliableSocket(sim, b, port=20, config=config)
        got = []
        rs_b.on_message(got.append)
        # Delay delivery beyond the RTO so both copies arrive.
        a.latency = 2 * MSEC
        rs_a.send(b"data", dst_ip=2, dst_port=20)
        sim.run_all()
        assert len(got) == 1
        assert rs_b.received == 1

    def test_many_messages_all_delivered(self, sim, pair):
        a, b = pair
        rs_a = ReliableSocket(sim, a, port=10)
        rs_b = ReliableSocket(sim, b, port=20)
        got = []
        rs_b.on_message(got.append)
        for i in range(50):
            rs_a.send(bytes([i]), dst_ip=2, dst_port=20)
        sim.run_all()
        assert len(got) == 50

    def test_ack_frames_not_delivered_as_data(self, sim, pair):
        a, b = pair
        rs_a = ReliableSocket(sim, a, port=10)
        rs_b = ReliableSocket(sim, b, port=20)
        got_a, got_b = [], []
        rs_a.on_message(got_a.append)
        rs_b.on_message(got_b.append)
        rs_a.send(b"x", dst_ip=2, dst_port=20)
        sim.run_all()
        assert len(got_b) == 1 and got_a == []


@st.composite
def arrivals(draw):
    """Two peers' seq streams, each reordered, duplicated and lossy, then
    interleaved: ``[(peer, seq), ...]``.  A lost seq never arrives (its
    sender gave up), so the seqs above it stay ahead of a gap."""
    out = []
    for peer in (0, 1):
        n = draw(st.integers(0, 40))
        seqs = draw(st.permutations(range(1, n + 1)))
        lost = draw(st.sets(st.integers(1, max(1, n)), max_size=3))
        seqs = [s for s in seqs if s not in lost]
        for _ in range(draw(st.integers(0, n))):
            seqs.insert(draw(st.integers(0, len(seqs))),
                        draw(st.integers(1, max(1, n))))
        out.append([(peer, s) for s in seqs if s not in lost])
    merged, (first, second) = [], out
    while first or second:
        source = first if (first and (not second or draw(st.booleans()))) \
            else second
        merged.append(source.pop(0))
    return merged


class TestReceivedSeqs:
    """The duplicate filter is a watermark plus an out-of-order set; it
    must decide every arrival as the set of every seq received did."""

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(arrivals())
    def test_decisions_equal_the_set_of_every_seq(self, stream):
        sim = Simulator()
        b = FakeEndpoint(sim, ip=2)
        sock = ReliableSocket(sim, b, port=20)
        b.peer = FakeEndpoint(sim, ip=1)       # ACKs go nowhere
        b.peer.handlers = []
        delivered = []
        sock.on_message(lambda f: delivered.append((f.src_port, f.seq)))
        every = set()                           # the old filter, the oracle
        expected = []
        for peer, seq in stream:
            if (peer, seq) not in every:
                every.add((peer, seq))
                expected.append((100 + peer, seq))
            b._deliver(Frame(dst_mac=0, src_mac=0, src_ip=1, dst_ip=2,
                             proto=PROTO_TCP, src_port=100 + peer,
                             dst_port=20, seq=seq, payload=b"m"))
        sim.run_all()
        assert delivered == expected
        assert sock.received == len(expected)
        for (_ip, port), window in sock._seen.items():
            got = {seq for peer, seq in every if 100 + peer == port}
            assert set(range(1, window.floor + 1)) <= got
            assert window.floor + 1 not in got
            assert window.above == {s for s in got if s > window.floor}

    def test_in_order_stream_holds_no_set(self):
        window = ReceivedSeqs()
        assert all(window.add(seq) for seq in range(1, 1001))
        assert (window.floor, window.above) == (1000, set())
        assert not window.add(1) and not window.add(1000)
        assert window.add(1002) and window.above == {1002}
        assert window.add(1001) and (window.floor, window.above) == (1002, set())
