"""Tests for the learning switch -- including the MAC-borrowing mechanics
that Oasis failover depends on (§3.3.3)."""

import pytest

from repro.net.packet import BROADCAST_MAC, Frame, make_mac
from repro.net.switch import LearningSwitch
from repro.sim.core import Simulator, USEC

A, B, C = make_mac(1), make_mac(2), make_mac(3)


def build(sim, n_ports=3):
    switch = LearningSwitch(sim)
    inboxes = []
    ports = []
    for _ in range(n_ports):
        port = switch.new_port()
        inbox = []
        port.attach(inbox.append)
        ports.append(port)
        inboxes.append(inbox)
    return switch, ports, inboxes


class TestLearning:
    def test_unknown_destination_floods(self, sim):
        switch, ports, inboxes = build(sim)
        ports[0].receive(Frame(dst_mac=B, src_mac=A))
        sim.run_all()
        assert len(inboxes[1]) == 1 and len(inboxes[2]) == 1
        assert len(inboxes[0]) == 0  # never back out the ingress port

    def test_learned_destination_unicast(self, sim):
        switch, ports, inboxes = build(sim)
        ports[1].receive(Frame(dst_mac=A, src_mac=B))   # learn B @ port 1
        sim.run_all()
        ports[0].receive(Frame(dst_mac=B, src_mac=A))
        sim.run_all()
        assert len(inboxes[1]) == 1   # the unicast (floods skip the ingress)
        assert len(inboxes[2]) == 1   # only the initial flood

    def test_broadcast_always_floods(self, sim):
        switch, ports, inboxes = build(sim)
        ports[0].receive(Frame(dst_mac=BROADCAST_MAC, src_mac=A))
        sim.run_all()
        assert len(inboxes[1]) == len(inboxes[2]) == 1

    def test_mac_moves_to_new_port(self, sim):
        """MAC borrowing: a frame with the borrowed source MAC relearns the
        mapping, rerouting subsequent traffic (§3.3.3)."""
        switch, ports, inboxes = build(sim)
        ports[0].receive(Frame(dst_mac=C, src_mac=A))
        sim.run_all()
        assert switch.port_of_mac(A) == 0
        ports[1].receive(Frame(dst_mac=C, src_mac=A))   # port 1 borrows A
        sim.run_all()
        assert switch.port_of_mac(A) == 1
        ports[2].receive(Frame(dst_mac=A, src_mac=C))
        sim.run_all()
        assert len(inboxes[1]) > 0

    def test_same_port_destination_not_echoed(self, sim):
        switch, ports, inboxes = build(sim)
        ports[0].receive(Frame(dst_mac=A, src_mac=B))   # learn B @ 0
        sim.run_all()
        ports[0].receive(Frame(dst_mac=B, src_mac=A))   # B is on same port
        sim.run_all()
        assert len(inboxes[0]) == 0


class TestPortAdmin:
    def test_disabled_port_drops_egress(self, sim):
        switch, ports, inboxes = build(sim)
        ports[1].receive(Frame(dst_mac=A, src_mac=B))   # learn B @ 1
        sim.run_all()
        ports[1].set_enabled(False)
        ports[0].receive(Frame(dst_mac=B, src_mac=A))
        sim.run_all()
        assert inboxes[1] == [] or len(inboxes[1]) == 1  # only the learn flood
        assert ports[1].dropped_frames >= 1

    def test_disabled_port_drops_ingress(self, sim):
        switch, ports, inboxes = build(sim)
        ports[0].set_enabled(False)
        ports[0].receive(Frame(dst_mac=B, src_mac=A))
        sim.run_all()
        assert all(not inbox for inbox in inboxes)

    def test_link_change_notifies_listeners(self, sim):
        switch, ports, _ = build(sim)
        events = []
        ports[0].on_link_change(events.append)
        ports[0].set_enabled(False)
        ports[0].set_enabled(False)   # idempotent: no duplicate event
        ports[0].set_enabled(True)
        assert events == [False, True]

    def test_frame_inflight_when_port_goes_down_is_dropped(self, sim):
        switch, ports, inboxes = build(sim)
        ports[1].receive(Frame(dst_mac=A, src_mac=B))
        sim.run_all()
        ports[0].receive(Frame(dst_mac=B, src_mac=A))
        ports[1].set_enabled(False)   # before delivery event fires
        sim.run_all()
        assert len(inboxes[1]) == 0   # in-flight frame dropped at the port


class TestTiming:
    def test_serialization_delay_scales_with_size(self, sim):
        switch, ports, inboxes = build(sim, n_ports=2)
        ports[1].receive(Frame(dst_mac=A, src_mac=B))
        sim.run_all()
        t0 = sim.now
        arrivals = []
        ports[1]._deliver = lambda f: arrivals.append(sim.now)
        ports[0].receive(Frame(dst_mac=B, src_mac=A, payload=b"x" * 1400,
                               wire_size=1500))
        sim.run_all()
        big = arrivals[0] - t0
        # 1500 B at 100 Gbit/s = 120 ns + 0.5 us port latency
        assert big == pytest.approx(0.5 * USEC + 1500 / 12.5e9, rel=0.01)

    def test_queueing_backlog_accumulates(self, sim):
        switch, ports, _ = build(sim, n_ports=2)
        ports[1].receive(Frame(dst_mac=A, src_mac=B))
        sim.run_all()
        for _ in range(10):
            ports[0].receive(Frame(dst_mac=B, src_mac=A, wire_size=1500))
        assert ports[1]._busy_until > sim.now     # a serialization backlog
        sim.run_all()

    def test_port_counters(self, sim):
        switch, ports, _ = build(sim, n_ports=2)
        ports[0].receive(Frame(dst_mac=BROADCAST_MAC, src_mac=A, wire_size=100))
        sim.run_all()
        assert ports[1].tx_frames == 1
        assert ports[1].tx_bytes == 100
