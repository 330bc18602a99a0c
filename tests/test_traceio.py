"""Tests for instance-to-instance traffic."""

from repro.core.pod import CXLPod
from repro.net.packet import make_ip
from repro.net.transport import UdpSocket


class TestInstanceToInstanceTraffic:
    def test_two_instances_on_different_hosts_exchange_datagrams(self):
        """East-west pod traffic: both ends ride Oasis-pooled NICs."""
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        ip_a, ip_b = make_ip(10, 0, 0, 1), make_ip(10, 0, 0, 2)
        # Cross placement: each instance uses the *other* host's NIC.
        inst_a = pod.add_instance(h0, ip=ip_a, nic=nic1)
        inst_b = pod.add_instance(h1, ip=ip_b, nic=nic0)
        sock_a = UdpSocket(pod.sim, inst_a, port=100)
        sock_b = UdpSocket(pod.sim, inst_b, port=200)
        got_a, got_b = [], []
        sock_a.on_datagram(got_a.append)
        sock_b.on_datagram(lambda f: (got_b.append(f),
                                      sock_b.reply(f, payload=b"pong")))
        for i in range(20):
            sock_a.sendto(b"ping", ip_b, 200, seq=i)
        pod.run(0.02)
        assert len(got_b) == 20
        assert len(got_a) == 20
        assert got_a[0].payload == b"pong"
        assert nic0.tx_frames > 0 and nic1.tx_frames > 0
