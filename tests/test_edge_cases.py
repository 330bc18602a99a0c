"""Edge-case and overload tests across the datapath."""

from dataclasses import replace

import pytest

from repro.config import DatapathConfig, OasisConfig
from repro.core.pod import CXLPod
from repro.net.packet import make_ip
from repro.net.transport import UdpSocket
from repro.workloads.echo import EchoClient, EchoServer

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def tiny_channel_config(slots=16):
    return OasisConfig(
        datapath=replace(OasisConfig().datapath, channel_slots=slots)
    )


def sender_ops(pod, op, channel):
    return pod.metrics.value("channel_ops", op=op, channel=channel,
                             role="sender")


class TestChannelOverload:
    def test_tiny_rings_still_deliver_all_traffic(self):
        """With 16-slot rings every sender runs out of cached credit within
        a few echoes and must re-read the consumed counter; at 50 kpps the
        refresh always finds room, so no ring fills (the full-ring path is
        the next test's and tests/test_engine.py's backpressure matrix) and
        nothing may be lost or leaked."""
        pod = CXLPod(config=tiny_channel_config(16), mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic)
        EchoServer(pod.sim, inst)
        client = pod.add_external_client(ip=CLIENT_IP)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=50_000)
        ec.start(0.02)
        pod.run(0.1)
        # UDP may lose a few under overload, but the vast majority arrives
        # and every TX buffer is eventually freed.
        assert ec.stats.received >= ec.stats.sent * 0.95
        frontend = pod.frontends[h1.name]
        assert len(frontend._tx_pending) == 0
        for channel in ("h1-nic-h0-ab", "h1-nic-h0-ba"):
            assert sender_ops(pod, "counter_refreshes", channel) > 0
            assert sender_ops(pod, "full_stalls", channel) == 0

    def test_burst_larger_than_ring(self):
        """64 packets at once at a 16-slot ring: it is the backend ->
        frontend ring that fills, and the backend parks and retries."""
        pod = CXLPod(config=tiny_channel_config(16), mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic)
        got = []
        inst.add_handler(lambda f: got.append(f.seq))
        client = pod.add_external_client(ip=CLIENT_IP)
        sock = UdpSocket(pod.sim, client, port=99)
        for i in range(64):   # 4x the ring size, all at once
            sock.sendto(b"x", SERVER_IP, 7, seq=i)
        pod.run(0.05)
        assert got == list(range(64))
        assert sender_ops(pod, "full_stalls", "h1-nic-h0-ba") > 0
        assert sender_ops(pod, "full_stalls", "h1-nic-h0-ab") == 0
        assert not pod.backends[nic.name]._backlog


class TestInstanceEdgeCases:
    def test_tx_area_exhaustion_drops_gracefully(self):
        config = OasisConfig(
            datapath=replace(OasisConfig().datapath,
                             instance_tx_area_bytes=4096)
        )
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h0, ip=SERVER_IP, nic=nic)
        from repro.net.packet import Frame

        # Fire a burst far beyond 4 KB of in-flight TX buffers.
        for i in range(64):
            inst.send_frame(Frame(dst_mac=0, src_mac=0, dst_ip=CLIENT_IP,
                                  payload=b"z" * 1000))
        frontend = pod.frontends[h0.name]
        assert frontend.tx_no_buffer > 0        # drops counted, no crash
        pod.run(0.01)

    def test_duplicate_instance_ip_rejected(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        pod.add_instance(h0, ip=SERVER_IP)
        from repro.errors import AllocationError, LeaseError

        with pytest.raises((AllocationError, LeaseError)):
            pod.add_instance(h0, ip=SERVER_IP)

    def test_two_instances_share_one_nic(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        ip_a = make_ip(10, 0, 0, 1)
        ip_b = make_ip(10, 0, 0, 2)
        inst_a = pod.add_instance(h1, ip=ip_a, nic=nic)
        inst_b = pod.add_instance(h1, ip=ip_b, nic=nic)
        EchoServer(pod.sim, inst_a)
        EchoServer(pod.sim, inst_b)
        client = pod.add_external_client(ip=CLIENT_IP)
        ec_a = EchoClient(pod.sim, client, ip_a, rate_pps=5000, port=20_001)
        ec_b = EchoClient(pod.sim, client, ip_b, rate_pps=5000, port=20_002)
        ec_a.start(0.01)
        ec_b.start(0.01)
        pod.run(0.03)
        # Flow tagging demultiplexes both instances on the shared NIC.
        assert ec_a.stats.received == ec_a.stats.sent > 0
        assert ec_b.stats.received == ec_b.stats.sent > 0
        assert inst_a.rx_frames == ec_a.stats.sent
        assert inst_b.rx_frames == ec_b.stats.sent

    def test_instances_on_three_hosts_share_one_nic(self):
        """The paper's headline configuration: every 3 hosts one NIC."""
        pod = CXLPod(mode="oasis")
        hosts = [pod.add_host() for _ in range(3)]
        nic = pod.add_nic(hosts[0])
        clients = []
        for i, host in enumerate(hosts):
            ip = make_ip(10, 0, 0, 10 + i)
            inst = pod.add_instance(host, ip=ip, nic=nic)
            EchoServer(pod.sim, inst)
            endpoint = pod.add_external_client(ip=make_ip(10, 0, 9, 10 + i))
            ec = EchoClient(pod.sim, endpoint, ip, rate_pps=3000)
            ec.start(0.01)
            clients.append(ec)
        pod.run(0.04)
        for ec in clients:
            assert ec.stats.received == ec.stats.sent > 0


class TestCliEntrypoint:
    def test_help_lists_experiments(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table3" in out

    def test_unknown_experiment_errors(self, capsys):
        from repro.__main__ import main

        assert main(["nonsense"]) == 2

    def test_runs_single_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
