"""Tests for the network engine: message codec and end-to-end TX/RX flows."""

import pytest

from repro.config import NICConfig, OasisConfig
from repro.core.netengine.messages import (
    NET_MESSAGE_SIZE,
    OP_RX,
    OP_RX_COMP,
    OP_TX,
    OP_TX_COMP,
    NetMessage,
)
from repro.core.pod import CXLPod
from repro.errors import ChannelError
from repro.net.packet import Frame, make_ip
from repro.workloads.echo import EchoClient, EchoServer

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


class TestMessageCodec:
    def test_roundtrip(self):
        message = NetMessage(OP_TX, 1500, SERVER_IP, 0xDEADBEEF00)
        out = NetMessage.unpack(message.pack())
        assert [getattr(out, f) for f in NetMessage.__slots__] == \
            [getattr(message, f) for f in NetMessage.__slots__]

    def test_exactly_16_bytes(self):
        assert NET_MESSAGE_SIZE == 16
        assert len(NetMessage(OP_RX, 64, 1, 2).pack()) == 16

    def test_opcode_leaves_epoch_bit_clear(self):
        for op in (OP_TX, OP_TX_COMP, OP_RX, OP_RX_COMP):
            assert op < 0x80

    def test_invalid_opcode_rejected(self):
        with pytest.raises(ChannelError):
            NetMessage(0x7F, 0, 0, 0).pack()
        with pytest.raises(ChannelError):
            NetMessage.unpack(b"\x7f" + bytes(15))

    def test_size_field_bounds(self):
        with pytest.raises(ChannelError):
            NetMessage(OP_TX, 70_000, 0, 0).pack()


def build_pod(mode="oasis", remote=True):
    pod = CXLPod(mode=mode)
    h0 = pod.add_host()
    h1 = pod.add_host() if remote else h0
    nic = pod.add_nic(h0)
    inst = pod.add_instance(h1 if remote else h0, ip=SERVER_IP, nic=nic)
    client = pod.add_external_client(ip=CLIENT_IP)
    return pod, inst, client, nic


class TestEndToEnd:
    def test_oasis_echo_roundtrip(self):
        pod, inst, client, nic = build_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, packet_size=128,
                        rate_pps=10_000)
        ec.start(0.01)
        pod.run(0.03)
        assert ec.stats.received == ec.stats.sent > 0

    def test_payload_bytes_survive_the_noncoherent_path(self):
        """End-to-end bit-exactness through CXL buffers, DMA and copies."""
        pod, inst, client, nic = build_pod()
        received = []
        inst.add_handler(lambda f: received.append(f.payload))
        pattern = bytes(range(256)) * 4
        from repro.net.transport import UdpSocket

        sock = UdpSocket(pod.sim, client, port=555)
        sock.sendto(pattern, SERVER_IP, 7, wire_size=1500)
        pod.run(0.01)
        assert received == [pattern]

    def test_backend_never_inspects_tagged_rx(self):
        pod, inst, client, nic = build_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=5000)
        ec.start(0.01)
        pod.run(0.03)
        backend = pod.backends[nic.name]
        assert backend.rx_fallback_inspections == 0
        assert backend.rx_forwarded > 0

    def test_fallback_inspection_without_flow_tagging(self):
        config = OasisConfig(nic=NICConfig(max_flow_tags=0))
        pod = CXLPod(config=config)
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic)
        client = pod.add_external_client(ip=CLIENT_IP)
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=5000)
        ec.start(0.01)
        pod.run(0.03)
        backend = pod.backends[nic.name]
        assert ec.stats.received == ec.stats.sent > 0
        assert backend.rx_fallback_inspections > 0

    def test_unknown_destination_dropped(self):
        pod, inst, client, nic = build_pod()
        from repro.net.transport import UdpSocket

        sock = UdpSocket(pod.sim, client, port=555)
        # The ARP registry has no mapping: the frame floods and reaches the
        # NIC, which has no flow tag or registration for this IP.
        sock.sendto(b"lost", make_ip(10, 0, 0, 99), 7)
        pod.run(0.01)
        backend = pod.backends[nic.name]
        assert backend.rx_dropped_unknown >= 0   # never crashes

    def test_tx_buffers_freed_after_completion(self):
        pod, inst, client, nic = build_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=10_000)
        ec.start(0.02)
        pod.run(0.06)
        frontend = pod.frontends[inst.host.name]
        record = frontend.record_of(SERVER_IP)
        assert frontend._tx_pending == {}
        assert record.tx_area.allocated_bytes == 0

    def test_rx_buffers_recycled(self):
        pod, inst, client, nic = build_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=20_000)
        ec.start(0.02)
        pod.run(0.06)
        backend = pod.backends[nic.name]
        # All buffers back in the pool or posted in the RX ring.
        assert backend.rx_pool.outstanding == len(backend.nic.rx_ring)

    def test_local_mode_echo(self):
        pod, inst, client, nic = build_pod(mode="local", remote=False)
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=10_000)
        ec.start(0.01)
        pod.run(0.03)
        assert ec.stats.received == ec.stats.sent > 0
        # Baseline never touches the shared CXL pool for payload.
        assert pod.cxl_traffic_by_category().get("payload", 0) == 0

    def test_local_cxl_buffers_mode_uses_pool(self):
        pod, inst, client, nic = build_pod(mode="local-cxl-buffers",
                                           remote=False)
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=10_000)
        ec.start(0.01)
        pod.run(0.03)
        assert ec.stats.received > 0
        assert pod.cxl_traffic_by_category().get("payload", 0) > 0

    def test_oasis_latency_overhead_in_band(self):
        """The headline §5.1 claim: +4-7 us over the local baseline."""
        pod_b, inst_b, client_b, _ = build_pod(mode="local", remote=False)
        EchoServer(pod_b.sim, inst_b)
        ec_b = EchoClient(pod_b.sim, client_b, SERVER_IP, rate_pps=20_000)
        ec_b.start(0.03)
        pod_b.run(0.06)

        pod_o, inst_o, client_o, _ = build_pod(mode="oasis", remote=True)
        EchoServer(pod_o.sim, inst_o)
        ec_o = EchoClient(pod_o.sim, client_o, SERVER_IP, rate_pps=20_000)
        ec_o.start(0.03)
        pod_o.run(0.06)

        overhead = ec_o.stats.percentile_us(50) - ec_b.stats.percentile_us(50)
        assert 2.0 <= overhead <= 8.0
