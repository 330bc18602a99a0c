"""Tests for the simulated NIC (TX/RX flows, flow tagging, failures)."""

import pytest

from repro.config import NICConfig, OasisConfig
from repro.errors import DeviceError, DeviceFailedError
from repro.host.host import Host
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import FixedPool, Region
from repro.net.packet import Frame, make_ip, make_mac
from repro.net.switch import LearningSwitch
from repro.pcie.nic import SimNIC
from repro.pcie.queues import RxDescriptor, TxDescriptor
from repro.sim.core import Simulator


@pytest.fixture
def rig(sim):
    pool = CXLMemoryPool(size=1 << 20)
    host = Host(sim, "h0", pool)
    switch = LearningSwitch(sim)
    nic = SimNIC(sim, host, make_mac(0), NICConfig(), name="nic0")
    nic.connect(switch.new_port())
    peer_port = switch.new_port()
    peer_inbox = []
    peer_port.attach(peer_inbox.append)
    return pool, host, switch, nic, peer_port, peer_inbox


def frame_bytes(pool, addr, *, dst_mac, payload=b"data", dst_ip=0):
    frame = Frame(dst_mac=dst_mac, src_mac=make_mac(0), dst_ip=dst_ip,
                  payload=payload)
    data = frame.pack()
    pool.dma_write(addr, data)
    return frame, len(data)


class TestTx:
    def test_tx_descriptor_emits_frame(self, sim, rig):
        pool, host, switch, nic, peer_port, peer_inbox = rig
        frame, size = frame_bytes(pool, 0, dst_mac=make_mac(9))
        nic.post_tx(TxDescriptor(addr=0, length=size))
        sim.run_all()
        assert len(peer_inbox) == 1
        assert peer_inbox[0].payload == b"data"

    def test_tx_completion_carries_cookie(self, sim, rig):
        pool, host, switch, nic, _, _ = rig
        comps = []
        nic.on_tx_complete = comps.append
        _, size = frame_bytes(pool, 0, dst_mac=make_mac(9))
        nic.post_tx(TxDescriptor(addr=0, length=size, cookie="ctx"))
        sim.run_all()
        assert comps[0].descriptor.cookie == "ctx"
        assert comps[0].status == 0

    def test_tx_serializes_at_line_rate(self, sim, rig):
        pool, host, switch, nic, peer_port, peer_inbox = rig
        arrivals = []
        peer_port.attach(lambda f: arrivals.append(sim.now))
        frame = Frame(dst_mac=make_mac(9), src_mac=nic.mac,
                      payload=b"x" * 1400, wire_size=1500)
        pool.dma_write(0, frame.pack())
        for i in range(4):
            nic.post_tx(TxDescriptor(addr=0, length=frame.packed_size))
        sim.run_all()
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        wire_time = 1500 / nic.config.bytes_per_sec
        for gap in gaps:
            assert gap >= wire_time * 0.99

    def test_tx_on_failed_nic_rejected(self, sim, rig):
        pool, host, switch, nic, _, _ = rig
        nic.fail()
        with pytest.raises(DeviceFailedError):
            nic.post_tx(TxDescriptor(addr=0, length=64))

    def test_tx_ring_full_rejected(self, sim, rig):
        pool, host, switch, nic, _, _ = rig
        _, size = frame_bytes(pool, 0, dst_mac=make_mac(9))
        for _ in range(nic.config.tx_queue_depth):
            nic.tx_ring.post(TxDescriptor(addr=0, length=size))
        with pytest.raises(DeviceError):
            nic.post_tx(TxDescriptor(addr=0, length=size))

    def test_tx_error_completion_when_link_down(self, sim, rig):
        pool, host, switch, nic, _, _ = rig
        comps = []
        nic.on_tx_complete = comps.append
        _, size = frame_bytes(pool, 0, dst_mac=make_mac(9))
        nic.post_tx(TxDescriptor(addr=0, length=size))
        nic.port.set_enabled(False)
        sim.run_all()
        assert comps[0].status == 1

    def test_send_raw_bypasses_queue(self, sim, rig):
        pool, host, switch, nic, _, peer_inbox = rig
        nic.send_raw(Frame(dst_mac=make_mac(9), src_mac=make_mac(7)))
        sim.run_all()
        assert len(peer_inbox) == 1
        assert switch.port_of_mac(make_mac(7)) == 0   # learned borrowed MAC


class TestRx:
    def _rx_setup(self, sim, rig, tag_ip=None):
        pool, host, switch, nic, peer_port, _ = rig
        comps = []
        nic.on_rx = comps.append
        nic.rx_ring.capacity = 2048
        nic.rx_ring.post(4096)
        if tag_ip is not None:
            nic.add_flow_tag(tag_ip)
        return pool, nic, peer_port, comps

    def test_rx_dma_writes_buffer_and_completes(self, sim, rig):
        pool, nic, peer_port, comps = self._rx_setup(sim, rig)
        frame = Frame(dst_mac=nic.mac, src_mac=make_mac(9), payload=b"inbound")
        peer_port.receive(frame)
        sim.run_all()
        assert len(comps) == 1
        stored = Frame.unpack(pool.dma_read(4096, comps[0].length))
        assert stored.payload == b"inbound"

    def test_rx_flow_tag_matched(self, sim, rig):
        ip = make_ip(10, 0, 0, 5)
        pool, nic, peer_port, comps = self._rx_setup(sim, rig, tag_ip=ip)
        peer_port.receive(Frame(dst_mac=nic.mac, src_mac=make_mac(9),
                                dst_ip=ip))
        sim.run_all()
        assert comps[0].tag == nic.flow_table[ip]

    def test_rx_unmatched_gets_none_tag(self, sim, rig):
        pool, nic, peer_port, comps = self._rx_setup(sim, rig)
        peer_port.receive(Frame(dst_mac=nic.mac, src_mac=make_mac(9),
                                dst_ip=make_ip(1, 2, 3, 4)))
        sim.run_all()
        assert comps[0].tag is None

    def test_rx_no_buffer_drops(self, sim, rig):
        pool, host, switch, nic, peer_port, _ = rig
        nic.on_rx = lambda c: None
        peer_port.receive(Frame(dst_mac=nic.mac, src_mac=make_mac(9)))
        sim.run_all()
        assert nic.rx_dropped_no_buffer == 1

    def test_rx_on_failed_nic_drops(self, sim, rig):
        pool, nic, peer_port, comps = self._rx_setup(sim, rig)
        nic.fail()
        peer_port.receive(Frame(dst_mac=nic.mac, src_mac=make_mac(9)))
        sim.run_all()
        assert comps == []
        assert nic.rx_dropped_down == 1

    def test_oversized_frame_rejected(self, sim, rig):
        pool, host, switch, nic, peer_port, _ = rig
        rx_pool = FixedPool(Region(4096, 4 * 64), 64)
        nic.rx_ring.capacity = rx_pool.buffer_size
        nic.rx_ring.post(rx_pool.alloc_run(2))
        nic.rx_ring.post(rx_pool.alloc())
        counts = len(nic.rx_ring), rx_pool.available, rx_pool.outstanding
        assert counts == (3, 1, 3)
        with pytest.raises(DeviceError):
            nic._on_wire_rx(Frame(dst_mac=nic.mac, src_mac=make_mac(9),
                                  payload=b"z" * 200))
        # The check comes before the pop: the ring keeps its buffer and the
        # pool's books do not move.
        assert (len(nic.rx_ring), rx_pool.available, rx_pool.outstanding) == counts
        assert [nic.rx_ring.pop() for _ in range(3)] == [4096, 4160, 4224]

    def test_rx_descriptor_made_at_pop_from_ring_level_fields(self, sim, rig):
        pool, nic, peer_port, comps = self._rx_setup(sim, rig)
        nic.rx_ring.local = True
        nic.rx_ring.post(range(8192, 8192 + 3 * 2048, 2048))
        assert len(nic.rx_ring) == 4
        for _ in range(3):
            peer_port.receive(Frame(dst_mac=nic.mac, src_mac=make_mac(9)))
        sim.run_all()
        assert [c.descriptor for c in comps] == [
            RxDescriptor(addr, 2048, True) for addr in (4096, 8192, 10240)]
        assert len(nic.rx_ring) == 1


class TestFlowTable:
    def test_add_returns_stable_tag(self, sim, rig):
        _, _, _, nic, _, _ = rig
        ip = make_ip(10, 0, 0, 1)
        tag = nic.add_flow_tag(ip)
        assert nic.add_flow_tag(ip) == tag

    def test_remove(self, sim, rig):
        _, _, _, nic, _, _ = rig
        ip = make_ip(10, 0, 0, 1)
        nic.add_flow_tag(ip)
        nic.remove_flow_tag(ip)
        assert ip not in nic.flow_table

    def test_table_capacity_enforced(self, sim, rig):
        _, _, _, nic, _, _ = rig
        nic.config = NICConfig(max_flow_tags=2)
        nic.add_flow_tag(1)
        nic.add_flow_tag(2)
        with pytest.raises(DeviceError):
            nic.add_flow_tag(3)

    def test_tagging_unsupported_raises(self, sim, rig):
        _, _, _, nic, _, _ = rig
        nic.config = NICConfig(max_flow_tags=0)
        with pytest.raises(DeviceError):
            nic.add_flow_tag(1)


class TestLinkState:
    def test_link_reflects_port_state(self, sim, rig):
        _, _, _, nic, _, _ = rig
        assert nic.link_up
        nic.port.set_enabled(False)
        assert not nic.link_up
        nic.port.set_enabled(True)
        assert nic.link_up

    def test_fail_and_restore(self, sim, rig):
        _, _, _, nic, _, _ = rig
        events = []
        nic.on_link_change(events.append)
        nic.fail()
        assert not nic.link_up
        assert nic.aer.fatal == 1
        nic.restore()
        assert nic.link_up
        assert events == [False, True]
