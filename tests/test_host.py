"""Tests for hosts, memory domains, and instances."""

import pytest

from repro.errors import ReproError
from repro.host.host import Host
from repro.host.instance import Instance
from repro.mem.cxl import CXLMemoryPool
from repro.net.packet import Frame, make_ip
from repro.sim.core import Simulator


@pytest.fixture
def host(sim):
    return Host(sim, "h0", CXLMemoryPool(size=1 << 20))


class TestDomains:
    def test_shared_and_local_are_distinct(self, host):
        assert host.shared.is_shared
        assert not host.local.is_shared
        assert host.shared.pool is not host.local.pool

    def test_local_domain_uses_ddr_latency(self, host):
        t = host.local.cache.timings
        assert t.cxl_load_ns == t.ddr_load_ns

    def test_local_dma_transfer_faster(self, host):
        assert host.domain_of(True).transfer_time(1500) < \
            host.domain_of(False).transfer_time(1500)

    def test_shared_domains_share_backing_store(self, sim):
        pool = CXLMemoryPool(size=1 << 20)
        h0 = Host(sim, "h0", pool)
        h1 = Host(sim, "h1", pool)
        h0.dma_write(0, b"cross-host")
        assert h1.dma_read(0, 10) == b"cross-host"

    def test_local_domains_private(self, sim):
        pool = CXLMemoryPool(size=1 << 20)
        h0 = Host(sim, "h0", pool)
        h1 = Host(sim, "h1", pool)
        h0.dma_write(0, b"private", local=True)
        assert h1.dma_read(0, 7, local=True) == bytes(7)


class TestDmaSnooping:
    def test_local_dma_write_invalidates_host_cache(self, host):
        host.dma_write(0, b"old")
        host.shared.cache.load(0, 3)
        host.dma_write(0, b"new")        # device write snoops our cache
        data, _ = host.shared.cache.load(0, 3)
        assert data == b"new"

    def test_local_dma_read_sees_dirty_cpu_data(self, host):
        host.shared.cache.store(0, b"dirty")
        assert host.dma_read(0, 5) == b"dirty"

    def test_remote_host_cache_not_snooped(self, sim):
        """Cross-host non-coherence survives through the Host layer."""
        pool = CXLMemoryPool(size=1 << 20)
        h0 = Host(sim, "h0", pool)
        h1 = Host(sim, "h1", pool)
        pool.dma_write(0, b"old")
        h1.shared.cache.load(0, 3)
        h0.dma_write(0, b"new")          # device on h0: h1 not snooped
        stale, _ = h1.shared.cache.load(0, 3)
        assert stale == b"old"

    def test_dma_accounts_traffic_to_host_link(self, host):
        host.dma_write(0, b"x" * 64, category="payload")
        stats = host.shared.pool.stats_for("h0")
        assert stats.write_bytes["payload"] == 64


class TestInstance:
    def test_requires_vnic_for_tx(self, sim, host):
        inst = Instance(sim, "i0", host, make_ip(10, 0, 0, 1))
        with pytest.raises(ReproError):
            inst.send_frame(Frame(dst_mac=0, src_mac=0))

    def test_vnic_transmit_and_src_ip_fill(self, sim, host):
        inst = Instance(sim, "i0", host, make_ip(10, 0, 0, 1))
        sent = []

        class FakeVnic:
            def transmit(self, frame):
                sent.append(frame)

        inst.attach_vnic(FakeVnic())
        inst.send_frame(Frame(dst_mac=0, src_mac=0))
        assert sent[0].src_ip == inst.ip
        assert inst.tx_frames == 1

    def test_deliver_dispatches_to_all_handlers(self, sim, host):
        inst = Instance(sim, "i0", host, make_ip(10, 0, 0, 1))
        got_a, got_b = [], []
        inst.add_handler(got_a.append)
        inst.add_handler(got_b.append)
        inst.deliver_frame(Frame(dst_mac=0, src_mac=0))
        assert len(got_a) == 1 and len(got_b) == 1
        assert inst.rx_frames == 1

    def test_device_attachment(self, sim, host):
        from repro.pcie.device import PCIeDevice

        dev = PCIeDevice(sim, host, "dev0")
        assert dev in host.devices
