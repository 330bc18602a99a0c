"""Tests for the §6 extension: the load balancer."""

import pytest

from repro.core.allocator.balancer import LoadBalancer
from repro.core.pod import CXLPod
from repro.net.packet import make_ip

SERVER_IP = make_ip(10, 0, 0, 1)


class TestLoadBalancer:
    def _pod(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        return pod, nic0, nic1

    def test_migrates_off_hot_nic(self):
        pod, nic0, nic1 = self._pod()
        balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=100)
        balancer.start()
        line = pod.config.nic.bytes_per_sec
        pod.allocator.devices[nic0.name].measured_load = 0.9 * line
        pod.allocator.devices[nic1.name].measured_load = 0.1 * line
        pod.run(0.3)
        assert balancer.migrations == 1
        assert pod.allocator.assignments[SERVER_IP] == nic1.name
        balancer.stop()

    def test_no_migration_below_high_water(self):
        pod, nic0, nic1 = self._pod()
        balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=100)
        balancer.start()
        line = pod.config.nic.bytes_per_sec
        pod.allocator.devices[nic0.name].measured_load = 0.5 * line
        pod.run(0.3)
        assert balancer.migrations == 0
        balancer.stop()

    def test_no_migration_when_target_also_busy(self):
        pod, nic0, nic1 = self._pod()
        balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=100)
        balancer.start()
        line = pod.config.nic.bytes_per_sec
        pod.allocator.devices[nic0.name].measured_load = 0.9 * line
        pod.allocator.devices[nic1.name].measured_load = 0.6 * line
        pod.run(0.3)
        assert balancer.migrations == 0
        balancer.stop()

    def test_cooldown_prevents_storms(self):
        pod, nic0, nic1 = self._pod()
        balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=100,
                                cooldown_s=60.0)
        balancer.start()
        line = pod.config.nic.bytes_per_sec
        # Both directions look permanently hot: without the cooldown the
        # instance would ping-pong on every tick.
        pod.allocator.devices[nic0.name].measured_load = 0.9 * line
        pod.allocator.devices[nic1.name].measured_load = 0.1 * line
        pod.run(0.25)
        pod.allocator.devices[nic0.name].measured_load = 0.1 * line
        pod.allocator.devices[nic1.name].measured_load = 0.9 * line
        pod.run(0.5)
        assert balancer.migrations == 1

    def test_backups_never_targets(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0 = pod.add_nic(h0)
        backup = pod.add_nic(h1, is_backup=True)
        pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=100)
        balancer.start()
        line = pod.config.nic.bytes_per_sec
        pod.allocator.devices[nic0.name].measured_load = 0.9 * line
        pod.run(0.3)
        assert balancer.migrations == 0    # only candidate is the backup
        assert pod.allocator.assignments[SERVER_IP] == nic0.name


class TestCxlLinkContention:
    def test_link_queues_serialize(self):
        from repro.mem.cxl import CXLMemoryPool
        from repro.host.host import Host
        from repro.sim.core import Simulator

        sim = Simulator()
        host = Host(sim, "h0", CXLMemoryPool(size=1 << 20))
        d1 = host.link_transfer_delay(150_000, "read")
        d2 = host.link_transfer_delay(150_000, "read")
        assert d2 > d1    # second transfer waits behind the first

    def test_directions_independent(self):
        from repro.mem.cxl import CXLMemoryPool
        from repro.host.host import Host
        from repro.sim.core import Simulator

        sim = Simulator()
        host = Host(sim, "h0", CXLMemoryPool(size=1 << 20))
        host.occupy_link(1.0, "read")
        assert host.link_transfer_delay(1500, "write") < 1e-3

    def test_local_transfers_skip_the_link(self):
        from repro.mem.cxl import CXLMemoryPool
        from repro.host.host import Host
        from repro.sim.core import Simulator

        sim = Simulator()
        host = Host(sim, "h0", CXLMemoryPool(size=1 << 20))
        host.occupy_link(1.0, "read")
        assert host.link_transfer_delay(1500, "read", local=True) < 1e-3

    def test_backlog_drains_with_time(self):
        from repro.mem.cxl import CXLMemoryPool
        from repro.host.host import Host
        from repro.sim.core import Simulator

        sim = Simulator()
        host = Host(sim, "h0", CXLMemoryPool(size=1 << 20))
        host.occupy_link(1e-3, "read")
        assert host._link_busy["read"] - sim.now == pytest.approx(1e-3)
        sim.run(until=2e-3)
        assert host._link_busy["read"] <= sim.now


class TestCxlQoS:
    def _echo_p99(self, hog_gbps, cap=None):
        import numpy as np
        from repro.workloads.echo import EchoClient, EchoServer
        from repro.workloads.interference import CXLBandwidthLoad

        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic)
        EchoServer(pod.sim, inst)
        client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
        ec = EchoClient(pod.sim, client, SERVER_IP, packet_size=1500,
                        rate_pps=20_000)
        if hog_gbps:
            CXLBandwidthLoad(pod.sim, h0, hog_gbps, rdt_cap_gbps=cap).start()
        ec.start(0.03)
        pod.run(0.06)
        pod.stop()
        return ec.stats.percentile_us(99)

    def test_saturating_hog_inflates_latency(self):
        """§6: a colocated use case that *oversubscribes* the link (offered
        demand beyond the x8 link's ~29 GB/s) makes DMA backlog grow without
        bound and impairs the Oasis datapath."""
        quiet = self._echo_p99(0)
        contended = self._echo_p99(40.0)   # oversubscribed x8 link
        assert contended > quiet + 10.0

    def test_rdt_cap_restores_latency(self):
        """§6 mitigation: hardware bandwidth partitioning (Intel RDT)."""
        contended = self._echo_p99(40.0)
        capped = self._echo_p99(40.0, cap=15.0)
        assert capped < contended / 2

    def test_moderate_hog_harmless(self):
        """§2.3: typical colocated uses (2-3 GB/s) leave ample headroom."""
        quiet = self._echo_p99(0)
        light = self._echo_p99(3.0)
        assert light < quiet + 2.0
