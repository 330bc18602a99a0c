"""Soak test: every subsystem running together in one pod.

Four hosts, two serving NICs + one backup, a pooled SSD, a Raft-replicated
allocator, the load balancer, network traffic from two external clients and
block I/O from an instance -- then a NIC failure in the middle.  Asserts
global invariants at the end: no leaks, no lost state, traffic and I/O kept
flowing.
"""

import numpy as np
import pytest

from repro.core.allocator.balancer import LoadBalancer
from repro.core.pod import CXLPod
from repro.net.packet import make_ip
from repro.workloads.blockio import BlockWorkload
from repro.workloads.echo import EchoClient, EchoServer


@pytest.fixture(scope="module")
def soak_result():
    pod = CXLPod(mode="oasis")
    hosts = [pod.add_host() for _ in range(4)]
    nic0 = pod.add_nic(hosts[0])
    nic1 = pod.add_nic(hosts[1])
    backup = pod.add_nic(hosts[2], is_backup=True)
    ssd = pod.add_ssd(hosts[0])
    pod.enable_raft(replicas=3)
    pod.allocator.start_host_monitor()
    balancer = LoadBalancer(pod.sim, pod.allocator, interval_ms=200)
    balancer.start()

    # Two echo instances on NIC-less host 3, pinned to different NICs.
    ips = [make_ip(10, 0, 0, 1), make_ip(10, 0, 0, 2)]
    instances = [
        pod.add_instance(hosts[3], ip=ips[0], nic=nic0),
        pod.add_instance(hosts[3], ip=ips[1], nic=nic1),
    ]
    for inst in instances:
        EchoServer(pod.sim, inst)
    clients = []
    for i, ip in enumerate(ips):
        endpoint = pod.add_external_client(ip=make_ip(10, 0, 9, 1 + i))
        client = EchoClient(pod.sim, endpoint, ip, rate_pps=3000,
                            port=20_000 + i)
        client.start(1.5)
        clients.append(client)

    # Block I/O from instance 0 against the pooled SSD.
    device = pod.add_block_device(instances[0], ssd)
    workload = BlockWorkload(pod.sim, device, rate_iops=3000,
                             rng=np.random.default_rng(9))
    workload.start(1.5)

    pod.run(0.702)
    pod.fail_switch_port(nic0)       # mid-run NIC failure
    pod.run(1.2)
    pod.stop()
    balancer.stop()
    return pod, clients, workload, instances, nic0, backup


class TestSoak:
    def test_network_traffic_survived_the_failure(self, soak_result):
        pod, clients, workload, instances, nic0, backup = soak_result
        for client in clients:
            assert client.stats.received > client.stats.sent * 0.95
        # The nic0 client lost only the failover window's worth of packets.
        assert clients[0].stats.lost < 3000 * 0.1

    def test_failover_executed_and_committed(self, soak_result):
        pod, *_ = soak_result
        assert pod.allocator.failovers_executed == 1
        leader = pod.raft_nodes[0]
        commands = [leader.log.entry(i).command
                    for i in range(leader.log.first_index,
                                   leader.commit_index + 1)]
        assert any(c.get("op") == "failover" for c in commands)

    def test_affected_instance_moved_to_backup(self, soak_result):
        pod, clients, workload, instances, nic0, backup = soak_result
        assert pod.allocator.assignments[instances[0].ip] == backup.name
        assert pod.allocator.assignments[instances[1].ip] != backup.name

    def test_block_io_unaffected(self, soak_result):
        pod, clients, workload, *_ = soak_result
        stats = workload.stats.summary()
        assert stats["errors"] == 0
        assert stats["completed"] > 3000
        assert workload.inflight == 0

    def test_no_buffer_leaks_anywhere(self, soak_result):
        pod, *_ = soak_result
        for frontend in pod.frontends.values():
            assert len(frontend._tx_pending) == 0
        for backend in pod.backends.values():
            outstanding = backend.rx_pool.outstanding
            assert outstanding == len(backend.nic.rx_ring)
        for frontend in pod.storage_frontends.values():
            assert frontend.inflight == 0
            assert frontend._space.allocated_bytes == 0

    def test_leases_consistent(self, soak_result):
        pod, clients, workload, instances, nic0, backup = soak_result
        for inst in instances:
            nic_name = pod.allocator.assignments[inst.ip]
            assert pod.allocator.leases.get(inst.ip, nic_name) is not None
        assert pod.allocator.leases.leases_on(nic0.name) == []

    def test_telemetry_kept_flowing(self, soak_result):
        pod, *_ = soak_result
        assert pod.allocator.telemetry_store.records_ingested > 30
