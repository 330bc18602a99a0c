"""Soak test: every subsystem running together in one pod.

Four hosts, two serving NICs + one backup, a pooled SSD, a Raft-replicated
allocator, the load balancer, network traffic from two external clients and
block I/O from an instance -- then a NIC failure in the middle.  Asserts
global invariants at the end: no leaks, no lost state, traffic and I/O kept
flowing.

A second, long-horizon soak drives the fig10 echo cell's RX ring around many
laps and checks that the pool's page store stays flat (``TestRxRingSoak``);
a third drives the storage_write cell over the drive's address range and
checks that the drive stores only blocks that hold data
(``TestStorageSoak``).  ``TestEchoRecordsRetained`` holds what the echo
client's records keep per reply.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.config import OasisConfig
from repro.core.allocator.balancer import LoadBalancer
from repro.core.pod import CXLPod
from repro.experiments.common import CLIENT_IP, SERVER_IP, build_echo_pod
from repro.net.packet import make_ip
from repro.sim.rng import Stream
from repro.workloads.blockio import BlockWorkload
from repro.workloads.echo import EchoClient, EchoServer

# 0.5 simulated seconds is ~10 laps of the server NIC's 1,024-buffer RX ring
# at 20 kpps; the nightly job's 300 buys 6 s (~120 laps).
SOAK_SCALE = max(1, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")) // 25)
RX_SOAK_SIM_S = 0.5 * SOAK_SCALE
# 3 simulated seconds are ~6 laps of storage_write's 4,096-block address
# range at 8 kIOPS, and the 8,192-slot message rings lap by ~1.5 s, before
# the first checkpoint; the nightly job's 300 buys 36 s (~70 laps).
STORAGE_SOAK_SIM_S = 3.0 * SOAK_SCALE


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
                             rng=Stream(9))
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


class TestRxRingSoak:
    """ROADMAP 7(v), page tables: the fig10 echo cell (seed 17, 256 B,
    20 kpps Poisson) over ~10 laps of the server NIC's RX ring.  The pool
    holds 64 B per line held; the lines held stop growing (they still grow
    over the first ~0.3 s, so no equality across laps is asserted); the NIC
    recycles its ring rather than walking the RX area; and a recycled RX
    buffer leaves the pool (DESIGN §3h), so at each checkpoint the RX area
    holds only the lines of frames in flight -- not the ~4,096 lines of
    every buffer a frame ever landed in."""

    def test_page_store_is_packed_and_flat_across_laps(self):
        pod = CXLPod(config=OasisConfig().with_(seed=17))
        h0, h1 = pod.add_host(), pod.add_host()
        nic0 = pod.add_nic(h0)
        pod.add_nic(h1, is_backup=True)
        EchoServer(pod.sim, pod.add_instance(h1, ip=SERVER_IP, nic=nic0))
        client = EchoClient(pod.sim, pod.add_external_client(ip=CLIENT_IP),
                            SERVER_IP, packet_size=256, rate_pps=20_000.0,
                            rng=pod.rng.get("echo-client"), poisson=True)
        client.start(RX_SOAK_SIM_S)
        rx_pool = pod.backends[nic0.name].rx_pool
        area = rx_pool.region
        checkpoints, rx_held = [], []
        for until in (0.6 * RX_SOAK_SIM_S, RX_SOAK_SIM_S):
            pod.run(until - pod.sim.now)
            checkpoints.append(pod.pool.footprint())
            held = [index for index, _ in pod.pool.touched_lines()
                    if area.base <= index << 6 < area.end]
            buffers = {((index << 6) - area.base) // rx_pool.buffer_size
                       for index in held}
            # taken by the NIC (a frame landed) and not yet recycled
            in_flight = rx_pool.outstanding - len(nic0.rx_ring)
            rx_held.append((len(held), len(buffers), in_flight))
        pod.stop()
        for lines, buffers, in_flight in rx_held:
            assert buffers <= in_flight
            assert lines <= in_flight * rx_pool.buffer_size // 64
        for lines, resident in checkpoints:
            assert resident == 64 * lines
        (lines0, resident0), (lines1, resident1) = checkpoints
        assert lines1 - lines0 < 0.01 * lines0
        assert resident1 - resident0 < 0.01 * resident0
        assert rx_pool.touched <= nic0.rx_ring.depth + 8
        assert client.stats.received > 0.95 * 20_000 * RX_SOAK_SIM_S


class TestEchoRecordsRetained:
    """ROADMAP item 13(a): what the fig10 echo cell's client keeps grows only
    by its packed per-reply samples.  ``send_times``, ``recv_times``,
    ``latencies_us`` and the RTT histogram's ``observations`` are
    ``array("d")`` records (8 B a sample, 32 B a reply, plus an array's
    1/16 growth slack), and the outstanding map holds only the requests in
    flight: 32.8 B a reply.  Boxed floats in lists and a set of every
    answered sequence number kept 53 B a reply over this window and 192 B
    over [0.15, 0.3] s (the set grows in steps of 4x)."""

    KEEPERS = ("workloads/echo.py", "obs/metrics.py")

    def _kept(self):
        snapshot = tracemalloc.take_snapshot()
        return sum(stat.size for stat in snapshot.statistics("filename")
                   if stat.traceback[0].filename.replace(os.sep, "/")
                   .endswith(self.KEEPERS))

    def test_client_keeps_at_most_40_bytes_per_reply(self):
        pod, _inst, endpoint, _nic = build_echo_pod(
            "oasis", config=OasisConfig().with_(seed=17))
        client = EchoClient(pod.sim, endpoint, SERVER_IP, packet_size=256,
                            rate_pps=20_000.0, rng=pod.rng.get("echo-client"),
                            poisson=True, metrics=pod.metrics)
        client.start(1.0)
        pod.run(0.01)                   # warm: the records exist
        tracemalloc.start(1)
        try:
            marks = []
            for until in (0.1, 0.2):    # ~2,000 and ~4,000 replies
                pod.run(until - pod.sim.now)
                marks.append((client.stats.received, self._kept()))
        finally:
            tracemalloc.stop()
        pod.stop()
        (n1, kept1), (n2, kept2) = marks
        assert n2 - n1 > 1500
        assert len(client.stats.outstanding) < 100
        assert (kept2 - kept1) / (n2 - n1) <= 40


class RandomPayloadDevice:
    """A block device whose every write carries fresh random bytes."""

    def __init__(self, device, rng):
        self.device = device
        self.block_size = device.block_size
        self.rng = rng

    def write(self, lba, data, callback, flow=None):
        return self.device.write(lba, self.rng.bytes(len(data)), callback,
                                 flow=flow)


class TestStorageSoak:
    """ROADMAP 7(v), device media: the storage_write cell (seed 17, 4 KB
    writes at 8 kIOPS over 4,096 blocks) for a few laps of its address
    range.  The generator writes zero blocks, which the drive does not
    store; the pool's lines written stop growing once the message rings
    have lapped.  With random data over 64 LBAs the drive holds at most
    those 64 blocks, however long it runs."""

    @staticmethod
    def _cell(duration, payload_rng=None, address_blocks=4096):
        pod = CXLPod(config=OasisConfig().with_(seed=17), mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        device = pod.add_block_device(pod.add_instance(h1, ip=SERVER_IP), ssd)
        if payload_rng is not None:
            device = RandomPayloadDevice(device, payload_rng)
        workload = BlockWorkload(pod.sim, device, rate_iops=8_000.0,
                                 read_fraction=0.0, io_blocks=1,
                                 address_blocks=address_blocks,
                                 queue_depth=1 << 30,
                                 rng=pod.rng.get("soak/block"))
        workload.start(duration)
        return pod, ssd, workload

    def test_zero_writes_store_nothing_and_pool_is_flat(self):
        pod, ssd, workload = self._cell(STORAGE_SOAK_SIM_S)
        checkpoints = []
        for until in (0.6 * STORAGE_SOAK_SIM_S, STORAGE_SOAK_SIM_S):
            pod.run(until - pod.sim.now)
            checkpoints.append((ssd.footprint(), pod.pool.footprint()))
        pod.stop()
        assert [drive for drive, _ in checkpoints] == [(0, 0), (0, 0)]
        (lines0, resident0), (lines1, resident1) = (
            pool for _, pool in checkpoints)
        assert lines1 - lines0 < 0.01 * lines0
        assert resident1 - resident0 < 0.01 * resident0
        stats = workload.stats
        assert stats.errors == 0
        assert stats.submitted > 0.95 * 8_000 * STORAGE_SOAK_SIM_S

    def test_random_writes_hold_at_most_the_range(self):
        duration = STORAGE_SOAK_SIM_S / 6   # ~60 writes per LBA
        # payload bytes, not pod draws: ``Stream`` has no ``bytes``
        pod, ssd, workload = self._cell(duration, np.random.default_rng(23),
                                        address_blocks=64)
        pod.run(duration)
        pod.stop()
        blocks, resident = ssd.footprint()
        assert 0 < blocks <= 64
        assert resident == blocks * ssd.config.block_size
        assert workload.stats.errors == 0
