"""Property suite (hypothesis): random rack topologies through the sharded
control plane.

Each example draws a rack shape (hosts, pools, port limit) and a random
interleaving of place / release / fail operations, drives them through the
:class:`~repro.core.allocator.ShardedAllocator` router in simulated time,
and asserts the PR-8 structural invariants:

* **allocator accounting** -- shards partition the device and assignment
  namespaces; every device's ``allocated`` equals the summed demand of the
  instances currently assigned to it (no over-count across place /
  release / failover interleavings);
* **single-valid-holder** -- at most one valid NIC lease per instance
  across *all* shards at any time, and every live assignment holds one;
* **per-shard lease conservation** -- assignments stay inside their pool's
  shard, point at healthy devices once failovers settle, and every
  failover applied exactly once per device;
* **port limit** -- placement never puts more than ``port_limit`` distinct
  hosts on one multi-headed device;
* **determinism** -- the same topology and schedule replayed twice lands on
  the identical rack-wide state signature and event count.

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly
chaos sweep).
"""

import os
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import OasisConfig
from repro.core.pod import RackBuilder
from repro.errors import AllocationError
from repro.net.packet import make_ip

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "20"))

#: Per-instance NIC demand used by every synthetic placement.
DEMAND = 0.25

topologies = st.tuples(
    st.integers(min_value=4, max_value=10),   # hosts
    st.integers(min_value=1, max_value=3),    # pools
    st.integers(min_value=2, max_value=4),    # port limit
)

#: (kind, idx) pairs; place is twice as likely so racks actually fill up.
op_lists = st.lists(
    st.tuples(st.sampled_from(["place", "place", "release", "fail"]),
              st.integers(min_value=0, max_value=199)),
    min_size=5, max_size=40,
)


def build_rack(hosts, pools, port_limit, seed=7, batch_window_ms=0.0,
               replicas=0):
    base = OasisConfig()
    config = base.with_(seed=seed, failover=replace(
        base.failover, commit_batch_window_ms=batch_window_ms))
    pod = RackBuilder(hosts=hosts, pools=pools, nics_per_host=2,
                      ssds_per_host=0, port_limit=port_limit,
                      config=config).build()
    if replicas:
        pod.enable_raft(replicas=replicas)
        pod.run(0.2)   # per-shard elections before load
    return pod


def drive(pod, ops, allow_failures=True):
    """Schedule the drawn ops 2 ms apart; ips map to stable hosts."""
    alloc = pod.allocator
    placed = set()
    device_names = sorted(n for s in alloc.shards.values() for n in s.devices)
    rejected = [0]

    def _do(kind, idx):
        ip = make_ip(10, 2, idx >> 8, (idx & 0xFF) + 1)
        if kind == "place":
            if ip in placed:
                return
            host = pod.hosts[idx % len(pod.hosts)]
            try:
                alloc.place_instance(ip, host.name, DEMAND)
            except AllocationError:
                rejected[0] += 1
                return
            placed.add(ip)
        elif kind == "release":
            if ip not in placed:
                return
            alloc.release_instance(ip, DEMAND)
            placed.discard(ip)
        elif allow_failures:
            alloc.on_failure_report(device_names[idx % len(device_names)])

    for k, (kind, idx) in enumerate(ops):
        pod.sim.schedule(0.002 * (k + 1), _do, kind, idx)
    # Settle: detection/processing delays and any replication drain.
    pod.run(0.002 * (len(ops) + 2) + 0.3)
    return rejected[0]


def check_invariants(pod):
    alloc = pod.allocator
    now = pod.sim.now

    # Shards partition the namespaces: no device or instance appears twice.
    all_devices = [n for s in alloc.shards.values() for n in s.devices]
    assert len(all_devices) == len(set(all_devices))
    all_ips = [ip for s in alloc.shards.values() for ip in s.assignments]
    assert len(all_ips) == len(set(all_ips))

    # Single valid holder across the whole rack.
    holders = {}
    for shard in alloc.shards.values():
        for (ip, dev), lease in shard.leases._by_key.items():
            if dev in shard.devices and lease.valid(now):
                holders[ip] = holders.get(ip, 0) + 1
    assert all(count == 1 for count in holders.values()), holders

    for shard in alloc.shards.values():
        on_device = {}
        for ip, dev in shard.assignments.items():
            on_device[dev] = on_device.get(dev, 0) + 1
        for name, device in shard.devices.items():
            assert device.allocated >= -1e-9
            # Exact bookkeeping: allocated == demand x current holders,
            # through any place/release/failover interleaving.
            assert abs(device.allocated
                       - DEMAND * on_device.get(name, 0)) < 1e-6, (
                f"{name}: allocated {device.allocated} vs "
                f"{on_device.get(name, 0)} holders")
        for ip, dev in shard.assignments.items():
            assert dev in shard.devices          # never cross-shard
            assert not shard.devices[dev].failed
            lease = shard.state.leases.get(ip, dev)
            assert lease is not None and lease.valid(now)

    # Exactly-once failovers, no matter how many duplicate reports landed.
    for shard in alloc.shards.values():
        for nic, count in shard.failover_log.items():
            assert count == 1, f"{nic}: failover applied {count} times"


class TestRackAccounting:
    @given(topo=topologies, ops=op_lists)
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_interleavings_preserve_invariants(self, topo, ops):
        hosts, pools, port_limit = topo
        pod = build_rack(hosts, min(pools, hosts), port_limit)
        drive(pod, ops)
        check_invariants(pod)
        pod.stop()

    @given(topo=topologies, ops=op_lists)
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_placement_respects_port_limit(self, topo, ops):
        # No failures here: failover deliberately prioritises availability
        # over head-count (a backup may temporarily exceed the limit), so
        # the <= port_limit bound is a *placement* invariant.
        hosts, pools, port_limit = topo
        pod = build_rack(hosts, min(pools, hosts), port_limit)
        drive(pod, ops, allow_failures=False)
        for shard in pod.allocator.shards.values():
            heads = {}
            for ip, dev in shard.assignments.items():
                host = shard.tables["nic"].hosts.get(ip)
                heads.setdefault(dev, set()).add(host)
            for dev, hosts_on in heads.items():
                assert len(hosts_on) <= port_limit, (
                    f"{dev}: {len(hosts_on)} heads > limit {port_limit}")
        check_invariants(pod)
        pod.stop()

    @given(topo=topologies, ops=op_lists)
    @settings(max_examples=max(5, MAX_EXAMPLES // 4), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_schedule_is_deterministic(self, topo, ops):
        hosts, pools, port_limit = topo
        outcomes = []
        for _ in range(2):
            pod = build_rack(hosts, min(pools, hosts), port_limit)
            drive(pod, ops)
            outcomes.append((pod.allocator.signature(),
                             pod.sim.processed_events))
            pod.stop()
        assert outcomes[0] == outcomes[1]


class TestRackReplicated:
    @given(topo=topologies, ops=op_lists,
           batch_window_ms=st.sampled_from([0.0, 0.2, 0.5]))
    @settings(max_examples=max(5, MAX_EXAMPLES // 4), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sharded_raft_converges_with_and_without_batching(
            self, topo, ops, batch_window_ms):
        hosts, pools, port_limit = topo
        pod = build_rack(hosts, min(pools, hosts), port_limit,
                         batch_window_ms=batch_window_ms, replicas=3)
        drive(pod, ops)
        pod.run(0.5)   # retry windows + replication drain
        alloc = pod.allocator
        assert alloc.pending_commands == 0
        assert alloc.convergence_ok()
        check_invariants(pod)
        pod.stop()
