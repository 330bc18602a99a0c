"""Tests for the replicated, epoch-fenced control plane (§3.3.3, §3.5).

Covers the three pillars of the crash-recoverable allocator:

- **Epoch fencing**: the allocator-side epoch table, its CXL-resident
  mirror, the on-wire stamp in both engines' message formats, and the
  end-to-end FENCED -> resync -> retry recovery at net and storage drivers.
- **Replication**: command-ID dedup in the state machine, snapshot/restore
  convergence, and commit-gated failover surviving an allocator-leader
  crash injected between the failure report and the commit.
- **Lease lifecycle**: the periodic sweep revokes dead leases, frontends
  renew through telemetry, and an expired frontend must re-acquire (never
  silently reuse) its lease.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import OasisConfig
from repro.core.control import (AllocatorStateMachine, ControlState,
                                EpochTable, NotificationBus)
from repro.core.netengine.messages import OP_TX, OP_TX_FENCED, NetMessage
from repro.core.pod import CXLPod, RackBuilder
from repro.core.raft.node import COMPACT_AFTER
from repro.core.storage.messages import (SOP_WRITE, STATUS_FENCED,
                                         StorageMessage)
from repro.errors import AllocationError, ConfigError
from repro.net.packet import make_ip
from repro.sim.core import Simulator
from repro.workloads.echo import EchoClient, EchoServer

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)

# The nightly job's 300 buys the full 60-simulated-second soak.
SOAK_SIM_S = 60.0 * min(1.0, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")) / 300)

# Run in a child so ``ru_maxrss`` (a high-water mark) is the soak's own: 1000
# place/release pairs per simulated second over the 8-host / 2-pool rack with
# Raft x3 and group commit, peak RSS read at half time and at the end.
_SOAK_CHILD = """
import json, resource, sys
from dataclasses import replace
from repro.config import OasisConfig
from repro.core.pod import RackBuilder
from repro.net.packet import make_ip

sim_s = float(sys.argv[1])
base = OasisConfig()
pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=0,
                  config=base.with_(seed=11, failover=replace(
                      base.failover, commit_batch_window_ms=0.2))).build()
pod.enable_raft(replicas=3)
pod.run(0.25)
alloc, sim = pod.allocator, pod.sim
already = len(alloc.commit_latencies)
state = {"issued": 0, "end": sim.now + sim_s}

def release(ip):
    alloc.release_instance(ip, 0.2)
    state["issued"] += 1

def place(j):
    if sim.now >= state["end"]:
        return
    ip = make_ip(10, 4 + (j >> 16), (j >> 8) & 0xFF, j & 0xFF)
    alloc.place_instance(ip, pod.hosts[j % 8].name, 0.2)
    state["issued"] += 1
    sim.schedule(0.0006, release, ip)
    sim.schedule(0.001, place, j + 1)

def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

sim.schedule(0.0, place, 0)
pod.run(sim_s / 2)
half = peak_mib()
pod.run(sim_s / 2 + 0.1)
print(json.dumps({
    "half_mib": half, "end_mib": peak_mib(), "issued": state["issued"],
    "committed": len(alloc.commit_latencies) - already,
    "pending": alloc.pending_commands, "converged": alloc.convergence_ok(),
    "retained": {name: shard.retained()
                 for name, shard in alloc.shards.items()}}))
"""


class TestEpochTable:
    def test_grant_then_check(self):
        table = EpochTable()
        table.publish_grant("nic0", 7, epoch=3)
        assert table.check("nic0", 7, 3)
        assert not table.check("nic0", 7, 2)   # stale stamp
        assert table.entry("nic0", 7) == 3

    def test_stamp_compares_low_byte_only(self):
        table = EpochTable()
        table.publish_grant("nic0", 7, epoch=0x1FE)
        assert table.check("nic0", 7, 0xFE)
        assert not table.check("nic0", 7, 0xFD)

    def test_unknown_writer_legacy_vs_fenced_device(self):
        table = EpochTable()
        # A device that never minted an epoch predates fencing: accept.
        assert table.check("nic0", 7, 0)
        # Once the device has fencing history, unknown writers are rejected.
        table.publish_device("nic0", 1)
        assert not table.check("nic0", 7, 0)

    def test_device_epoch_monotone(self):
        table = EpochTable()
        table.publish_device("nic0", 5)
        table.publish_device("nic0", 3)   # stale publication must not regress
        assert table.device_epoch["nic0"] == 5

    def test_revoke_min_epoch_guard_preserves_regrant(self):
        """A delayed revoke (migration grace) must not kill a newer grant."""
        table = EpochTable()
        table.publish_grant("nic0", 7, epoch=2)
        table.publish_grant("nic0", 7, epoch=9)   # re-granted meanwhile
        table.publish_revoke("nic0", 7, min_epoch=5)   # the stale revoke
        assert table.entry("nic0", 7) == 9
        assert table.check("nic0", 7, 9)

    def test_revoke_removes_older_entry(self):
        table = EpochTable()
        table.publish_grant("nic0", 7, epoch=2)
        table.publish_revoke("nic0", 7, min_epoch=5)
        assert table.entry("nic0", 7) is None
        assert not table.check("nic0", 7, 2)

    def test_cxl_mirror_round_trips_device_epoch(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        nic = pod.add_nic(h0)
        pod.add_instance(h0, ip=SERVER_IP, nic=nic)
        table = pod.allocator.epochs
        assert table.resident_epoch(nic.name) == table.device_epoch[nic.name]


class TestMessageEpochs:
    def test_net_message_round_trips_epoch(self):
        msg = NetMessage(OP_TX, 1500, SERVER_IP, 0xDEAD40, epoch=0x1A7)
        again = NetMessage.unpack(msg.pack())
        assert again.epoch == 0xA7          # low byte on the wire
        assert again.opcode == OP_TX

    def test_net_fenced_opcode_round_trips(self):
        msg = NetMessage(OP_TX_FENCED, 0, SERVER_IP, 0xDEAD40, epoch=2)
        assert NetMessage.unpack(msg.pack()).opcode == OP_TX_FENCED

    def test_storage_message_round_trips_epoch_and_status(self):
        msg = StorageMessage(SOP_WRITE, cid=9, slba=4, nlb=2,
                             buffer_addr=0x1000, instance_ip=SERVER_IP,
                             status=STATUS_FENCED, epoch=0x2B0)
        again = StorageMessage.unpack(msg.pack())
        assert again.epoch == 0xB0
        assert again.status == STATUS_FENCED
        assert len(msg.pack()) == 64


class TestStateMachine:
    def _place(self, cid=1, ip=SERVER_IP):
        return {"op": "place", "cid": cid, "ip": ip, "host": "h0",
                "device": "nic0", "backup": None, "demand": 1.0, "epoch": 1,
                "now": 0.0}

    def _state(self):
        state = ControlState(lease_ttl_s=1.0)
        from repro.core.allocator.policy import DeviceState
        state.add_device(DeviceState("nic0", host="h0", capacity=100.0))
        return state

    def test_command_id_dedup(self):
        machine = AllocatorStateMachine(self._state())
        assert machine.apply(self._place())
        assert not machine.apply(self._place())   # replayed log entry
        assert machine.state.tables["nic"].devices["nic0"].allocated == 1.0

    def test_distinct_cids_apply_independently(self):
        machine = AllocatorStateMachine(self._state())
        assert machine.apply(self._place(1, make_ip(10, 0, 0, 1)))
        assert machine.apply(self._place(2, make_ip(10, 0, 0, 2)))
        assert machine.state.tables["nic"].devices["nic0"].allocated == 2.0

    def test_snapshot_restore_preserves_signature(self):
        machine = AllocatorStateMachine(self._state())
        machine.apply(self._place())
        snap = machine.state.snapshot()
        restored = ControlState.restore(snap)
        assert restored.signature() == machine.state.signature()
        assert restored.tables["nic"].assignments[SERVER_IP] == "nic0"
        assert 1 in restored.applied_cids

    def test_restored_replica_rejects_replayed_cid(self):
        machine = AllocatorStateMachine(self._state())
        machine.apply(self._place())
        replica = AllocatorStateMachine(
            ControlState.restore(machine.state.snapshot()))
        assert not replica.apply(self._place())   # already in the snapshot

    def test_failover_moves_only_what_is_still_on_the_failed_nic(self):
        """The ``moved`` list is fixed at decide time and the entry may wait
        for a leader: an instance that migrated away or was released in
        between is not dragged to the backup (nor resurrected on it)."""
        from repro.core.allocator.policy import DeviceState
        machine = AllocatorStateMachine(self._state())
        state = machine.state
        for name in ("nic1", "nic2"):
            state.add_device(DeviceState(name, host="h1", capacity=100.0))
        stay, migrated, released = (make_ip(10, 0, 0, i) for i in (1, 2, 3))
        for cid, ip in enumerate((stay, migrated, released), 1):
            machine.apply(self._place(cid, ip))
        machine.apply({"op": "migrate", "cid": 4, "ip": migrated,
                       "old": "nic0", "new": "nic1", "demand": 1.0,
                       "grant_epoch": 1, "revoke_epoch": 2, "now": 0.0})
        machine.apply({"op": "release", "cid": 5, "ip": released,
                       "device": "nic0", "revoke_epoch": 3, "now": 0.0})
        machine.apply({"op": "failover", "cid": 6, "device": "nic0",
                       "backup": "nic2", "revoke_epoch": 4, "now": 0.0,
                       "moved": [[stay, 1], [migrated, 2], [released, 3]]})
        nics = state.tables["nic"]
        assert nics.assignments == {stay: "nic2", migrated: "nic1"}
        assert machine.last_failover["moved"] == [(stay, 1)]
        assert state.leases.get(migrated, "nic1").valid(0.0)
        assert state.leases.get(migrated, "nic2") is None
        assert state.leases.get(released, "nic2") is None
        assert nics.devices["nic1"].allocated == 1.0
        assert nics.devices["nic2"].allocated == 1.0


class TestNotificationBus:
    def test_extra_delay_applied_per_host(self):
        sim = Simulator()
        bus = NotificationBus(sim)
        arrived = []
        bus.delay_extra("h1", 0.5)
        bus.send("h0", 0.001, lambda: arrived.append(("h0", sim.now)))
        bus.send("h1", 0.001, lambda: arrived.append(("h1", sim.now)))
        sim.run(1.0)
        assert dict(arrived) == pytest.approx({"h0": 0.001, "h1": 0.501})
        assert bus.delayed == 1 and bus.delivered == 2

    def test_drop_next_swallows_exactly_n(self):
        sim = Simulator()
        bus = NotificationBus(sim)
        arrived = []
        bus.drop_next("h0", count=2)
        for _ in range(3):
            bus.send("h0", 0.001, lambda: arrived.append(sim.now))
        sim.run(1.0)
        assert len(arrived) == 1
        assert bus.dropped == 2

    def test_clear_hooks(self):
        sim = Simulator()
        bus = NotificationBus(sim)
        bus.delay_extra("h0", 1.0)
        bus.clear_delay("h0")
        arrived = []
        bus.send("h0", 0.001, lambda: arrived.append(sim.now))
        sim.run(1.0)
        assert arrived == pytest.approx([0.001])


def build_failover_pod(raft_replicas=0):
    pod = CXLPod(mode="oasis")
    h0, h1 = pod.add_host(), pod.add_host()
    nic0 = pod.add_nic(h0)
    nic1 = pod.add_nic(h1, is_backup=True)
    inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
    client = pod.add_external_client(ip=CLIENT_IP)
    if raft_replicas:
        pod.enable_raft(replicas=raft_replicas)
    return pod, inst, client, nic0, nic1


class TestCommitGatedFailover:
    def test_failover_waits_for_leader(self):
        """With no leader, the failover command queues; it applies exactly
        once after the election instead of running unreplicated."""
        pod, inst, client, nic0, nic1 = build_failover_pod(raft_replicas=3)
        pod.run(0.2)
        leader = pod.allocator.leader_node()
        assert leader is not None
        leader.crash()
        pod.fail_switch_port(nic0)
        pod.run(0.05)   # detection + processing, but no leader yet
        assert pod.allocator.failovers_executed == 0
        assert pod.allocator.pending_commands >= 1
        pod.run(0.6)    # re-election + retry loop re-proposes the command
        assert pod.allocator.failovers_executed == 1
        assert pod.allocator.failover_log[nic0.name] == 1
        assert pod.allocator.pending_commands == 0
        assert pod.allocator.assignments[SERVER_IP] == nic1.name
        pod.stop()

    def test_leader_crash_mid_failover_exactly_once(self):
        """The acceptance scenario: crash the allocator leader between the
        failure report and the commit; the new leader completes the same
        failover exactly once and every replica converges."""
        pod, inst, client, nic0, nic1 = build_failover_pod(raft_replicas=3)
        pod.run(0.2)
        old_leader = pod.allocator.leader_node()
        pod.fail_switch_port(nic0)
        # Detection lands at the next 25 ms monitor tick, the commit 10 ms
        # later: crash the leader in between.
        pod.sim.schedule(0.030, old_leader.crash)
        pod.run(0.7)
        allocator = pod.allocator
        assert allocator.failovers_executed == 1
        assert allocator.failover_log[nic0.name] == 1
        assert allocator.pending_commands == 0
        new_leader = allocator.leader_node()
        assert new_leader is not None and new_leader is not old_leader
        # The crashed replica rejoins and converges from the leader's log.
        old_leader.restart()
        pod.run(0.4)
        leader = allocator.leader_node()
        for node in pod.raft_nodes:
            if node.alive and node.last_applied == leader.last_applied:
                assert (allocator.replica_signature(node.node_id)
                        == allocator.state.signature())
        assert any(node is old_leader and node.alive
                   and node.last_applied == leader.last_applied
                   for node in pod.raft_nodes)
        pod.stop()

    def test_replicas_converge_after_admission_ops(self):
        pod, inst, client, nic0, nic1 = build_failover_pod(raft_replicas=3)
        pod.run(0.3)   # election + async replication of the placement
        allocator = pod.allocator
        assert allocator.pending_commands == 0
        for node in pod.raft_nodes:
            assert (allocator.replica_signature(node.node_id)
                    == allocator.state.signature())
        pod.stop()


class TestFencingEndToEnd:
    def test_delayed_notification_is_fenced_then_resynced(self):
        """A frontend whose failover notification is delayed keeps posting
        stale-epoch work; the backend rejects every post with FENCED (zero
        accepted) and the frontend recovers through an allocator resync."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        EchoServer(pod.sim, inst)
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=4000)
        echo.start(1.0)
        pod.run(0.3)
        # Delay every notification to the victim's host past the failover.
        pod.allocator.notify.delay_extra("h1", 0.10)
        pod.fail_switch_port(nic0)
        pod.run(0.7)
        backend0 = pod.backends[nic0.name]
        frontend = pod.frontends["h1"]
        assert backend0.fence_rejects > 0
        assert backend0.stale_accepted == 0
        assert frontend.tx_fenced == backend0.fence_rejects
        assert frontend.resyncs >= 1
        # Traffic resumed on the backup despite the stale window.
        received_mid = echo.stats.received
        pod.run(0.3)
        assert echo.stats.received > received_mid
        assert pod.frontends["h1"].record_of(SERVER_IP).primary.name == nic1.name
        pod.stop()

    def test_monitor_mode_counts_stale_writes(self):
        """fencing_enabled=False keeps the epoch table attached but lets
        stale posts through, counting them as ``stale_accepted``."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        backend0 = pod.backends[nic0.name]
        backend0.fencing_enabled = False
        EchoServer(pod.sim, inst)
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=4000)
        echo.start(0.6)
        pod.run(0.1)
        # Invalidate the frontend's epoch behind its back.
        pod.allocator.epochs.publish_revoke(
            nic0.name, SERVER_IP,
            pod.allocator.epochs.device_epoch[nic0.name] + 1)
        pod.run(0.1)
        assert backend0.stale_accepted > 0
        assert backend0.fence_rejects == 0
        pod.stop()

    def test_set_fencing_off_detaches_table(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.set_fencing(False)
        assert pod.backends[nic0.name].epochs is None
        pod.set_fencing(True)
        assert pod.backends[nic0.name].epochs is pod.allocator.epochs

    def test_storage_fencing_resyncs_and_completes(self):
        """A stale storage stamp is rejected with STATUS_FENCED; the
        frontend resyncs through the allocator and the retry succeeds."""
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.run(0.01)
        # Mint a newer epoch the frontend has not heard about.
        table = pod.allocator.epochs
        table.publish_grant(ssd.name, SERVER_IP,
                            table.device_epoch[ssd.name] + 1)
        statuses = []
        frontend = pod.storage_frontends["h1"]
        frontend.submit_write(device, 0, b"\x5a" * device.block_size,
                              lambda status: statuses.append(status))
        pod.run(0.5)
        assert statuses == [0]              # completed OK after the resync
        assert frontend.fenced >= 1
        assert frontend.resyncs >= 1
        backend = pod.storage_backends[ssd.name]
        assert backend.fence_rejects >= 1
        assert backend.stale_accepted == 0
        pod.stop()


class TestLeaseLifecycle:
    def test_sweep_revokes_dead_lease_and_reacquires(self):
        """Without renewals the sweep revokes the lease; the instance parks
        and re-acquires a fresh grant with a higher epoch."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.frontends["h1"].stop_monitors()    # silence renewals
        pod.allocator.start_lease_sweeper()
        pod.run(2.0)    # lease TTL is 1 s
        allocator = pod.allocator
        assert allocator.lease_expirations >= 1
        nic = allocator.assignments[SERVER_IP]
        lease = allocator.leases.get(SERVER_IP, nic)
        assert lease is not None and lease.valid(pod.sim.now)
        # The original grant was fenced off; the live entry matches the
        # re-acquired lease's freshly minted epoch.
        assert allocator.epochs.entry(nic, SERVER_IP) == lease.epoch
        if nic != nic0.name:
            assert allocator.epochs.entry(nic0.name, SERVER_IP) is None
        pod.stop()

    def test_frontend_telemetry_renews_lease(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.allocator.start_lease_sweeper()
        pod.run(2.5)    # several TTLs with the renewal loop running
        assert pod.allocator.lease_expirations == 0
        lease = pod.allocator.leases.get(SERVER_IP, nic0.name)
        assert lease is not None and lease.valid(pod.sim.now)
        pod.stop()

    def test_expired_telemetry_renewal_is_ignored(self):
        """A renewal arriving after expiry must not revive the dead lease."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.frontends["h1"].stop_monitors()
        pod.run(1.5)    # past the 1 s TTL, no sweeper: lease dead in table
        allocator = pod.allocator
        lease = allocator.leases.get(SERVER_IP, nic0.name)
        assert lease is not None and not lease.valid(pod.sim.now)
        allocator.on_frontend_telemetry(
            {"host": "h1", "ips": [SERVER_IP], "time": pod.sim.now})
        assert not lease.valid(pod.sim.now)   # silently reusing is forbidden
        pod.stop()

    def test_resync_after_expiry_grants_fresh_lease(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.frontends["h1"].stop_monitors()
        pod.run(1.5)
        allocator = pod.allocator
        old = allocator.leases.get(SERVER_IP, nic0.name)
        assert old is not None and not old.valid(pod.sim.now)
        allocator.resync(SERVER_IP, "h1")
        pod.run(0.1)
        nic = allocator.assignments[SERVER_IP]
        fresh = allocator.leases.get(SERVER_IP, nic)
        assert fresh is not old
        assert fresh.valid(pod.sim.now)
        assert allocator.lease_expirations >= 1
        pod.stop()


class TestShardedFailover:
    """Cross-shard isolation: each pool's shard is an independent Raft
    group, so losing one shard's leader never blocks its siblings."""

    @staticmethod
    def _rack(batch_window_ms=0.0):
        base = OasisConfig()
        config = base.with_(seed=11, failover=replace(
            base.failover, commit_batch_window_ms=batch_window_ms))
        pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=0,
                          config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.25)   # both shards elect their leaders
        return pod

    def test_leader_crash_in_one_shard_does_not_block_siblings(self):
        pod = self._rack()
        alloc = pod.allocator
        s0, s1 = alloc.shards["pool0"], alloc.shards["pool1"]
        leader0 = s0.leader_node()
        assert leader0 is not None and s1.leader_node() is not None
        leader0.crash()
        ip0, ip1 = make_ip(10, 3, 0, 1), make_ip(10, 3, 0, 2)
        alloc.place_instance(ip0, pod.hosts[0].name, 0.25)   # pool0: no leader
        alloc.place_instance(ip1, pod.hosts[4].name, 0.25)   # pool1: healthy
        pod.run(0.05)
        # The sibling shard replicated immediately; the leaderless shard
        # keeps the command queued for the retry loop.
        assert s1.pending_commands == 0
        assert s0.pending_commands >= 1
        lease1 = s1.state.leases.get(ip1, s1.assignments[ip1])
        assert lease1 is not None and lease1.valid(pod.sim.now)
        # Re-election + retry drain the queue; the rejoined replica catches
        # up and every shard converges.
        pod.run(0.8)
        assert s0.pending_commands == 0
        leader0.restart()
        pod.run(0.4)
        assert alloc.pending_commands == 0
        assert alloc.convergence_ok()
        pod.stop()

    def test_duplicate_failure_reports_stay_exactly_once_per_shard(self):
        pod = self._rack()
        alloc = pod.allocator
        s0, s1 = alloc.shards["pool0"], alloc.shards["pool1"]
        ip0, ip1 = make_ip(10, 3, 1, 1), make_ip(10, 3, 1, 2)
        alloc.place_instance(ip0, pod.hosts[0].name, 0.25)
        alloc.place_instance(ip1, pod.hosts[4].name, 0.25)
        pod.run(0.05)
        dev0, dev1 = s0.assignments[ip0], s1.assignments[ip1]
        leader0 = s0.leader_node()
        leader0.crash()
        for _ in range(3):          # duplicate reports on both shards
            alloc.on_failure_report(dev0)
            alloc.on_failure_report(dev1)
        pod.run(0.1)
        # The healthy shard completes its failover promptly; the leaderless
        # one holds the commit-gated command until re-election.
        assert s1.failovers_executed == 1
        assert s1.failover_log[dev1] == 1
        assert s0.failovers_executed == 0
        assert sum(s.duplicate_reports for s in alloc.shards.values()) >= 4
        pod.run(0.8)
        assert s0.failovers_executed == 1
        assert s0.failover_log[dev0] == 1
        # ... and in no shard more than once (was: the merged failover_log).
        assert [dict(s.failover_log) for s in alloc.shards.values()] == [
            {dev0: 1}, {dev1: 1}]
        assert s1.assignments[ip1] != dev1          # moved to the backup
        assert s0.assignments.get(ip0) != dev0      # moved (or parked)
        pod.stop()


class TestBoundedHistory:
    """What the control plane retains is live state plus a constant window
    (DESIGN §3b): the same sizes after N and after 2N commands."""

    @staticmethod
    def _rack():
        pod = TestShardedFailover._rack(batch_window_ms=0.2)
        return pod, pod.allocator, pod.allocator.shards["pool0"]

    @staticmethod
    def _churn(pod, rounds, start=0):
        """``rounds`` place/release pairs on pool0, one batch entry each."""
        for j in range(start, start + rounds):
            ip = make_ip(10, 4, j >> 8, j & 0xFF)
            pod.allocator.place_instance(ip, pod.hosts[j % 4].name, 0.2)
            pod.allocator.release_instance(ip, 0.2)
            pod.run(0.0005)      # past the 0.2 ms window: flush and commit
        pod.run(0.06)            # a heartbeat tells followers the last commit

    @staticmethod
    def _retained(shard):
        machines = (shard.machine, *shard.replicas.values())
        return {
            "log": [len(node.log._entries) for node in shard._raft_nodes],
            "dedup": [len(m.state.applied_cids) for m in machines],
            "hosts": [len(m.state.tables["nic"].hosts) for m in machines],
            "decided_at": len(shard._decided_at),
            "proposed_at": len(shard._proposed_at),
            "pending": len(shard._pending),
        }

    def test_retained_sizes_are_equal_at_n_and_2n(self):
        pod, alloc, shard = self._rack()
        # A whole number of compaction periods, so the log's sawtooth is
        # sampled at the same phase both times.
        n = 2 * COMPACT_AFTER
        self._churn(pod, n)
        at_n = self._retained(shard)
        self._churn(pod, n, start=n)
        at_2n = self._retained(shard)
        assert at_2n == at_n
        assert max(at_2n["log"]) < COMPACT_AFTER
        assert max(at_2n["dedup"]) <= 2 and max(at_2n["hosts"]) == 0
        assert shard.retained() == {"log_entries": max(at_2n["log"]),
                                    "dedup_window": max(at_2n["dedup"])}
        assert all(node.log.last_index == 2 * n for node in shard._raft_nodes)
        assert alloc.convergence_ok() and alloc.pending_commands == 0
        assert len(alloc.commit_latencies) == 2 * 2 * n     # commits == issued
        assert shard.batches_proposed == 2 * n
        # Mid-period the log holds exactly what was applied since the base.
        self._churn(pod, 100, start=2 * n)
        assert self._retained(shard)["log"] == [100, 100, 100]
        pod.stop()

    def test_soak_peak_rss_is_flat_over_the_second_half(self):
        """ROADMAP item 5(v) for the control plane.  What still grows per
        command is the harness-side ``commit_latencies`` sample record (an
        ``array("d")``, 8 B a command up to its 200,000 cap: under 1 MiB over
        the full soak's second half); the parent grew ~1.2 KB per command."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", _SOAK_CHILD, str(SOAK_SIM_S)], env=env,
            check=True, capture_output=True, text=True, timeout=1800).stdout
        soak = json.loads(out.splitlines()[-1])
        assert soak["issued"] >= 1990 * SOAK_SIM_S
        assert soak["committed"] == soak["issued"] and soak["pending"] == 0
        assert soak["converged"]
        for retained in soak["retained"].values():
            assert retained["log_entries"] <= COMPACT_AFTER
            assert retained["dedup_window"] <= 4
        assert soak["end_mib"] - soak["half_mib"] < 5.0

    def test_replica_down_across_a_compaction_rejoins_by_snapshot(self):
        """The allocator's replica machine (not just the log) is rebuilt
        from the leader's snapshot, and nothing is applied twice."""
        pod, alloc, shard = self._rack()
        down = next(n for n in shard._raft_nodes if not n.is_leader)
        down.crash()
        self._churn(pod, COMPACT_AFTER + 30)
        keep = make_ip(10, 5, 0, 1)
        alloc.place_instance(keep, pod.hosts[1].name, 0.2)
        # A device registered after the leader's snapshot was taken (devices
        # register outside the log) must survive the install.
        late = pod.add_nic(pod.hosts[0])
        shard.place_instance(make_ip(10, 5, 0, 2), "h0", 0.2, device=late.name)
        pod.run(0.01)
        leader = shard.leader_node()
        assert leader.log.base_index > down.last_applied
        assert late.name not in [
            row[0] for row in leader.snapshot["tables"]["nic"]["devices"]]
        before = shard.replicas[down.node_id].state
        down.restart()
        pod.run(0.5)
        replica = shard.replicas[down.node_id].state
        assert replica is not before                 # restored, not replayed
        assert down.last_applied == leader.last_applied
        assert down.log.base_index >= leader.log.base_index
        assert alloc.convergence_ok() and alloc.pending_commands == 0
        nics = replica.tables["nic"]
        assert nics.assignments == shard.assignments
        assert keep in nics.assignments and nics.hosts[keep] == "h1"
        assert nics.devices[late.name].allocated == pytest.approx(0.2)
        # ... and it can lead from there: the next command commits.
        leader.crash()
        pod.run(0.6)
        alloc.release_instance(keep, 0.2)
        pod.run(0.5)
        assert alloc.pending_commands == 0
        assert keep not in shard.assignments
        assert shard.leader_node() is not leader
        for node in shard._raft_nodes:
            if node.alive:
                assert (shard.replica_signature(node.node_id)
                        == shard.state.signature())
        pod.stop()

    def test_reproposal_order_and_dedup_across_the_million_boundary(self):
        """cids are integers: 1,000,000 sorts after 999,999 (as "c1000000"
        it sorted before "c999999"), so orphaned commands are re-proposed in
        decide order, and a duplicate log entry is still dropped."""
        pod, inst, client, nic0, nic1 = build_failover_pod(raft_replicas=3)
        pod.run(0.2)
        alloc = pod.allocator
        alloc._cid_seq = 999_998
        alloc.leader_node().crash()
        ips = [make_ip(10, 6, 0, k) for k in (1, 2, 3)]
        for ip in ips:       # decided, but there is nobody to propose to
            alloc.place_instance(ip, "h1", 1.0, device=nic0.name)
        assert sorted(alloc._pending) == [999_999, 1_000_000, 1_000_001]
        pod.run(0.7)         # re-election, then the retry loop
        assert alloc.pending_commands == 0
        leader = alloc.leader_node()
        entries = [leader.log.entry(i).command
                   for i in range(leader.log.first_index,
                                  leader.log.last_index + 1)]
        orphans = [c for c in entries if c.get("cid", 0) >= 999_999]
        assert [c["cid"] for c in orphans] == [999_999, 1_000_000, 1_000_001]
        assert [c["lwm"] for c in orphans] == [999_999] * 3   # one retry tick
        allocated = alloc.devices[nic0.name].allocated

        def converged():
            for node in pod.raft_nodes:
                if node.alive:
                    assert node.last_applied == leader.last_applied
                    assert (alloc.replica_signature(node.node_id)
                            == alloc.state.signature())
            return alloc.devices[nic0.name].allocated

        for command in orphans:     # the same entries land a second time:
            leader.propose(dict(command))       # duplicates inside the window
        pod.run(0.1)
        assert converged() == allocated
        assert alloc.state.applied_mark == 999_999
        assert alloc.state.applied_cids == {999_999, 1_000_000, 1_000_001}
        # The next proposal's mark closes the window over them ...
        alloc.place_instance(make_ip(10, 6, 0, 4), "h1", 1.0, device=nic0.name)
        pod.run(0.1)
        machines = (alloc.machine, *(alloc.replicas[n.node_id]
                                     for n in pod.raft_nodes if n.alive))
        for machine in machines:
            assert machine.state.applied_mark == 1_000_002
            assert machine.state.applied_cids == {1_000_002}
        # ... and a cid below the mark is a duplicate without being stored.
        leader.propose(dict(orphans[1]))
        pod.run(0.1)
        assert converged() == allocated + 1.0
        pod.stop()


class TestOneDeviceTable:
    """PR 24: the control plane places *a device of a kind*.  Both bugs
    below ran to completion at the parent, where every device-class fact was
    held twice and only the NIC copy of a path was ever exercised."""

    def test_a_device_name_registers_once_across_kinds(self):
        """At the parent ``add_ssd(name="dev0")`` beside a NIC ``dev0`` was
        accepted: one lease ``(ip, "dev0")`` and one epoch sequence for
        both, and the storage release revoked the instance's NIC grant."""
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0, name="dev0")
        with pytest.raises(ConfigError, match="dev0"):
            pod.add_ssd(h1, name="dev0")
        with pytest.raises(ConfigError, match="dev0"):
            pod.add_nic(h1, name="dev0")      # was: silently replaced nic
        ssd = pod.add_ssd(h1, name="disk0")
        with pytest.raises(ConfigError, match="disk0"):
            pod.add_nic(h1, name="disk0")
        assert pod.nics == {"dev0": nic} and list(pod.storage_backends) == [
            "disk0"]
        assert h1.devices == [ssd]            # a refused device left no trace
        allocator = pod.allocator
        assert list(allocator.state.table_of) == ["dev0", "disk0"]
        # ... and so the sequence of the bug report ends as it should:
        inst = pod.add_instance(h0, ip=SERVER_IP)
        pod.add_block_device(inst)
        allocator.release_instance(SERVER_IP, inst.spec.ssd_tb, kind="ssd")
        assert allocator.assignments[SERVER_IP] == "dev0"
        assert allocator.epochs.entry("dev0", SERVER_IP) is not None
        assert allocator.leases.get(SERVER_IP, "dev0").valid(pod.sim.now)
        # An allocator wired by hand is held to the same rule.
        with pytest.raises(ConfigError, match="dev0"):
            allocator.register_backend(pod.backends["dev0"], 4.0, kind="ssd")
        pod.stop()

    @staticmethod
    def _two_drive_pod():
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        return pod, h0, h1, pod.add_ssd(h0), pod.add_ssd(h1)

    def test_link_down_ssd_takes_no_new_placement(self):
        """At the parent only the NIC ingest looked at health: five records
        saying ``link_up: False`` later, the dead, host-local drive was still
        handed to a new instance."""
        pod, h0, h1, dead, healthy = self._two_drive_pod()
        signature = pod.allocator.state.signature()
        dead.fail()
        pod.run(0.55)                         # five 100 ms telemetry records
        drives = pod.allocator.tables["ssd"].devices
        assert not drives[dead.name].link_up and drives[healthy.name].link_up
        # Telemetry-derived, like measured_load: nothing replicated moved.
        assert not drives[dead.name].failed
        assert pod.allocator.state.signature() == signature
        first = pod.add_instance(h0, ip=SERVER_IP)
        device = pod.add_block_device(first)
        assert device.backend_name == healthy.name    # not the local one
        healthy.fail()
        pod.run(0.2)
        second = pod.add_instance(h0, ip=make_ip(10, 0, 0, 2))
        with pytest.raises(AllocationError):
            pod.add_block_device(second)      # was: a grant on a dead drive
        # Not a new placement: the holder of a drive re-acquires it.
        pod.allocator.resync(SERVER_IP, h0.name, kind="ssd")
        assert pod.allocator.tables["ssd"].assignments[SERVER_IP] == healthy.name
        dead.restore()
        pod.run(0.2)                          # the next record says link up
        assert pod.add_block_device(second).backend_name == dead.name
        pod.stop()

    def test_silent_host_takes_no_new_placement_of_any_kind(self):
        pod, h0, h1, silent, healthy = self._two_drive_pod()
        pod.allocator.start_host_monitor()
        pod.run(0.25)
        for backend in (*pod.backends.values(), pod.storage_backends[silent.name]):
            backend.stop_monitors()           # h0 stops reporting
        pod.run(0.6)                          # > 3 missed records
        allocator = pod.allocator
        assert not allocator.tables["ssd"].devices[silent.name].link_up
        assert not allocator.tables["ssd"].devices[silent.name].failed
        assert allocator.devices["nic-h0"].failed    # NICs still fail over
        name, _backup = allocator.place_instance(SERVER_IP, h0.name, 0.5,
                                                 kind="ssd")
        assert name == healthy.name
        pod.stop()

    def test_ssd_commands_through_raft_leader_crash_and_snapshot_install(self):
        """place / release / reacquire on SSDs through a 3-node cluster with
        group commit on: a follower is down across a compaction and is
        reseeded by snapshot, then the leader crashes and the reseeded
        replica helps elect and commit.  (At the parent the ``-storage`` ops
        met Raft only inside the two chaos plans.)"""
        base = OasisConfig()
        config = base.with_(seed=11, failover=replace(
            base.failover, commit_batch_window_ms=0.2, lease_ttl_ms=150.0))
        pod = RackBuilder(hosts=8, pools=2, config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.25)
        alloc, shard = pod.allocator, pod.allocator.shards["pool0"]
        down = next(n for n in shard._raft_nodes if not n.is_leader)
        down.crash()
        for j in range(COMPACT_AFTER + 30):   # one batch entry per command pair
            ip = make_ip(10, 7, j >> 8, j & 0xFF)
            alloc.place_instance(ip, pod.hosts[j % 4].name, 0.5, kind="ssd")
            alloc.release_instance(ip, 0.5, kind="ssd")
            pod.run(0.0005)
        keep = make_ip(10, 8, 0, 1)
        drive, backup = alloc.place_instance(keep, "h1", 0.5, kind="ssd")
        assert drive == "ssd-h1-2" and backup is None     # local, no backup
        pod.run(0.01)
        leader = shard.leader_node()
        assert leader.log.base_index > down.last_applied
        before = shard.replicas[down.node_id].state
        down.restart()
        pod.run(0.5)
        replica = shard.replicas[down.node_id].state
        assert replica is not before                  # installed, not replayed
        assert replica.tables["ssd"].assignments == {keep: drive}
        assert replica.tables["ssd"].demands == {keep: 0.5}
        leader.crash()
        pod.run(0.6)                                  # the other two elect
        assert shard.leader_node() not in (None, leader)
        # The lease (150 ms, nobody renews it) is long dead: a fenced
        # frontend's resync re-grants the same drive under a fresh epoch.
        old = shard.leases.get(keep, drive)
        assert not old.valid(pod.sim.now)
        shard.resync(keep, "h1", kind="ssd")
        fresh = shard.leases.get(keep, drive)
        assert fresh.valid(pod.sim.now) and fresh.epoch > old.epoch
        assert shard.tables["ssd"].devices[drive].allocated == pytest.approx(0.5)
        gone = make_ip(10, 8, 0, 2)
        alloc.place_instance(gone, "h2", 0.25, kind="ssd", device="ssd-h3-2")
        alloc.release_instance(gone, 0.25, kind="ssd")
        pod.run(0.1)
        leader.restart()
        pod.run(0.5)
        assert alloc.pending_commands == 0 and alloc.convergence_ok()
        for machine in shard.replicas.values():
            drives = machine.state.tables["ssd"]
            assert drives.assignments == {keep: drive}
            assert machine.state.leases.get(keep, drive).epoch == fresh.epoch
            assert drives.devices["ssd-h3-2"].allocated == pytest.approx(0.0)
        pod.stop()
