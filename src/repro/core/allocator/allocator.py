"""The pod-wide allocator: Oasis's control plane (§3.5).

A logically centralised service, never on the data path.  It owns the
authoritative instance-to-device mapping (leases), ingests 100 ms telemetry,
places new instances (local-first, then least-loaded), and mitigates
failures: a reported NIC failure revokes the affected leases, reassigns the
instances to the backup NIC, notifies every involved frontend driver and
triggers MAC borrowing at the backup backend -- the sequence whose end-to-end
latency is the ~38 ms interruption of Figure 13.

State lives in a :class:`~repro.core.control.state.ControlState` applied
through an :class:`~repro.core.control.state.AllocatorStateMachine`, so the
whole control plane is a deterministic command stream.  Two command classes:

- **Admission ops** (place, release, migrate, re-acquire, lease expiry) are
  applied synchronously at decide time -- the service is the sequencer --
  and replicated asynchronously through Raft, deduplicated by command ID
  (an integer from that sequencer; the dedup window is DESIGN §3b).
- **Recovery ops** (failover) are *commit-gated*: proposed through Raft and
  executed only when a leader applies the committed entry.  If the leader
  crashes mid-failover, the command stays queued, is re-proposed to the new
  leader after re-election, and the state machine's command-ID dedup makes
  the failover exactly-once no matter how many times it lands in the log.

Every grant, revoke, failover and migration mints a per-device fencing
epoch (:class:`~repro.core.control.epoch.EpochTable`); backends reject
stale-epoch posts with ``FENCED`` so a frontend with a delayed or dropped
notification cannot corrupt post-failover state.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...config import OasisConfig
from ...errors import AllocationError
from ...obs.trace import NULL_TRACER
from ...sim.core import MSEC, Simulator, USEC
from ..control import (AllocatorStateMachine, ControlState, EpochTable,
                       NotificationBus)
from ..control.state import copy_device
from .policy import DeviceState, PlacementPolicy
from .telemetry import TelemetryStore

__all__ = ["PodAllocator", "AllocatorClient"]


class PodAllocator:
    """The control plane service."""

    tracer = NULL_TRACER

    def __init__(
        self,
        sim: Simulator,
        config: Optional[OasisConfig] = None,
        policy: Optional[PlacementPolicy] = None,
    ):
        self.sim = sim
        self.config = config or OasisConfig()
        cfg = self.config.failover
        self.policy = policy or PlacementPolicy(allow_oversubscription=4.0)
        self.state = ControlState(lease_ttl_s=cfg.lease_ttl_ms * MSEC)
        self.machine = AllocatorStateMachine(self.state)
        self.epochs = EpochTable()
        self.notify = NotificationBus(sim)
        self.backends: Dict[str, object] = {}     # nic name -> backend driver
        self.frontends: Dict[str, object] = {}    # host name -> frontend driver
        self.storage_frontends: Dict[str, object] = {}
        self.nic_macs: Dict[str, int] = {}
        self.telemetry_store = TelemetryStore(cfg.telemetry_interval_ms * MSEC,
                                              cfg.host_failure_missed_telemetry)
        self.on_failover: Optional[Callable[[str, Optional[str]], None]] = None
        self._host_check_task = None
        self._lease_sweep_task = None
        self.storage_backends: Dict[str, object] = {}
        # Replication: a Raft cluster with one replica state machine per node.
        self._raft_nodes: list = []
        self.replicas: Dict[str, AllocatorStateMachine] = {}
        self._pending: Dict[int, dict] = {}    # cid -> command awaiting commit
        self._proposed_at: Dict[int, float] = {}
        self._retry_task = None
        self._epoch_seq: Dict[str, int] = {}
        self._cid_seq = 0
        self._failover_inflight: set = set()
        self.duplicate_reports = 0
        self.failover_no_backup = 0
        # Group commit (rack scale): commands buffered inside the flush
        # window ride a single Raft entry.  Off (window 0) by default.
        self._batch_buf: list = []
        self._batch_timer_armed = False
        self.batches_proposed = 0
        # Decide -> leader-applied latency samples (seconds), for the rack
        # benchmark; bounded so long runs cannot grow without limit.
        self._decided_at: Dict[int, float] = {}
        self.commit_latencies: list = []
        self._commit_latency_cap = 200_000

    # -- replicated-state views ----------------------------------------------------

    @property
    def devices(self) -> Dict[str, DeviceState]:
        return self.state.devices

    @property
    def storage_devices(self) -> Dict[str, DeviceState]:
        return self.state.storage_devices

    @property
    def leases(self):
        return self.state.leases

    @property
    def assignments(self) -> Dict[int, str]:
        return self.state.assignments

    @property
    def backup_assignments(self) -> Dict[int, str]:
        return self.state.backup_assignments

    @property
    def storage_assignments(self) -> Dict[int, str]:
        return self.state.storage_assignments

    @property
    def parked(self) -> Dict[int, tuple]:
        return self.state.parked

    @property
    def failovers_executed(self) -> int:
        return self.state.failovers_executed

    @property
    def migrations_executed(self) -> int:
        return self.state.migrations_executed

    @property
    def lease_expirations(self) -> int:
        return self.state.lease_expirations

    @property
    def failover_log(self) -> Dict[str, int]:
        return self.state.failover_log

    @property
    def pending_commands(self) -> int:
        return len(self._pending)

    @property
    def replicated(self) -> bool:
        return bool(self._raft_nodes)

    def leader_node(self):
        for node in self._raft_nodes:
            if node.alive and node.is_leader:
                return node
        return None

    # -- wiring --------------------------------------------------------------------

    def attach_raft_cluster(self, nodes) -> None:
        """Replicate through a full cluster: one state-machine replica per
        node, seeded from a snapshot of the current state; the canonical
        machine (and its side effects) advance wherever the leader applies."""
        self._raft_nodes = list(nodes)
        snap = self.state.snapshot()
        self.replicas = {}
        for node in nodes:
            replica = AllocatorStateMachine(ControlState.restore(snap))
            self.replicas[node.node_id] = replica
            node.apply_cb = self._make_apply_cb(node, replica)
            node.snapshot_cb = lambda replica=replica: replica.state.snapshot()
            node.restore_cb = replica.restore
        self._start_commit_retry()

    def _make_apply_cb(self, node, replica):
        def _apply(index: int, command: dict) -> None:
            replica.apply(command)
            if node.is_leader:
                self._service_apply(command)
        return _apply

    def register_backend(self, backend, capacity_gbps: float,
                         is_backup: bool = False) -> None:
        nic = backend.nic
        device = DeviceState(
            name=nic.name, host=backend.host.name, capacity=capacity_gbps,
            is_backup=is_backup,
        )
        self.devices[nic.name] = device
        for replica in self.replicas.values():
            replica.state.devices[nic.name] = copy_device(device)
        self.backends[nic.name] = backend
        self.nic_macs[nic.name] = nic.mac
        if self.state.parked:
            self.sim.schedule(0.0, self._retry_parked)

    def register_frontend(self, host_name: str, frontend) -> None:
        self.frontends[host_name] = frontend

    def register_storage_frontend(self, host_name: str, frontend) -> None:
        self.storage_frontends[host_name] = frontend

    def start_host_monitor(self) -> None:
        """Infer host failures from missing telemetry records (§3.5)."""
        interval = self.config.failover.telemetry_interval_ms * MSEC
        self._host_check_task = self.sim.every(interval, self._check_hosts)

    def start_lease_sweeper(self, interval_s: Optional[float] = None) -> None:
        """Periodically revoke expired leases (lease lifecycle enforcement)."""
        if self._lease_sweep_task is not None:
            return
        if interval_s is None:
            interval_s = self.config.failover.lease_sweep_interval_ms * MSEC
        self._lease_sweep_task = self.sim.every(interval_s, self._sweep_leases)

    def stop(self) -> None:
        for task in (self._host_check_task, self._lease_sweep_task,
                     self._retry_task):
            if task is not None:
                task.cancel()
        self._host_check_task = None
        self._lease_sweep_task = None
        self._retry_task = None

    # -- command plumbing ----------------------------------------------------------

    def _next_epoch(self, device: str) -> int:
        nxt = max(self._epoch_seq.get(device, 0),
                  self.epochs.device_epoch.get(device, 0)) + 1
        self._epoch_seq[device] = nxt
        return nxt

    def _stamp(self, command: dict) -> dict:
        command = dict(command)
        self._cid_seq += 1
        command["cid"] = self._cid_seq
        command["now"] = self.sim.now
        return command

    def _service_apply(self, command: dict) -> None:
        """Canonical apply: mutate state once, run side effects once."""
        if command.get("op") == "batch":
            # Group-commit entry: apply + effect each sub-command in decide
            # order; a sub-command that rode an earlier entry too dedups on
            # its own cid below.
            self.state.advance_mark(command["lwm"])
            for sub in command["cmds"]:
                self._service_apply(sub)
            return
        if self.machine.apply(command):
            self._execute_effects(command)
        cid = command.get("cid")
        if cid in self._pending:
            decided = self._decided_at.pop(cid, None)
            if (decided is not None
                    and len(self.commit_latencies) < self._commit_latency_cap):
                self.commit_latencies.append(self.sim.now - decided)
            del self._pending[cid]
            self._proposed_at.pop(cid, None)

    def _decide_commit(self, command: dict) -> dict:
        """Admission ops: apply at decide time, replicate asynchronously."""
        command = self._stamp(command)
        self._service_apply(command)
        self._await_commit(command)
        return command

    def _commit(self, command: dict) -> dict:
        """Recovery ops: queue until a leader commits and applies the entry."""
        command = self._stamp(command)
        if not self.replicated:
            self._service_apply(command)
        self._await_commit(command)
        return command

    def _await_commit(self, command: dict) -> None:
        cid = command["cid"]
        if not self.replicated:
            # Nothing can propose this cid again: the window stays empty.
            self.state.advance_mark(cid + 1)
            return
        self._pending[cid] = command
        self._decided_at[cid] = self.sim.now
        self._replicate(command)

    def _replicate(self, command: dict) -> None:
        """Hand a pending command to Raft: direct, or via the batch buffer."""
        window_ms = self.config.failover.commit_batch_window_ms
        if window_ms <= 0:
            leader = self.leader_node()
            if leader is not None:
                self._propose(leader, [command])
            return
        self._batch_buf.append(command)
        if len(self._batch_buf) >= self.config.failover.commit_batch_max:
            self._flush_batch()
        elif not self._batch_timer_armed:
            # One-shot flush timer, re-armed by the next buffered command
            # after each flush (a stuck always-armed flag would strand every
            # command buffered after the first window -- see the regression
            # in tests/test_control_plane.py).
            self._batch_timer_armed = True
            self.sim.schedule(window_ms * MSEC, self._flush_batch)

    def _flush_batch(self) -> None:
        self._batch_timer_armed = False
        if not self._batch_buf:
            return
        cmds, self._batch_buf = self._batch_buf, []
        # A command can leave _pending before its flush fires (an earlier
        # duplicate entry already applied it); don't re-propose those.
        cmds = [cmd for cmd in cmds if cmd["cid"] in self._pending]
        if not cmds:
            return
        leader = self.leader_node()
        if leader is None:
            # Leaderless flush window (e.g. the leader crashed after decide):
            # the commands are already in _pending with no proposal stamp, so
            # the commit-retry task re-batches them after the next election.
            return
        self._propose(leader, cmds)

    def _propose(self, leader, cmds: list) -> None:
        """Hand pending ``cmds`` to ``leader``: one ``batch`` entry under group
        commit, else an entry each.  Every entry carries the low-water mark,
        the smallest cid still pending.  It only grows (new cids are larger,
        ``_pending`` only loses members), and no cid below it can reach a log
        again, so a machine that has applied the entry may forget them."""
        if self.config.failover.commit_batch_window_ms > 0:
            entries = [{"op": "batch", "cmds": list(cmds)}]
            self.batches_proposed += 1
        else:
            entries = [dict(cmd) for cmd in cmds]
        mark, now = min(self._pending), self.sim.now
        for cmd in cmds:
            self._proposed_at[cmd["cid"]] = now
        for entry in entries:
            entry["lwm"] = mark
            leader.propose(entry)

    def _start_commit_retry(self) -> None:
        if self._retry_task is not None:
            return
        interval = self.config.failover.commit_retry_ms * MSEC
        self._retry_task = self.sim.every(interval, self._retry_pending)

    def _retry_pending(self) -> None:
        """Re-propose queued commands (e.g. after a leader crash) in decide
        order; duplicate log entries are deduplicated by cid at apply."""
        if not self._pending:
            return
        leader = self.leader_node()
        if leader is None:
            return
        interval = self.config.failover.commit_retry_ms * MSEC
        due = [cid for cid in sorted(self._pending)
               if self.sim.now - self._proposed_at.get(cid, -1.0)
               >= interval * 0.99]
        if not due:
            return
        # (under group commit the whole overdue backlog rides one entry)
        self._propose(leader, [self._pending[cid] for cid in due])

    def replica_signature(self, node_id: str):
        replica = self.replicas.get(node_id)
        return None if replica is None else replica.state.signature()

    def retained(self) -> Dict[str, int]:
        """History still held (DESIGN §3b): the longest node log and the
        widest dedup window.  Both stay constant however long the pod runs."""
        machines = (self.machine, *self.replicas.values())
        return {
            "log_entries": max((len(node.log) for node in self._raft_nodes),
                               default=0),
            "dedup_window": max(len(m.state.applied_cids) for m in machines),
        }

    # -- placement --------------------------------------------------------------------

    def _device_heads(self, storage: bool = False) -> Optional[Dict[str, set]]:
        """Hosts currently attached per device (the multi-headed-device port
        map).  Only materialised when the policy enforces a port limit."""
        if self.policy.port_limit is None:
            return None
        table = (self.state.storage_assignments if storage
                 else self.state.assignments)
        heads: Dict[str, set] = {}
        for ip, device in table.items():
            host = self.state.hosts.get(ip)
            if host is not None:
                heads.setdefault(device, set()).add(host)
        return heads

    def choose_backup_name(self, exclude: str) -> Optional[str]:
        """Pick a backup device name for a pinned placement (pod helper)."""
        backup = self.policy.choose_backup(self.devices, exclude=exclude)
        return backup.name if backup else None

    def place_instance(self, ip: int, host_name: str, nic_demand_gbps: float) -> tuple:
        """Allocate a (primary, backup) NIC pair for a new instance."""
        device = self.policy.choose(self.devices, host_name, nic_demand_gbps,
                                    heads=self._device_heads())
        backup = self.policy.choose_backup(self.devices, exclude=device.name)
        self._decide_commit({
            "op": "place", "ip": ip, "host": host_name, "nic": device.name,
            "backup": backup.name if backup else None,
            "demand": nic_demand_gbps, "epoch": self._next_epoch(device.name),
        })
        return device.name, backup.name if backup else None

    def place_pinned(self, ip: int, host_name: str, nic_name: str,
                     nic_demand_gbps: float = 0.0,
                     backup: Optional[str] = None) -> int:
        """Grant ``ip`` on an operator-chosen NIC; returns the minted epoch."""
        epoch = self._next_epoch(nic_name)
        self._decide_commit({
            "op": "place", "ip": ip, "host": host_name, "nic": nic_name,
            "backup": backup, "demand": nic_demand_gbps, "epoch": epoch,
        })
        return epoch

    # -- storage placement (§3.4) -----------------------------------------------

    def register_storage_backend(self, backend, capacity_tb: float) -> None:
        ssd = backend.ssd
        device = DeviceState(
            name=ssd.name, host=backend.host.name, capacity=capacity_tb,
        )
        self.storage_devices[ssd.name] = device
        for replica in self.replicas.values():
            replica.state.storage_devices[ssd.name] = copy_device(device)
        self.storage_backends[ssd.name] = backend

    def place_storage(self, ip: int, host_name: str, ssd_demand_tb: float) -> str:
        """Allocate an SSD for a new instance; returns the device name."""
        device = self.policy.choose(self.storage_devices, host_name,
                                    ssd_demand_tb,
                                    heads=self._device_heads(storage=True))
        self._decide_commit({
            "op": "place-storage", "ip": ip, "host": host_name,
            "ssd": device.name, "demand": ssd_demand_tb,
            "epoch": self._next_epoch(device.name),
        })
        return device.name

    def place_pinned_storage(self, ip: int, host_name: str, ssd_name: str,
                             ssd_demand_tb: float = 0.0) -> int:
        """Grant ``ip`` on an operator-chosen SSD; returns the minted epoch."""
        epoch = self._next_epoch(ssd_name)
        self._decide_commit({
            "op": "place-storage", "ip": ip, "host": host_name,
            "ssd": ssd_name, "demand": ssd_demand_tb, "epoch": epoch,
        })
        return epoch

    def release_storage(self, ip: int, ssd_demand_tb: float) -> None:
        ssd = self.storage_assignments.get(ip)
        if ssd is not None:
            self._decide_commit({
                "op": "release-storage", "ip": ip, "ssd": ssd,
                "demand": ssd_demand_tb,
                "revoke_epoch": self._next_epoch(ssd),
            })

    def on_storage_telemetry(self, record: dict) -> None:
        self.telemetry_store.ingest(record)
        device = self.storage_devices.get(record["nic"])
        if device is not None:
            device.measured_load = record.get("tx_bw", 0.0) + record.get("rx_bw", 0.0)

    def release_instance(self, ip: int, nic_demand_gbps: float) -> None:
        nic = self.assignments.get(ip)
        if nic is not None:
            self._decide_commit({
                "op": "release", "ip": ip, "nic": nic,
                "demand": nic_demand_gbps,
                "revoke_epoch": self._next_epoch(nic),
            })

    # -- telemetry ----------------------------------------------------------------------

    def on_telemetry(self, record: dict) -> None:
        self.telemetry_store.ingest(record)
        device = self.devices.get(record["nic"])
        if device is not None:
            device.measured_load = record.get("tx_bw", 0.0) + record.get("rx_bw", 0.0)

    def on_frontend_telemetry(self, record: dict) -> None:
        """Frontends renew their instances' leases; device backends cannot
        vouch for the writers, only for themselves."""
        now = self.sim.now
        for ip in record.get("ips", []):
            for table in (self.assignments, self.storage_assignments):
                device = table.get(ip)
                if device is None:
                    continue
                lease = self.state.leases.get(ip, device)
                if lease is not None and lease.valid(now):
                    lease.renew(now)

    def _check_hosts(self) -> None:
        for host in self.telemetry_store.dead_hosts(self.sim.now):
            for device in list(self.devices.values()):
                if device.host == host and not device.failed:
                    self.on_failure_report(device.name)
            # Avoid re-triggering every tick.
            self.telemetry_store.mark_seen(host, self.sim.now)

    # -- failure management (§3.3.3) --------------------------------------------------------

    def on_failure_report(self, nic_name: str) -> None:
        """A backend reported its NIC down (or a host went silent)."""
        device = self.devices.get(nic_name)
        if device is None:
            return
        if device.failed or nic_name in self._failover_inflight:
            self.duplicate_reports += 1
            return
        device.failed = True
        self._failover_inflight.add(nic_name)
        # Close the backend's report span (no-op for the silent-host path,
        # which never opened one) and open the allocator-processing span.
        self.tracer.end("failover.report", key=nic_name)
        self.tracer.begin("failover.process", key=nic_name,
                          category="failover", track="failover", nic=nic_name)
        processing = self.config.failover.allocator_processing_ms * MSEC
        self.sim.schedule(processing, self._commit_failover, nic_name)

    def _commit_failover(self, nic_name: str) -> None:
        device = self.devices.get(nic_name)
        if device is None:
            return
        backup = self.policy.choose_backup(self.devices, exclude=nic_name)
        moved_ips = sorted(ip for ip, nic in self.assignments.items()
                           if nic == nic_name)
        self._commit({
            "op": "failover", "nic": nic_name,
            "backup": backup.name if backup else None,
            "revoke_epoch": self._next_epoch(nic_name),
            "moved": [[ip, self._next_epoch(backup.name) if backup else 0]
                      for ip in moved_ips],
        })

    # -- side effects (leader-only, exactly once per cid) ---------------------------

    def _execute_effects(self, command: dict) -> None:
        op = command.get("op", "")
        handler = getattr(self, "_effects_" + op.replace("-", "_"), None)
        if handler is not None:
            handler(command)

    def _effects_place(self, cmd: dict) -> None:
        self.epochs.publish_grant(cmd["nic"], cmd["ip"], cmd.get("epoch", 0))
        self.tracer.instant("alloc.place", category="allocator",
                            track="allocator", ip=cmd["ip"], nic=cmd["nic"],
                            backup=cmd.get("backup"))

    def _effects_reacquire(self, cmd: dict) -> None:
        cfg = self.config.failover
        self.epochs.publish_grant(cmd["nic"], cmd["ip"], cmd.get("epoch", 0))
        host = cmd.get("host")
        backend = self.backends.get(cmd["nic"])
        if backend is not None and host is not None:
            backend.register_instance(cmd["ip"], host)
        frontend = self.frontends.get(host)
        if frontend is not None:
            self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                             frontend.sync_instance, cmd["ip"], cmd["nic"],
                             cmd.get("epoch", 0))
        self.tracer.instant("failover.reacquire", category="failover",
                            track="failover", ip=cmd["ip"], nic=cmd["nic"])

    def _effects_place_storage(self, cmd: dict) -> None:
        self.epochs.publish_grant(cmd["ssd"], cmd["ip"], cmd.get("epoch", 0))

    def _effects_reacquire_storage(self, cmd: dict) -> None:
        cfg = self.config.failover
        self.epochs.publish_grant(cmd["ssd"], cmd["ip"], cmd.get("epoch", 0))
        host = cmd.get("host")
        frontend = self.storage_frontends.get(host)
        if frontend is not None:
            self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                             frontend.set_stamp, cmd["ssd"], cmd["ip"],
                             cmd.get("epoch", 0))

    def _effects_release(self, cmd: dict) -> None:
        self.epochs.publish_revoke(cmd["nic"], cmd["ip"],
                                   cmd.get("revoke_epoch", 0))

    def _effects_release_storage(self, cmd: dict) -> None:
        self.epochs.publish_revoke(cmd["ssd"], cmd["ip"],
                                   cmd.get("revoke_epoch", 0))

    def _effects_migrate(self, cmd: dict) -> None:
        ip, old, new = cmd["ip"], cmd["old"], cmd["new"]
        backend = self.backends.get(new)
        frontend = self.frontends.get(cmd.get("host"))
        self.epochs.publish_grant(new, ip, cmd.get("grant_epoch", 0))
        if backend is not None and frontend is not None:
            backend.register_instance(ip, frontend.host.name)
            frontend.migrate_instance(ip, frontend.link(new),
                                      epoch=cmd.get("grant_epoch", 0))
        # The old NIC keeps accepting this instance until the dual-RX grace
        # window closes; the min-epoch guard keeps a re-grant alive.
        grace = self.config.failover.migration_grace_period_s
        self.sim.schedule(grace, self.epochs.publish_revoke, old, ip,
                          cmd.get("revoke_epoch", 0))
        self.tracer.instant("alloc.migrate", category="allocator",
                            track="allocator", ip=ip, old=old, new=new)

    def _effects_failover(self, cmd: dict) -> None:
        cfg = self.config.failover
        nic_name = cmd["nic"]
        info = self.machine.last_failover or {"backup": None, "moved": []}
        self._failover_inflight.discard(nic_name)
        backup_name = info.get("backup")
        moved = info["moved"]    # (ip, epoch) pairs the apply really moved
        revoke_epoch = cmd.get("revoke_epoch", 0)
        self.epochs.publish_device(nic_name, revoke_epoch)
        for ip, _epoch in moved:
            self.epochs.publish_revoke(nic_name, ip, revoke_epoch)
        self.tracer.end("failover.process", key=nic_name, backup=backup_name)
        if backup_name is None:
            # Graceful degradation: no backup available.  Instances are
            # parked; they re-acquire when a backend registers (or the
            # sweeper retries).
            self.failover_no_backup += 1
            self.tracer.instant("failover.no_backup", category="failover",
                                track="failover", nic=nic_name,
                                parked=len(moved))
            for host, frontend in self.frontends.items():
                self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                                 frontend.fail_over, nic_name, None, {})
            if self.on_failover is not None:
                self.on_failover(nic_name, None)
            return
        self.tracer.begin("failover.reroute", key=nic_name,
                          category="failover", track="failover",
                          nic=nic_name, backup=backup_name)
        # The reroute phase ends once the slower of the two parallel legs
        # (frontend notification / MAC borrowing) has landed.
        reroute_ms = max(cfg.notify_frontend_ms, cfg.mac_borrow_ms)
        self.sim.schedule(reroute_ms * MSEC, self.tracer.end,
                          "failover.reroute", nic_name)
        epoch_map = dict(moved)
        for ip, epoch in moved:
            self.epochs.publish_grant(backup_name, ip, epoch)
        backup_backend = self.backends.get(backup_name)
        if backup_backend is not None:
            for ip in epoch_map:
                host = self.state.hosts.get(ip)
                if host is not None:
                    backup_backend.register_instance(ip, host)
        # Notify every frontend using the failed NIC; they atomically reroute
        # TX traffic (buffers are already in shared CXL memory) to the
        # replacement we picked, adopting the new fencing epochs.
        for host, frontend in self.frontends.items():
            self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                             frontend.fail_over, nic_name, backup_name,
                             epoch_map)
        # The backup NIC borrows the failed NIC's MAC so the switch reroutes
        # RX packets without application involvement.
        failed_mac = self.nic_macs.get(nic_name)
        if backup_backend is not None and failed_mac is not None:
            self.sim.schedule(cfg.mac_borrow_ms * MSEC,
                              backup_backend.borrow_mac, failed_mac)
        if self.on_failover is not None:
            self.on_failover(nic_name, backup_name)

    def _effects_expire(self, cmd: dict) -> None:
        for ip, device, revoke_epoch, _kind in cmd.get("entries", []):
            self.epochs.publish_revoke(device, ip, revoke_epoch)
            self.tracer.instant("lease.expire", category="allocator",
                                track="allocator", ip=ip, device=device)

    # -- lease lifecycle ----------------------------------------------------------

    def _sweep_leases(self) -> None:
        now = self.sim.now
        entries = []
        for lease in self.state.leases.expired(now):
            device = lease.device
            if device in self.devices:
                kind = "nic"
            elif device in self.storage_devices:
                kind = "ssd"
            else:
                continue
            entries.append([lease.instance_ip, device,
                            self._next_epoch(device), kind])
        if entries:
            entries.sort()
            self._decide_commit({"op": "expire", "entries": entries})
        if self.state.parked:
            self._retry_parked()

    def _retry_parked(self) -> None:
        for ip, (host, demand) in sorted(self.state.parked.items()):
            self._reacquire(ip, host)

    def _reacquire(self, ip: int, host_name: Optional[str]) -> bool:
        entry = self.state.parked.get(ip)
        demand = entry[1] if entry is not None else self.state.demands.get(ip, 0.0)
        host = (entry[0] if entry is not None and entry[0] else host_name) or ""
        try:
            device = self.policy.choose(self.devices, host, demand,
                                        heads=self._device_heads())
        except AllocationError:
            return False
        backup = self.policy.choose_backup(self.devices, exclude=device.name)
        self._decide_commit({
            "op": "reacquire", "ip": ip, "host": host, "nic": device.name,
            "backup": backup.name if backup else None, "demand": demand,
            "epoch": self._next_epoch(device.name),
        })
        return True

    def resync_instance(self, ip: int, host_name: str) -> None:
        """A fenced frontend asked where instance ``ip`` lives now."""
        cfg = self.config.failover
        now = self.sim.now
        nic = self.assignments.get(ip)
        if nic is not None and not self.devices[nic].failed:
            lease = self.state.leases.get(ip, nic)
            if lease is not None and lease.valid(now):
                # The frontend just missed a notification: resend it.
                frontend = self.frontends.get(host_name)
                if frontend is not None:
                    epoch = self.epochs.entry(nic, ip) or lease.epoch
                    self.notify.send(host_name, cfg.notify_frontend_ms * MSEC,
                                     frontend.sync_instance, ip, nic, epoch)
                return
            # Expired under the frontend: revoke, then re-acquire fresh --
            # never silently reuse a dead lease.
            self._decide_commit({"op": "expire", "entries": [
                [ip, nic, self._next_epoch(nic), "nic"]]})
            self._reacquire(ip, host_name)
            return
        if nic is None or ip in self.state.parked:
            self._reacquire(ip, host_name)
        # Otherwise the device failed but its failover has not applied yet;
        # the failover (or a later resync) will re-home the instance.

    def resync_storage(self, ip: int, host_name: str) -> None:
        """A fenced storage frontend asked for a fresh grant."""
        cfg = self.config.failover
        now = self.sim.now
        ssd = self.storage_assignments.get(ip)
        if ssd is None:
            return
        lease = self.state.leases.get(ip, ssd)
        if lease is not None and lease.valid(now):
            frontend = self.storage_frontends.get(host_name)
            if frontend is not None:
                epoch = self.epochs.entry(ssd, ip) or lease.epoch
                self.notify.send(host_name, cfg.notify_frontend_ms * MSEC,
                                 frontend.set_stamp, ssd, ip, epoch)
            return
        self._decide_commit({
            "op": "reacquire-storage", "ip": ip, "host": host_name,
            "ssd": ssd, "demand": self.state.storage_demands.get(ip, 0.0),
            "epoch": self._next_epoch(ssd),
        })

    # -- load balancing (§3.3.4) ------------------------------------------------------------------

    def migrate(self, ip: int, new_nic: str, demand_gbps: float = 0.0) -> None:
        """Gracefully migrate one instance's traffic to ``new_nic``."""
        old_nic = self.assignments.get(ip)
        if old_nic == new_nic or old_nic is None:
            return
        frontend = self._frontend_of(ip)
        self._decide_commit({
            "op": "migrate", "ip": ip, "old": old_nic, "new": new_nic,
            "host": frontend.host.name, "demand": demand_gbps,
            "revoke_epoch": self._next_epoch(old_nic),
            "grant_epoch": self._next_epoch(new_nic),
        })

    def rebalance_once(self, demand_gbps: float = 0.0) -> Optional[tuple]:
        """Move one instance from the most- to the least-loaded NIC."""
        candidates = [d for d in self.devices.values()
                      if not d.failed and not d.is_backup]
        if len(candidates) < 2:
            return None
        hottest = max(candidates, key=lambda d: d.measured_load)
        coldest = min(candidates, key=lambda d: d.measured_load)
        if hottest.name == coldest.name:
            return None
        victims = [ip for ip, nic in self.assignments.items()
                   if nic == hottest.name]
        if not victims:
            return None
        ip = victims[0]
        self.migrate(ip, coldest.name, demand_gbps)
        return ip, hottest.name, coldest.name

    def _frontend_of(self, ip: int):
        for frontend in self.frontends.values():
            if ip in frontend._records:
                return frontend
        raise AllocationError(f"no frontend knows instance {ip}")


class AllocatorClient:
    """Driver-side stub: models the channel hop to the allocator (§3.2.2).

    ``storage=True`` routes telemetry to the storage-device table.
    """

    def __init__(self, sim: Simulator, allocator: PodAllocator,
                 latency_us: float = 5.0, storage: bool = False):
        self.sim = sim
        self.allocator = allocator
        self.latency_s = latency_us * USEC
        self.storage = storage

    def report_failure(self, backend) -> None:
        self.sim.schedule(self.latency_s, self.allocator.on_failure_report,
                          backend.nic.name)

    def telemetry(self, backend, record: dict) -> None:
        target = (self.allocator.on_storage_telemetry if self.storage
                  else self.allocator.on_telemetry)
        self.sim.schedule(self.latency_s, target, record)

    def frontend_telemetry(self, record: dict) -> None:
        self.sim.schedule(self.latency_s, self.allocator.on_frontend_telemetry,
                          record)

    def request_resync(self, ip: int, host_name: str) -> None:
        self.sim.schedule(self.latency_s, self.allocator.resync_instance,
                          ip, host_name)

    def request_storage_resync(self, ip: int, host_name: str) -> None:
        self.sim.schedule(self.latency_s, self.allocator.resync_storage,
                          ip, host_name)
