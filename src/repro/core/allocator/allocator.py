"""The pod-wide allocator: Oasis's control plane (§3.5).

A logically centralised service, never on the data path.  It owns the
authoritative instance-to-device mapping (leases), ingests 100 ms telemetry,
places new instances (local-first, then least-loaded), and mitigates
failures: a reported NIC failure revokes the affected leases, reassigns the
instances to the backup NIC, notifies every involved frontend driver and
triggers MAC borrowing at the backup backend -- the sequence whose end-to-end
latency is the ~38 ms interruption of Figure 13.

NICs and SSDs are two kinds of one thing here: a placement is
``place_instance(ip, host, demand, kind)``, a command names a ``device`` and
the state machine finds its kind's table; what differs between kinds is
whether an instance can move to another device (``policy.MOVABLE``).

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

from dataclasses import replace
from typing import Callable, Dict, Optional

from ...config import OasisConfig
from ...errors import AllocationError
from ...obs.trace import NULL_TRACER
from ...sim.core import MSEC, Simulator, USEC
from ..control import (AllocatorStateMachine, ControlState, EpochTable,
                       NotificationBus)
from ..control.state import DeviceTable
from .policy import MOVABLE, DeviceState, PlacementPolicy
from .telemetry import TelemetryStore

__all__ = ["PodAllocator", "AllocatorClient"]

#: One-way delay of a driver's report or request to the allocator (§3.2.2).
CONTROL_HOP_S = 5.0 * USEC


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
        self.backends: Dict[str, object] = {}     # device name -> backend driver
        #: kind -> host name -> that kind's frontend driver on the host
        self.frontends: Dict[str, Dict[str, object]] = {
            kind: {} for kind in MOVABLE}
        self.telemetry_store = TelemetryStore(cfg.telemetry_interval_ms * MSEC,
                                              cfg.host_failure_missed_telemetry)
        self.on_failover: Optional[Callable[[str, Optional[str]], None]] = None
        self._host_check_task = None
        self._lease_sweep_task = None
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
        # benchmark; bounded so long runs cannot grow without limit.  A
        # sample past the cap is counted, not kept: percentiles over the
        # list then describe only a prefix, and ``rack --check`` fails.
        self._decided_at: Dict[int, float] = {}
        self.commit_latencies: list = []
        self.commit_latencies_dropped = 0
        self._commit_latency_cap = 200_000

    # -- replicated-state views ----------------------------------------------------

    @property
    def tables(self) -> Dict[str, DeviceTable]:
        return self.state.tables

    @property
    def devices(self) -> Dict[str, DeviceState]:
        return self.state.tables["nic"].devices

    @property
    def assignments(self) -> Dict[int, str]:
        return self.state.tables["nic"].assignments

    @property
    def leases(self):
        return self.state.leases

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

    def register_backend(self, backend, capacity: float, kind: str = "nic",
                         is_backup: bool = False) -> None:
        """Pool ``backend``'s device (``capacity`` in Gbps for a NIC, TB for
        an SSD).  Raises :class:`ConfigError` on a name any kind holds."""
        name = backend.device_name
        device = DeviceState(name=name, host=backend.host.name,
                             capacity=capacity, is_backup=is_backup, kind=kind)
        self.state.add_device(device)
        for replica in self.replicas.values():
            replica.state.add_device(replace(device))
        self.backends[name] = backend
        if self.state.tables[kind].parked:
            self.sim.schedule(0.0, self._retry_parked)

    def register_frontend(self, host_name: str, frontend,
                          kind: str = "nic") -> None:
        self.frontends[kind][host_name] = frontend

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
            if decided is not None:
                if len(self.commit_latencies) < self._commit_latency_cap:
                    self.commit_latencies.append(self.sim.now - decided)
                else:
                    self.commit_latencies_dropped += 1
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

    def _device_heads(self, table: DeviceTable) -> Optional[Dict[str, set]]:
        """Hosts currently attached per device (the multi-headed-device port
        map).  Only materialised when the policy enforces a port limit."""
        if self.policy.port_limit is None:
            return None
        heads: Dict[str, set] = {}
        for ip, device in table.assignments.items():
            host = table.hosts.get(ip)
            if host is not None:
                heads.setdefault(device, set()).add(host)
        return heads

    def place_instance(self, ip: int, host_name: str, demand: float,
                       kind: str = "nic", device: Optional[str] = None) -> tuple:
        """Grant ``ip`` a device of ``kind`` (demand in Gbps for a NIC, TB
        for an SSD): the operator-chosen ``device``, else the policy's pick.
        A movable kind also gets a backup.  Returns (device, backup) names;
        the minted epoch is ``epochs.entry(device, ip)``."""
        return self._grant("place", ip, host_name, demand,
                           self.state.tables[kind], device)

    def _grant(self, op: str, ip: int, host_name: str, demand: float,
               table: DeviceTable, device: Optional[str]) -> tuple:
        if device is None:
            device = self.policy.choose(table.devices, host_name, demand,
                                        heads=self._device_heads(table)).name
        elif device not in table.devices:
            raise AllocationError(f"no pooled {table.kind} is named {device!r}")
        backup = (self.policy.choose_backup(table.devices, exclude=device)
                  if table.movable else None)
        backup_name = backup.name if backup else None
        self._decide_commit({
            "op": op, "ip": ip, "host": host_name, "device": device,
            "backup": backup_name, "demand": demand,
            "epoch": self._next_epoch(device),
        })
        return device, backup_name

    def release_instance(self, ip: int, demand: float,
                         kind: str = "nic") -> None:
        device = self.state.tables[kind].assignments.get(ip)
        if device is not None:
            self._decide_commit({
                "op": "release", "ip": ip, "device": device,
                "demand": demand,
                "revoke_epoch": self._next_epoch(device),
            })

    # -- telemetry ----------------------------------------------------------------------

    def on_telemetry(self, record: dict) -> None:
        self.telemetry_store.ingest(record)
        table = self.state.table_of.get(record["device"])
        if table is not None:
            device = table.devices[record["device"]]
            device.measured_load = record.get("tx_bw", 0.0) + record.get("rx_bw", 0.0)
            device.link_up = record.get("link_up", True)

    def on_frontend_telemetry(self, record: dict) -> None:
        """Frontends renew their instances' leases; device backends cannot
        vouch for the writers, only for themselves."""
        now = self.sim.now
        for ip in record.get("ips", []):
            for table in self.state.tables.values():
                device = table.assignments.get(ip)
                if device is None:
                    continue
                lease = self.state.leases.get(ip, device)
                if lease is not None and lease.valid(now):
                    lease.renew(now)

    def _check_hosts(self) -> None:
        for host in self.telemetry_store.dead_hosts(self.sim.now):
            for table in self.state.tables.values():
                for device in list(table.devices.values()):
                    if device.host != host:
                        continue
                    device.link_up = False
                    if not device.failed:
                        self.on_failure_report(device.name)
            # Avoid re-triggering every tick.
            self.telemetry_store.mark_seen(host, self.sim.now)

    # -- failure management (§3.3.3) --------------------------------------------------------

    def on_failure_report(self, name: str) -> None:
        """A backend reported its device down (or a host went silent).  Only
        a movable kind fails over; for the rest ``link_up`` already keeps
        new placements away."""
        table = self.state.table_of.get(name)
        if table is None or not table.movable:
            return
        device = table.devices[name]
        if device.failed or name in self._failover_inflight:
            self.duplicate_reports += 1
            return
        device.failed = True
        self._failover_inflight.add(name)
        # Close the backend's report span (no-op for the silent-host path,
        # which never opened one) and open the allocator-processing span.
        self.tracer.end("failover.report", key=name)
        self.tracer.begin("failover.process", key=name,
                          category="failover", track="failover", nic=name)
        processing = self.config.failover.allocator_processing_ms * MSEC
        self.sim.schedule(processing, self._commit_failover, name, table)

    def _commit_failover(self, name: str, table: DeviceTable) -> None:
        backup = self.policy.choose_backup(table.devices, exclude=name)
        moved_ips = sorted(ip for ip, device in table.assignments.items()
                           if device == name)
        self._commit({
            "op": "failover", "device": name,
            "backup": backup.name if backup else None,
            "revoke_epoch": self._next_epoch(name),
            "moved": [[ip, self._next_epoch(backup.name) if backup else 0]
                      for ip in moved_ips],
        })

    # -- side effects (leader-only, exactly once per cid) ---------------------------

    def _execute_effects(self, command: dict) -> None:
        handler = getattr(self, "_effects_" + command.get("op", ""), None)
        if handler is not None:
            handler(command)

    def _effects_place(self, cmd: dict) -> None:
        self.epochs.publish_grant(cmd["device"], cmd["ip"], cmd.get("epoch", 0))
        if self.state.table_of[cmd["device"]].movable:
            self.tracer.instant("alloc.place", category="allocator",
                                track="allocator", ip=cmd["ip"],
                                nic=cmd["device"], backup=cmd.get("backup"))

    def _effects_reacquire(self, cmd: dict) -> None:
        cfg = self.config.failover
        ip, device, host = cmd["ip"], cmd["device"], cmd.get("host")
        table = self.state.table_of[device]
        self.epochs.publish_grant(device, ip, cmd.get("epoch", 0))
        backend = self.backends.get(device)
        if table.movable and backend is not None and host is not None:
            # The instance may be new to this device.
            backend.register_instance(ip, host)
        frontend = self.frontends[table.kind].get(host)
        if frontend is not None:
            self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                             frontend.sync_instance, ip, device,
                             cmd.get("epoch", 0))
        if table.movable:
            self.tracer.instant("failover.reacquire", category="failover",
                                track="failover", ip=ip, nic=device)

    def _effects_release(self, cmd: dict) -> None:
        self.epochs.publish_revoke(cmd["device"], cmd["ip"],
                                   cmd.get("revoke_epoch", 0))

    def _effects_migrate(self, cmd: dict) -> None:
        ip, old, new = cmd["ip"], cmd["old"], cmd["new"]
        backend = self.backends.get(new)
        frontend = self.frontends["nic"].get(cmd.get("host"))
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
        nic_name = cmd["device"]
        # Only NICs fail over.
        frontends, hosts = self.frontends["nic"], self.state.tables["nic"].hosts
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
            for host, frontend in frontends.items():
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
                host = hosts.get(ip)
                if host is not None:
                    backup_backend.register_instance(ip, host)
        # Notify every frontend using the failed NIC; they atomically reroute
        # TX traffic (buffers are already in shared CXL memory) to the
        # replacement we picked, adopting the new fencing epochs.
        for host, frontend in frontends.items():
            self.notify.send(host, cfg.notify_frontend_ms * MSEC,
                             frontend.fail_over, nic_name, backup_name,
                             epoch_map)
        # The backup NIC borrows the failed NIC's MAC so the switch reroutes
        # RX packets without application involvement.
        failed_backend = self.backends.get(nic_name)
        if backup_backend is not None and failed_backend is not None:
            self.sim.schedule(cfg.mac_borrow_ms * MSEC,
                              backup_backend.borrow_mac, failed_backend.nic.mac)
        if self.on_failover is not None:
            self.on_failover(nic_name, backup_name)

    def _effects_expire(self, cmd: dict) -> None:
        for ip, device, revoke_epoch in cmd.get("entries", []):
            self.epochs.publish_revoke(device, ip, revoke_epoch)
            self.tracer.instant("lease.expire", category="allocator",
                                track="allocator", ip=ip, device=device)

    # -- lease lifecycle ----------------------------------------------------------

    def _sweep_leases(self) -> None:
        entries = [[lease.instance_ip, lease.device,
                    self._next_epoch(lease.device)]
                   for lease in self.state.leases.expired(self.sim.now)
                   if lease.device in self.state.table_of]
        if entries:
            entries.sort()
            self._decide_commit({"op": "expire", "entries": entries})
        self._retry_parked()

    def _retry_parked(self) -> None:
        for table in self.state.tables.values():
            for ip, (host, _demand) in sorted(table.parked.items()):
                self._reacquire(ip, host, table)

    def _reacquire(self, ip: int, host_name: Optional[str],
                   table: DeviceTable) -> None:
        """Grant ``ip`` a fresh epoch: on whatever the policy picks now if
        its kind can move, else on the device that holds its data."""
        entry = table.parked.get(ip)
        demand = entry[1] if entry is not None else table.demands.get(ip, 0.0)
        host = (entry[0] if entry is not None and entry[0] else host_name) or ""
        device = None if table.movable else table.assignments[ip]
        try:
            self._grant("reacquire", ip, host, demand, table, device)
        except AllocationError:
            pass    # nowhere to go yet: stays parked for the next retry

    def resync(self, ip: int, host_name: str, kind: str = "nic") -> None:
        """A fenced frontend asked where instance ``ip`` lives now."""
        cfg = self.config.failover
        table = self.state.tables[kind]
        device = table.assignments.get(ip)
        if device is not None and not table.devices[device].failed:
            lease = self.state.leases.get(ip, device)
            if lease is not None and lease.valid(self.sim.now):
                # The frontend just missed a notification: resend it.
                frontend = self.frontends[kind].get(host_name)
                if frontend is not None:
                    epoch = self.epochs.entry(device, ip) or lease.epoch
                    self.notify.send(host_name, cfg.notify_frontend_ms * MSEC,
                                     frontend.sync_instance, ip, device, epoch)
                return
            if table.movable:
                # Expired under the frontend: revoke, then re-acquire fresh
                # -- never silently reuse a dead lease.
                self._decide_commit({"op": "expire", "entries": [
                    [ip, device, self._next_epoch(device)]]})
            self._reacquire(ip, host_name, table)
        elif table.movable and (device is None or ip in table.parked):
            self._reacquire(ip, host_name, table)
        # Otherwise the device failed but its failover has not applied yet;
        # the failover (or a later resync) will re-home the instance.

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

    def _frontend_of(self, ip: int):
        for frontend in self.frontends["nic"].values():
            if ip in frontend._records:
                return frontend
        raise AllocationError(f"no frontend knows instance {ip}")


class AllocatorClient:
    """Driver-side stub: models the channel hop to the allocator (§3.2.2)."""

    def __init__(self, sim: Simulator, allocator: PodAllocator):
        self.sim = sim
        self.allocator = allocator

    def report_failure(self, backend) -> None:
        self.sim.schedule(CONTROL_HOP_S, self.allocator.on_failure_report,
                          backend.device_name)

    def telemetry(self, backend, record: dict) -> None:
        self.sim.schedule(CONTROL_HOP_S, self.allocator.on_telemetry, record)

    def frontend_telemetry(self, record: dict) -> None:
        self.sim.schedule(CONTROL_HOP_S, self.allocator.on_frontend_telemetry,
                          record)

    def request_resync(self, ip: int, host_name: str,
                       kind: str = "nic") -> None:
        self.sim.schedule(CONTROL_HOP_S, self.allocator.resync,
                          ip, host_name, kind)
