"""The parent (PR 23) control state, kept as a test oracle.

Before PR 24 the replicated allocator state held every device-class fact
twice -- ``devices`` / ``storage_devices``, ``assignments`` /
``storage_assignments``, ``demands`` / ``storage_demands`` -- and the log
vocabulary had a ``-storage`` twin of ``place``, ``release`` and
``reacquire``.  This file is that representation, verbatim apart from the
imports and the class names; ``tests/test_control_oracle.py`` drives it and
``repro.core.control.state`` with the same command sequences.  It is the
only place the old representation lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.allocator.leases import Lease, LeaseTable
from repro.core.allocator.policy import DeviceState

__all__ = ["ReferenceControlState", "ReferenceStateMachine"]

@dataclass
class ReferenceControlState:
    """Everything the allocator must not lose across a crash."""

    lease_ttl_s: float
    devices: Dict[str, DeviceState] = field(default_factory=dict)
    storage_devices: Dict[str, DeviceState] = field(default_factory=dict)
    leases: LeaseTable = field(init=False)
    assignments: Dict[int, str] = field(default_factory=dict)
    backup_assignments: Dict[int, str] = field(default_factory=dict)
    storage_assignments: Dict[int, str] = field(default_factory=dict)
    demands: Dict[int, float] = field(default_factory=dict)
    storage_demands: Dict[int, float] = field(default_factory=dict)
    hosts: Dict[int, str] = field(default_factory=dict)   # ip -> host name
    #: Instances whose device failed with no backup available: ip -> (host,
    #: demand).  Re-placed when capacity appears (§ graceful degradation).
    parked: Dict[int, Tuple[Optional[str], float]] = field(default_factory=dict)
    #: Dedup window: the applied cids at or above ``applied_mark``; every cid
    #: below the mark was applied here and cannot be proposed again.  Not in
    #: :meth:`signature`: the canonical machine applies before it sees marks.
    applied_cids: Set[int] = field(default_factory=set)
    applied_mark: int = 0
    failovers_executed: int = 0
    migrations_executed: int = 0
    lease_expirations: int = 0
    #: How many failover commands have been applied per device -- the
    #: exactly-once invariant asserts every value is 1.
    failover_log: Dict[str, int] = field(default_factory=dict)
    #: Highest fencing epoch applied per device (monotonicity witness).
    epochs_seen: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.leases = LeaseTable(self.lease_ttl_s)

    def advance_mark(self, mark: int) -> None:
        """Raise the low-water mark and forget the cids that fell below it
        (cids are consecutive, so the total work is one step per cid)."""
        if mark > self.applied_mark:
            self.applied_cids.difference_update(range(self.applied_mark, mark))
            self.applied_mark = mark

    # -- convergence ---------------------------------------------------------------

    def signature(self) -> tuple:
        """A deterministic digest of replicated state for convergence checks.

        Deliberately excludes wall-clock-dependent fields that legitimately
        differ between the canonical machine and replicas (lease expiry
        times renewed by frontend telemetry, measured load from telemetry).
        """
        leases = tuple(sorted(
            (ip, dev, lease.epoch, lease.revoked)
            for (ip, dev), lease in self.leases._by_key.items()
        ))
        devices = tuple(sorted(
            (d.name, d.failed, d.is_backup, round(d.allocated, 6))
            for d in self.devices.values()
        ))
        storage = tuple(sorted(
            (d.name, d.failed, round(d.allocated, 6))
            for d in self.storage_devices.values()
        ))
        return (
            devices, storage, leases,
            tuple(sorted(self.assignments.items())),
            tuple(sorted(self.storage_assignments.items())),
            tuple(sorted(self.parked.items())),
            self.failovers_executed, self.migrations_executed,
            tuple(sorted(self.failover_log.items())),
            tuple(sorted(self.epochs_seen.items())),
        )

    # -- snapshot / restore ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able snapshot; :meth:`restore` rebuilds an identical state."""
        return {
            "lease_ttl_s": self.lease_ttl_s,
            "devices": [[d.name, d.host, d.capacity, d.allocated,
                         d.is_backup, d.failed]
                        for d in self.devices.values()],
            "storage_devices": [[d.name, d.host, d.capacity, d.allocated,
                                 d.is_backup, d.failed]
                                for d in self.storage_devices.values()],
            "leases": [[ip, dev, lease.granted_at, lease.expires_at,
                        lease.epoch, lease.revoked]
                       for (ip, dev), lease in self.leases._by_key.items()],
            "assignments": sorted(self.assignments.items()),
            "backup_assignments": sorted(self.backup_assignments.items()),
            "storage_assignments": sorted(self.storage_assignments.items()),
            "demands": sorted(self.demands.items()),
            "storage_demands": sorted(self.storage_demands.items()),
            "hosts": sorted(self.hosts.items()),
            "parked": [[ip, host, demand]
                       for ip, (host, demand) in sorted(self.parked.items())],
            "applied_cids": sorted(self.applied_cids),
            "applied_mark": self.applied_mark,
            "failovers_executed": self.failovers_executed,
            "migrations_executed": self.migrations_executed,
            "lease_expirations": self.lease_expirations,
            "failover_log": sorted(self.failover_log.items()),
            "epochs_seen": sorted(self.epochs_seen.items()),
        }

    @classmethod
    def restore(cls, snap: dict) -> "ReferenceControlState":
        state = cls(lease_ttl_s=snap["lease_ttl_s"])
        for name, host, capacity, allocated, is_backup, failed in snap["devices"]:
            device = DeviceState(name=name, host=host, capacity=capacity,
                                 is_backup=is_backup)
            device.allocated = allocated
            device.failed = failed
            state.devices[name] = device
        for name, host, capacity, allocated, is_backup, failed in \
                snap["storage_devices"]:
            device = DeviceState(name=name, host=host, capacity=capacity,
                                 is_backup=is_backup)
            device.allocated = allocated
            device.failed = failed
            state.storage_devices[name] = device
        for ip, dev, granted_at, expires_at, epoch, revoked in snap["leases"]:
            lease = Lease(ip, dev, granted_at, state.lease_ttl_s, epoch=epoch)
            lease.expires_at = expires_at
            lease.revoked = revoked
            state.leases._by_key[(ip, dev)] = lease
        state.assignments = dict((ip, d) for ip, d in snap["assignments"])
        state.backup_assignments = dict(
            (ip, d) for ip, d in snap["backup_assignments"])
        state.storage_assignments = dict(
            (ip, d) for ip, d in snap["storage_assignments"])
        state.demands = dict((ip, d) for ip, d in snap["demands"])
        state.storage_demands = dict(
            (ip, d) for ip, d in snap["storage_demands"])
        state.hosts = dict((ip, h) for ip, h in snap["hosts"])
        state.parked = {ip: (host, demand)
                        for ip, host, demand in snap["parked"]}
        state.applied_cids = set(snap["applied_cids"])
        state.applied_mark = snap["applied_mark"]
        state.failovers_executed = snap["failovers_executed"]
        state.migrations_executed = snap["migrations_executed"]
        state.lease_expirations = snap.get("lease_expirations", 0)
        state.failover_log = dict(
            (nic, count) for nic, count in snap["failover_log"])
        state.epochs_seen = dict((dev, e) for dev, e in snap["epochs_seen"])
        return state


class ReferenceStateMachine:
    """Applies commands to a :class:`ReferenceControlState`, exactly once per ``cid``."""

    def __init__(self, state: ReferenceControlState):
        self.state = state
        #: Decisions the last applied failover actually took (the effective
        #: backup may differ from the proposed one if it failed in between);
        #: the service reads this to run matching side effects.
        self.last_failover: Optional[dict] = None

    def apply(self, command: dict) -> bool:
        """Apply ``command``; returns False for duplicates and unknown ops."""
        state = self.state
        mark = command.get("lwm")
        if mark is not None:
            state.advance_mark(mark)
        cid = command.get("cid")
        if cid is not None and (cid < state.applied_mark
                                or cid in state.applied_cids):
            return False
        handler = self._OPS.get(command.get("op"))
        if handler is None:
            return False
        handler(self, command)
        if cid is not None:
            state.applied_cids.add(cid)
        return True

    def restore(self, snap: dict) -> None:
        """Replace the state with a snapshot's.  Devices register outside the
        log, so one newer than the snapshot (which no entry the snapshot
        covers can have touched) carries over from the state it replaces."""
        old, self.state = self.state, ReferenceControlState.restore(snap)
        for table in ("devices", "storage_devices"):
            for name, device in getattr(old, table).items():
                getattr(self.state, table).setdefault(name, device)

    # -- helpers ----------------------------------------------------------------

    def _force_grant(self, ip: int, device: str, now: float,
                     epoch: int) -> None:
        # Replicas must never crash on a stray pre-existing lease; the
        # service's decide path is what enforces no-double-grant.
        self.state.leases.revoke(ip, device)
        self.state.leases.grant(ip, device, now, epoch=epoch)

    def _note_epoch(self, device: str, epoch: int) -> None:
        if epoch > self.state.epochs_seen.get(device, 0):
            self.state.epochs_seen[device] = epoch

    # -- placement family -------------------------------------------------------

    def _op_place(self, cmd: dict) -> None:
        state = self.state
        nic, ip = cmd["nic"], cmd["ip"]
        demand = cmd.get("demand", 0.0)
        device = state.devices.get(nic)
        # Re-acquisition on the same device keeps its existing accounting.
        if device is not None and state.assignments.get(ip) != nic:
            device.allocated += demand
        state.assignments[ip] = nic
        state.demands[ip] = demand
        state.hosts[ip] = cmd.get("host")
        if cmd.get("backup"):
            state.backup_assignments[ip] = cmd["backup"]
        self._force_grant(ip, nic, cmd["now"], cmd.get("epoch", 0))
        self._note_epoch(nic, cmd.get("epoch", 0))
        state.parked.pop(ip, None)

    _op_reacquire = _op_place

    def _op_place_storage(self, cmd: dict) -> None:
        state = self.state
        ssd, ip = cmd["ssd"], cmd["ip"]
        demand = cmd.get("demand", 0.0)
        device = state.storage_devices.get(ssd)
        if device is not None and state.storage_assignments.get(ip) != ssd:
            device.allocated += demand
        state.storage_assignments[ip] = ssd
        state.storage_demands[ip] = demand
        state.hosts.setdefault(ip, cmd.get("host"))
        self._force_grant(ip, ssd, cmd["now"], cmd.get("epoch", 0))
        self._note_epoch(ssd, cmd.get("epoch", 0))

    _op_reacquire_storage = _op_place_storage

    def _op_release(self, cmd: dict) -> None:
        state = self.state
        nic, ip = cmd["nic"], cmd["ip"]
        demand = cmd.get("demand", state.demands.get(ip, 0.0))
        state.assignments.pop(ip, None)
        state.backup_assignments.pop(ip, None)
        state.demands.pop(ip, None)
        state.parked.pop(ip, None)
        if ip not in state.storage_assignments:
            state.hosts.pop(ip, None)
        device = state.devices.get(nic)
        if device is not None:
            device.allocated -= demand
        state.leases.revoke(ip, nic)
        self._note_epoch(nic, cmd.get("revoke_epoch", 0))

    def _op_release_storage(self, cmd: dict) -> None:
        state = self.state
        ssd, ip = cmd["ssd"], cmd["ip"]
        demand = cmd.get("demand", state.storage_demands.get(ip, 0.0))
        state.storage_assignments.pop(ip, None)
        state.storage_demands.pop(ip, None)
        if ip not in state.assignments and ip not in state.parked:
            state.hosts.pop(ip, None)
        device = state.storage_devices.get(ssd)
        if device is not None:
            device.allocated -= demand
        state.leases.revoke(ip, ssd)
        self._note_epoch(ssd, cmd.get("revoke_epoch", 0))

    # -- migration --------------------------------------------------------------

    def _op_migrate(self, cmd: dict) -> None:
        state = self.state
        ip, old, new = cmd["ip"], cmd["old"], cmd["new"]
        demand = cmd.get("demand", 0.0)
        state.leases.revoke(ip, old)
        self._force_grant(ip, new, cmd["now"], cmd.get("grant_epoch", 0))
        state.assignments[ip] = new
        old_device = state.devices.get(old)
        if old_device is not None:
            old_device.allocated -= demand
        new_device = state.devices.get(new)
        if new_device is not None:
            new_device.allocated += demand
        state.migrations_executed += 1
        self._note_epoch(old, cmd.get("revoke_epoch", 0))
        self._note_epoch(new, cmd.get("grant_epoch", 0))

    # -- recovery ---------------------------------------------------------------

    def _op_failover(self, cmd: dict) -> None:
        state = self.state
        nic = cmd["nic"]
        now = cmd["now"]
        device = state.devices.get(nic)
        if device is None:
            self.last_failover = None
            return
        device.failed = True
        state.failover_log[nic] = state.failover_log.get(nic, 0) + 1
        self._note_epoch(nic, cmd.get("revoke_epoch", 0))
        state.leases.revoke_device(nic)
        # Decided against the map as it stood then: an instance that migrated
        # or was released while the entry waited for a leader stays put.
        moved: List[Tuple[int, int]] = [
            (ip, epoch) for ip, epoch in cmd.get("moved", [])
            if state.assignments.get(ip) == nic
        ]
        backup_name = cmd.get("backup")
        backup = state.devices.get(backup_name) if backup_name else None
        if backup is not None and backup.failed:
            # The chosen backup died between decide and apply (double
            # failure): fall back to parking, never grant on a dead device.
            backup = None
            backup_name = None
        if backup is None:
            for ip, _epoch in moved:
                state.assignments.pop(ip, None)
                state.parked[ip] = (state.hosts.get(ip),
                                    state.demands.get(ip, 0.0))
            device.allocated = 0.0
            self.last_failover = {"nic": nic, "backup": None, "moved": moved}
            return
        for ip, epoch in moved:
            self._force_grant(ip, backup_name, now, epoch)
            state.assignments[ip] = backup_name
            if state.backup_assignments.get(ip) == backup_name:
                state.backup_assignments.pop(ip, None)
            self._note_epoch(backup_name, epoch)
        backup.allocated += device.allocated
        device.allocated = 0.0
        state.failovers_executed += 1
        self.last_failover = {"nic": nic, "backup": backup_name, "moved": moved}

    # -- group commit -----------------------------------------------------------

    def _op_batch(self, cmd: dict) -> None:
        """One Raft log entry carrying several commands (group commit).

        Sub-commands apply in decide order with their own cid dedup, so a
        batch that lands in the log twice (leader crash between append and
        ack, then a re-proposed batch) is as harmless as a duplicated
        single-command entry.
        """
        for sub in cmd.get("cmds", []):
            self.apply(sub)

    def _op_expire(self, cmd: dict) -> None:
        state = self.state
        for ip, dev, revoke_epoch, kind in cmd.get("entries", []):
            lease = state.leases.get(ip, dev)
            if lease is None:
                continue
            state.leases.revoke(ip, dev)
            state.lease_expirations += 1
            self._note_epoch(dev, revoke_epoch)
            if kind == "nic":
                if state.assignments.get(ip) == dev:
                    state.assignments.pop(ip, None)
                    state.parked[ip] = (state.hosts.get(ip),
                                        state.demands.get(ip, 0.0))
                device = state.devices.get(dev)
                if device is not None:
                    device.allocated -= state.demands.get(ip, 0.0)
            # Storage has no failover path: the assignment (and its capacity
            # reservation) stays; the instance must re-acquire a fresh epoch
            # before its posts are accepted again.

    #: op -> handler (``place-storage`` is ``_op_place_storage``), built once.
    _OPS = {name[4:].replace("_", "-"): handler
            for name, handler in vars().items()
            if name.startswith("_op_")}
