"""The allocator's replicated state machine (§3.5).

Every control-plane decision is a *command*: a plain dict carrying an
``op``, a command ID (``cid``), the decision's inputs resolved at decide
time (chosen devices, minted epochs, the decide-time clock ``now``) and
nothing else.  Commands are applied deterministically -- same command
sequence, same state -- on the canonical (service-side) machine and on one
replica machine per Raft node, so a replica that crashes and rejoins (or a
follower promoted after a leader crash) converges to the same allocator
state.  Application is deduplicated by ``cid``: re-proposed commands and
duplicate log entries are harmless.  The dedup memory is a window, not a
history: every proposal carries the proposer's low-water mark (``lwm``, the
smallest integer cid still awaiting commit), anything below the highest mark
a machine has applied is a duplicate by definition, and only the applied
cids at or above it are remembered (Raft dissertation §6.3; DESIGN §3b).

State mutation happens on every replica; external side effects (frontend
notification, MAC borrowing, epoch publication) are the allocator
*service*'s job and happen exactly once, keyed by the same ``cid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...errors import ConfigError
from ..allocator.leases import Lease, LeaseTable
from ..allocator.policy import MOVABLE, DeviceState

__all__ = ["ControlState", "DeviceTable", "AllocatorStateMachine"]


@dataclass
class DeviceTable:
    """The replicated state of one device kind."""

    kind: str
    movable: bool
    devices: Dict[str, DeviceState] = field(default_factory=dict)
    assignments: Dict[int, str] = field(default_factory=dict)   # ip -> device
    backups: Dict[int, str] = field(default_factory=dict)
    demands: Dict[int, float] = field(default_factory=dict)
    hosts: Dict[int, str] = field(default_factory=dict)         # ip -> host name
    #: Instances that lost their device with nowhere to go: ip -> (host,
    #: demand).  Re-placed when capacity appears (§ graceful degradation);
    #: only a movable kind ever parks.
    parked: Dict[int, Tuple[Optional[str], float]] = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {
            "devices": [[d.name, d.host, d.capacity, d.allocated,
                         d.is_backup, d.failed]
                        for d in self.devices.values()],
            "assignments": sorted(self.assignments.items()),
            "backups": sorted(self.backups.items()),
            "demands": sorted(self.demands.items()),
            "hosts": sorted(self.hosts.items()),
            "parked": [[ip, host, demand]
                       for ip, (host, demand) in sorted(self.parked.items())],
        }


@dataclass
class ControlState:
    """Everything the allocator must not lose across a crash."""

    lease_ttl_s: float
    #: One table per device kind.  A command names a device, never a kind:
    #: names are unique across kinds, ``table_of`` maps each to its table.
    tables: Dict[str, DeviceTable] = field(default_factory=lambda: {
        kind: DeviceTable(kind, movable) for kind, movable in MOVABLE.items()})
    table_of: Dict[str, DeviceTable] = field(default_factory=dict)
    leases: LeaseTable = field(init=False)
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

    def add_device(self, device: DeviceState) -> None:
        """Register ``device`` in its kind's table.  Leases, epochs and
        telemetry are keyed by the bare name, so it must be new to every
        kind."""
        if device.name in self.table_of:
            raise ConfigError(f"device name {device.name!r} is already "
                              f"registered")
        table = self.tables[device.kind]
        table.devices[device.name] = device
        self.table_of[device.name] = table

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
        times renewed by frontend telemetry, measured load and link health
        from telemetry).
        """
        leases = tuple(sorted(
            (ip, dev, lease.epoch, lease.revoked)
            for (ip, dev), lease in self.leases._by_key.items()
        ))
        tables = tuple(
            (kind,
             tuple(sorted((d.name, d.failed, d.is_backup, round(d.allocated, 6))
                          for d in table.devices.values())),
             tuple(sorted(table.assignments.items())),
             tuple(sorted(table.parked.items())))
            for kind, table in self.tables.items())
        return (
            tables, leases,
            self.failovers_executed, self.migrations_executed,
            tuple(sorted(self.failover_log.items())),
            tuple(sorted(self.epochs_seen.items())),
        )

    # -- snapshot / restore ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able snapshot; :meth:`restore` rebuilds an identical state."""
        return {
            "lease_ttl_s": self.lease_ttl_s,
            "tables": {kind: table.snapshot()
                       for kind, table in self.tables.items()},
            "leases": [[ip, dev, lease.granted_at, lease.expires_at,
                        lease.epoch, lease.revoked]
                       for (ip, dev), lease in self.leases._by_key.items()],
            "applied_cids": sorted(self.applied_cids),
            "applied_mark": self.applied_mark,
            "failovers_executed": self.failovers_executed,
            "migrations_executed": self.migrations_executed,
            "lease_expirations": self.lease_expirations,
            "failover_log": sorted(self.failover_log.items()),
            "epochs_seen": sorted(self.epochs_seen.items()),
        }

    @classmethod
    def restore(cls, snap: dict) -> "ControlState":
        state = cls(lease_ttl_s=snap["lease_ttl_s"])
        for kind, rows in snap["tables"].items():
            table = state.tables[kind]
            for name, host, capacity, allocated, is_backup, failed in \
                    rows["devices"]:
                device = DeviceState(name=name, host=host, capacity=capacity,
                                     is_backup=is_backup, kind=kind)
                device.allocated = allocated
                device.failed = failed
                state.add_device(device)
            table.assignments.update(rows["assignments"])
            table.backups.update(rows["backups"])
            table.demands.update(rows["demands"])
            table.hosts.update(rows["hosts"])
            table.parked.update((ip, (host, demand))
                                for ip, host, demand in rows["parked"])
        for ip, dev, granted_at, expires_at, epoch, revoked in snap["leases"]:
            lease = Lease(ip, dev, granted_at, state.lease_ttl_s, epoch=epoch)
            lease.expires_at = expires_at
            lease.revoked = revoked
            state.leases._by_key[(ip, dev)] = lease
        state.applied_cids = set(snap["applied_cids"])
        state.applied_mark = snap["applied_mark"]
        state.failovers_executed = snap["failovers_executed"]
        state.migrations_executed = snap["migrations_executed"]
        state.lease_expirations = snap.get("lease_expirations", 0)
        state.failover_log = dict(
            (nic, count) for nic, count in snap["failover_log"])
        state.epochs_seen = dict((dev, e) for dev, e in snap["epochs_seen"])
        return state


class AllocatorStateMachine:
    """Applies commands to a :class:`ControlState`, exactly once per ``cid``.

    A command names its ``device``; the kind is the table that holds it.  A
    command on a device no table holds changes nothing (the decide path
    refuses to build one)."""

    def __init__(self, state: ControlState):
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
        old, self.state = self.state, ControlState.restore(snap)
        for table in old.tables.values():
            for name, device in table.devices.items():
                if name not in self.state.table_of:
                    self.state.add_device(device)

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
        name, ip = cmd["device"], cmd["ip"]
        table = state.table_of.get(name)
        if table is None:
            return
        demand = cmd.get("demand", 0.0)
        # Re-acquisition on the same device keeps its existing accounting.
        if table.assignments.get(ip) != name:
            table.devices[name].allocated += demand
        table.assignments[ip] = name
        table.demands[ip] = demand
        table.hosts[ip] = cmd.get("host")
        if cmd.get("backup"):
            table.backups[ip] = cmd["backup"]
        self._force_grant(ip, name, cmd["now"], cmd.get("epoch", 0))
        self._note_epoch(name, cmd.get("epoch", 0))
        table.parked.pop(ip, None)

    _op_reacquire = _op_place

    def _op_release(self, cmd: dict) -> None:
        state = self.state
        name, ip = cmd["device"], cmd["ip"]
        table = state.table_of.get(name)
        if table is None:
            return
        demand = cmd.get("demand", table.demands.get(ip, 0.0))
        table.assignments.pop(ip, None)
        table.backups.pop(ip, None)
        table.demands.pop(ip, None)
        table.hosts.pop(ip, None)
        table.parked.pop(ip, None)
        table.devices[name].allocated -= demand
        state.leases.revoke(ip, name)
        self._note_epoch(name, cmd.get("revoke_epoch", 0))

    # -- migration --------------------------------------------------------------

    def _op_migrate(self, cmd: dict) -> None:
        state = self.state
        ip, old, new = cmd["ip"], cmd["old"], cmd["new"]
        table = state.table_of.get(new)
        if table is None:
            return
        demand = cmd.get("demand", 0.0)
        state.leases.revoke(ip, old)
        self._force_grant(ip, new, cmd["now"], cmd.get("grant_epoch", 0))
        table.assignments[ip] = new
        old_device = table.devices.get(old)
        if old_device is not None:
            old_device.allocated -= demand
        table.devices[new].allocated += demand
        state.migrations_executed += 1
        self._note_epoch(old, cmd.get("revoke_epoch", 0))
        self._note_epoch(new, cmd.get("grant_epoch", 0))

    # -- recovery ---------------------------------------------------------------

    def _op_failover(self, cmd: dict) -> None:
        state = self.state
        name = cmd["device"]
        now = cmd["now"]
        table = state.table_of.get(name)
        if table is None:
            self.last_failover = None
            return
        device = table.devices[name]
        device.failed = True
        state.failover_log[name] = state.failover_log.get(name, 0) + 1
        self._note_epoch(name, cmd.get("revoke_epoch", 0))
        state.leases.revoke_device(name)
        # Decided against the map as it stood then: an instance that migrated
        # or was released while the entry waited for a leader stays put.
        moved: List[Tuple[int, int]] = [
            (ip, epoch) for ip, epoch in cmd.get("moved", [])
            if table.assignments.get(ip) == name
        ]
        backup_name = cmd.get("backup")
        backup = table.devices.get(backup_name) if backup_name else None
        if backup is not None and backup.failed:
            # The chosen backup died between decide and apply (double
            # failure): fall back to parking, never grant on a dead device.
            backup = None
            backup_name = None
        if backup is None:
            for ip, _epoch in moved:
                table.assignments.pop(ip, None)
                table.parked[ip] = (table.hosts.get(ip),
                                    table.demands.get(ip, 0.0))
            device.allocated = 0.0
            self.last_failover = {"device": name, "backup": None,
                                  "moved": moved}
            return
        for ip, epoch in moved:
            self._force_grant(ip, backup_name, now, epoch)
            table.assignments[ip] = backup_name
            if table.backups.get(ip) == backup_name:
                table.backups.pop(ip, None)
            self._note_epoch(backup_name, epoch)
        backup.allocated += device.allocated
        device.allocated = 0.0
        state.failovers_executed += 1
        self.last_failover = {"device": name, "backup": backup_name,
                              "moved": moved}

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
        for ip, dev, revoke_epoch in cmd.get("entries", []):
            lease = state.leases.get(ip, dev)
            if lease is None:
                continue
            state.leases.revoke(ip, dev)
            state.lease_expirations += 1
            self._note_epoch(dev, revoke_epoch)
            table = state.table_of.get(dev)
            if table is None or not table.movable:
                # The instance cannot go elsewhere: the assignment (and its
                # capacity reservation) stays; it must re-acquire a fresh
                # epoch before its posts are accepted again.
                continue
            if table.assignments.get(ip) == dev:
                table.assignments.pop(ip, None)
                table.parked[ip] = (table.hosts.get(ip),
                                    table.demands.get(ip, 0.0))
            table.devices[dev].allocated -= table.demands.get(ip, 0.0)

    #: op -> handler, built once.
    _OPS = {name[4:]: handler for name, handler in vars().items()
            if name.startswith("_op_")}
