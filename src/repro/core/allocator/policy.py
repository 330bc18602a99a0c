"""Device placement policy (§3.5).

"When an instance is placed, the allocator first tries to satisfy its
allocations with host-local NIC bandwidth and SSD capacity.  If this is not
possible, the allocator greedily selects the devices with the lowest load."

Backup devices (§3.3.3) are kept underutilised: only node-local instances may
be placed on a backup NIC; remote instances never are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...errors import AllocationError

__all__ = ["DeviceState", "MOVABLE", "PlacementPolicy"]

#: The device kinds, in table order, and the one fact the control plane
#: knows about a kind: can an instance move to another device of it?  NICs
#: are interchangeable, so a NIC placement carries a backup, a failed NIC
#: fails over and an instance whose NIC lease expired is parked until it is
#: placed again.  An SSD holds the instance's data: no backup, no failover,
#: the assignment outlives an expired lease and a re-grant is on the same
#: drive.
MOVABLE = {"nic": True, "ssd": False}


@dataclass
class DeviceState:
    """Allocator-side view of one pooled device."""

    name: str
    host: str
    capacity: float               # Gbps for NICs, TB for SSDs
    allocated: float = 0.0
    is_backup: bool = False
    failed: bool = False
    measured_load: float = 0.0    # refreshed from telemetry
    kind: str = "nic"
    #: Link health from the device's latest telemetry record (or its host
    #: going silent).  Like ``measured_load`` it is never replicated; it only
    #: keeps *new* placements off the device.
    link_up: bool = True

    def utilization(self) -> float:
        return self.allocated / self.capacity if self.capacity else 0.0


class PlacementPolicy:
    """Local-first, then least-loaded greedy placement."""

    def __init__(self, allow_oversubscription: float = 1.0,
                 port_limit: Optional[int] = None):
        """``allow_oversubscription`` > 1 lets allocated demand exceed
        capacity (the whole point of pooling bursty traffic, §2.2).

        ``port_limit`` models the multi-headed device's finite head count: a
        device already serving instances from ``port_limit`` distinct hosts
        is ineligible for any further host (the head map is passed per call
        via ``choose(..., heads=...)``).
        """
        self.allow_oversubscription = allow_oversubscription
        self.port_limit = port_limit

    def _fits(self, device: DeviceState, demand: float) -> bool:
        limit = device.capacity * self.allow_oversubscription
        return device.allocated + demand <= limit

    def _eligible(self, device: DeviceState, host: str) -> bool:
        if device.failed or not device.link_up:
            return False
        if device.is_backup and device.host != host:
            return False  # backups serve only node-local instances
        return True

    def _within_ports(self, device: DeviceState, host: str,
                      heads: Optional[Dict[str, set]]) -> bool:
        if self.port_limit is None or heads is None:
            return True
        current = heads.get(device.name)
        if not current or host in current:
            return True
        return len(current) < self.port_limit

    def choose(
        self,
        devices: Dict[str, DeviceState],
        host: str,
        demand: float,
        heads: Optional[Dict[str, set]] = None,
    ) -> DeviceState:
        """Pick a device for an instance on ``host`` needing ``demand``."""
        # 1. Host-local devices first.
        local = [
            d for d in devices.values()
            if d.host == host and self._eligible(d, host) and self._fits(d, demand)
            and self._within_ports(d, host, heads)
        ]
        if local:
            return min(local, key=lambda d: d.utilization())
        # 2. Greedy least-loaded remote device.
        remote = [
            d for d in devices.values()
            if self._eligible(d, host) and self._fits(d, demand)
            and self._within_ports(d, host, heads)
        ]
        if remote:
            return min(remote, key=lambda d: d.utilization())
        raise AllocationError(
            f"no device can satisfy demand {demand} for host {host}"
        )

    def choose_backup(
        self,
        devices: Dict[str, DeviceState],
        exclude: Optional[str] = None,
    ) -> Optional[DeviceState]:
        """Pick the failover target: the designated backup if alive, else the
        least-loaded healthy device."""
        backups = [
            d for d in devices.values()
            if d.is_backup and not d.failed and d.name != exclude
        ]
        if backups:
            return min(backups, key=lambda d: d.utilization())
        others = [
            d for d in devices.values() if not d.failed and d.name != exclude
        ]
        if not others:
            return None
        return min(others, key=lambda d: d.utilization())
