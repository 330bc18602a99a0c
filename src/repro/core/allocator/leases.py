"""Renewable leases binding instances to pooled devices (§3.5).

All allocator state is lease-based: an instance holds one lease per device it
uses; leases are renewed implicitly by telemetry and revoked in bulk when a
device or host fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...errors import LeaseError

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One instance-to-device binding."""

    instance_ip: int
    device: str
    granted_at: float
    ttl_s: float
    expires_at: float = field(init=False)
    revoked: bool = False
    #: Fencing epoch minted when the lease was granted (§3.3.3); stamped on
    #: every post through the device and checked by the backend.
    epoch: int = 0

    def __post_init__(self):
        self.expires_at = self.granted_at + self.ttl_s

    def renew(self, now: float) -> None:
        if self.revoked:
            raise LeaseError(f"lease {self.instance_ip}->{self.device} is revoked")
        self.expires_at = now + self.ttl_s

    def valid(self, now: float) -> bool:
        return not self.revoked and now <= self.expires_at


class LeaseTable:
    """All live leases in the pod, indexed both ways."""

    def __init__(self, ttl_s: float):
        self.ttl_s = ttl_s
        self._by_key: Dict[Tuple[int, str], Lease] = {}

    def grant(self, instance_ip: int, device: str, now: float,
              epoch: int = 0) -> Lease:
        key = (instance_ip, device)
        existing = self._by_key.get(key)
        if existing is not None and existing.valid(now):
            raise LeaseError(f"lease already held: instance {instance_ip} on {device}")
        lease = Lease(instance_ip, device, now, self.ttl_s, epoch=epoch)
        self._by_key[key] = lease
        return lease

    def get(self, instance_ip: int, device: str) -> Optional[Lease]:
        return self._by_key.get((instance_ip, device))

    def renew_device(self, device: str, now: float) -> int:
        """Renew every live lease on ``device`` (driven by telemetry)."""
        count = 0
        for (ip, dev), lease in self._by_key.items():
            if dev == device and lease.valid(now):
                lease.renew(now)
                count += 1
        return count

    def revoke(self, instance_ip: int, device: str) -> None:
        lease = self._by_key.pop((instance_ip, device), None)
        if lease is not None:
            lease.revoked = True

    def revoke_device(self, device: str) -> List[Lease]:
        """Revoke all leases on ``device``; returns the affected leases."""
        revoked = []
        for key in [k for k in self._by_key if k[1] == device]:
            lease = self._by_key.pop(key)
            lease.revoked = True
            revoked.append(lease)
        return revoked

    def leases_on(self, device: str) -> List[Lease]:
        return [l for (ip, dev), l in self._by_key.items() if dev == device]

    def expired(self, now: float) -> List[Lease]:
        return [l for l in self._by_key.values() if not l.valid(now)]
