"""Pod-wide IP-to-MAC resolution.

Instances share their allocated NIC's MAC address; peers resolve an
instance's IP to that MAC.  Failover does *not* change this mapping (the
backup NIC borrows the failed MAC at the switch, §3.3.3); graceful migration
does, announced by Gratuitous ARP (§3.3.4).

The registry is the usual datacenter simplification of ARP: a shared,
instantly consistent table, with GARP announcements counted so tests can
assert the §3.3.4 flow.
"""

from __future__ import annotations

from typing import Dict

from ..net.packet import BROADCAST_MAC

__all__ = ["ArpRegistry"]


class ArpRegistry:
    """IP -> MAC table shared by every endpoint in the experiment."""

    def __init__(self):
        self._table: Dict[int, int] = {}
        self.garp_count = 0

    def announce(self, ip: int, mac: int, garp: bool = False) -> None:
        self._table[ip] = mac
        if garp:
            self.garp_count += 1

    def lookup(self, ip: int) -> int:
        """Resolve; unknown IPs get the broadcast MAC (flooded by the switch)."""
        return self._table.get(ip, BROADCAST_MAC)

    def forget(self, ip: int) -> None:
        self._table.pop(ip, None)
