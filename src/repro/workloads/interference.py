"""Colocated CXL bandwidth interference (§2.3 / §6 QoS).

Models a bandwidth-intensive colocated use case -- the paper's example is an
OLAP database scanning CXL-resident tables -- that shares a host's x8 CXL
link with the Oasis datapath.  The load occupies the link for a fraction of
every scheduling quantum; an optional cap models hardware bandwidth
partitioning (Intel RDT-style), the mitigation §6 proposes.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator, USEC

__all__ = ["CXLBandwidthLoad"]


class CXLBandwidthLoad:
    """Occupies a host's CXL link at a target bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        host,
        gbps: float,
        direction: str = "read",
        quantum_us: float = 2.0,
        rdt_cap_gbps: Optional[float] = None,
    ):
        self.sim = sim
        self.host = host
        self.gbps = gbps
        self.direction = direction
        self.quantum_s = quantum_us * USEC
        self.rdt_cap_gbps = rdt_cap_gbps
        self._task = None
        self.occupied_s = 0.0

    @property
    def effective_gbps(self) -> float:
        """Offered bandwidth after the RDT-style cap (§6 mitigation)."""
        if self.rdt_cap_gbps is None:
            return self.gbps
        return min(self.gbps, self.rdt_cap_gbps)

    def start(self) -> None:
        if self._task is None:
            self._task = self.sim.every(self.quantum_s, self._tick,
                                        start_after=0.0)

    def _tick(self) -> None:
        link_bps = self.host.shared.pool.config.link_bytes_per_sec
        fraction = min(1.0, self.effective_gbps * 1e9 / link_bps)
        occupy = self.quantum_s * fraction
        if occupy > 0:
            self.host.occupy_link(occupy, self.direction)
            self.occupied_s += occupy
