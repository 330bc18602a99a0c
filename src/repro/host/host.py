"""Hosts and their memory domains.

A host owns two memory domains:

* the **shared** domain -- a window onto the pod's CXL memory pool, accessed
  through the host's non-coherent :class:`~repro.mem.cache.HostCache`;
* the **local** domain -- the host's own DDR, modelled as a private pool with
  DDR timings.  Baseline (Junction-with-local-NIC) configurations place I/O
  buffers here; the "baseline + CXL buffers" ablation of Figure 11 moves the
  buffers to the shared domain while keeping signalling local.

Devices attached to a host DMA through :meth:`Host.dma_read` /
:meth:`Host.dma_write`, which snoop the *local host's* cache (intra-host
coherence, as real PCIe does) but never touch other hosts' caches -- the
non-coherence that Oasis's datapath is designed around (§3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..config import CacheTimings, OasisConfig
from ..mem.cache import HostCache
from ..mem.cxl import CXLMemoryPool
from ..sim.core import Simulator

__all__ = ["MemDomain", "Host"]


class MemDomain:
    """One addressable memory (a pool) as seen from one host (a cache)."""

    def __init__(self, pool: CXLMemoryPool, cache: HostCache, name: str,
                 is_shared: bool):
        self.pool = pool
        self.cache = cache
        self.name = name
        self.is_shared = is_shared

    def transfer_time(self, nbytes: int) -> float:
        return self.pool.transfer_time_s(nbytes, host=self.cache.host)


class Host:
    """A server in the CXL pod."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        shared_pool: CXLMemoryPool,
        config: Optional[OasisConfig] = None,
        index: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.index = index
        self.config = config or OasisConfig()
        self.devices: List = []
        #: the pod's pool group this host is attached to (set by the pod)
        self.group = None

        cache = HostCache(shared_pool, name, timings=shared_pool.timings)
        self.shared = MemDomain(shared_pool, cache, f"{name}-cxl", is_shared=True)

        # Local DDR: same pool machinery, DDR latency, ample DMA bandwidth.
        ddr_timings = replace(
            shared_pool.timings,
            cxl_load_ns=shared_pool.timings.ddr_load_ns,
            cxl_stream_ns=2.0,
            cxl_write_ns=shared_pool.timings.ddr_load_ns / 2,
        )
        local_cfg = replace(
            self.config.cxl,
            timings=ddr_timings,
            lanes_per_host=64,          # PCIe DMA to DDR is not the bottleneck
            pool_bytes=16 << 30,
        )
        local_pool = CXLMemoryPool(local_cfg)
        local_cache = HostCache(local_pool, name, timings=ddr_timings)
        self.local = MemDomain(local_pool, local_cache, f"{name}-ddr", is_shared=False)

        # Per-direction CXL link occupancy (§6 QoS): DMA transfers and any
        # colocated bandwidth-intensive use cases queue on the same x8 link.
        self._link_busy = {"read": 0.0, "write": 0.0}

    # -- device attachment -------------------------------------------------------

    def attach_device(self, device) -> None:
        self.devices.append(device)

    # -- DMA (device-initiated) -----------------------------------------------------

    def domain_of(self, local: bool) -> MemDomain:
        return self.local if local else self.shared

    def dma_read(self, addr: int, size: int, category: str = "payload",
                 local: bool = False, account_bytes: Optional[int] = None) -> bytes:
        """Device read; snoops this host's cache, bypasses all others."""
        domain = self.domain_of(local)
        domain.cache.snoop_dma_read(addr, size)
        return domain.pool.dma_read(addr, size, host=self.name, category=category,
                                    account_bytes=account_bytes)

    def dma_write(self, addr: int, data: bytes, category: str = "payload",
                  local: bool = False, account_bytes: Optional[int] = None) -> None:
        """Device write; invalidates this host's cached copies."""
        domain = self.domain_of(local)
        domain.cache.snoop_dma_write(addr, len(data))
        domain.pool.dma_write(addr, data, host=self.name, category=category,
                              account_bytes=account_bytes)

    def link_transfer_delay(self, nbytes: int, direction: str = "read",
                            local: bool = False) -> float:
        """Queue ``nbytes`` on this host's CXL link; return the total delay
        until the transfer completes (serialization + any backlog).

        Local-DDR transfers do not touch the CXL link.  Colocated use cases
        (e.g. an OLAP scan, §2.3/§6) can occupy the link via
        :meth:`occupy_link`, delaying device DMA exactly as shared bandwidth
        would.
        """
        if local:
            return self.local.transfer_time(nbytes)
        serialize = self.shared.transfer_time(nbytes)
        start = max(self.sim.now, self._link_busy[direction])
        self._link_busy[direction] = start + serialize
        return self._link_busy[direction] - self.sim.now

    def occupy_link(self, seconds: float, direction: str = "read") -> None:
        """Reserve link time for a non-Oasis use case (QoS experiments)."""
        start = max(self.sim.now, self._link_busy[direction])
        self._link_busy[direction] = start + seconds

