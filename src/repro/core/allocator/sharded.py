"""Router over a rack's per-pool-group allocators.

A placement is only valid inside one CXL pool -- the datapath needs shared
buffers, and a host reaches only devices whose rx/tx regions live in the
pool it is attached to -- so a rack runs one full
:class:`~repro.core.allocator.allocator.PodAllocator` (state machine, epoch
table, notification bus, optional Raft cluster) per pool group, and the
groups never exchange commands: a leader crash in one group's Raft cluster
stalls only that group's recovery ops (pinned by
``tests/test_control_plane.py``).

The pod hands every driver, backend epoch check and metrics reader its own
group's allocator directly, and the invariant checker and fault injector
walk ``pod.groups``.  What is left for :class:`ShardedAllocator` is what a
caller that holds only a host name, an instance ip or a device name needs:

* routing -- ``place_instance`` by host, ``release_instance`` by the shard
  holding the assignment, ``on_failure_report`` by device;
* the start/stop fan-out;
* the rack-wide roll-ups the rack experiment and the benchmark read:
  ``commit_latencies`` (and ``commit_latencies_dropped``),
  ``batches_proposed``, ``pending_commands``,
  ``convergence_ok()`` and one ``signature()``.

Anything else is asked of ``shards[name]``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from .allocator import PodAllocator

__all__ = ["ShardedAllocator"]


class ShardedAllocator:
    """``shards``: pool-group name -> that group's ``PodAllocator``."""

    def __init__(self, shards: Dict[str, PodAllocator]):
        self.shards = dict(shards)

    # -- routing -------------------------------------------------------------------

    def _shard_of_ip(self, ip: int) -> Optional[PodAllocator]:
        for shard in self.shards.values():
            for table in shard.state.tables.values():
                if ip in table.assignments or ip in table.parked:
                    return shard
        return None

    def place_instance(self, ip: int, host_name: str, demand: float,
                       kind: str = "nic", device: Optional[str] = None) -> tuple:
        # A host registers its frontend with its own group's allocator.
        for shard in self.shards.values():
            if host_name in shard.frontends["nic"]:
                return shard.place_instance(ip, host_name, demand, kind,
                                            device)
        raise KeyError(f"no pool group holds host {host_name!r}")

    def release_instance(self, ip: int, demand: float,
                         kind: str = "nic") -> None:
        shard = self._shard_of_ip(ip)
        if shard is not None:
            shard.release_instance(ip, demand, kind)

    def on_failure_report(self, nic_name: str) -> None:
        for shard in self.shards.values():
            if nic_name in shard.backends:
                shard.on_failure_report(nic_name)
                return

    # -- fan-out -------------------------------------------------------------------

    def start_host_monitor(self) -> None:
        for shard in self.shards.values():
            shard.start_host_monitor()

    def start_lease_sweeper(self, interval_s: Optional[float] = None) -> None:
        for shard in self.shards.values():
            shard.start_lease_sweeper(interval_s)

    def stop(self) -> None:
        for shard in self.shards.values():
            shard.stop()

    # -- rack-wide roll-ups --------------------------------------------------------

    @property
    def batches_proposed(self) -> int:
        return sum(s.batches_proposed for s in self.shards.values())

    @property
    def pending_commands(self) -> int:
        # Each command is pending in exactly one shard (commands never cross
        # shards), so the rack-wide backlog is a plain sum.
        return sum(s.pending_commands for s in self.shards.values())

    @property
    def commit_latencies(self) -> array:
        merged = array("d")
        for _name, shard in sorted(self.shards.items()):
            merged.extend(shard.commit_latencies)
        return merged

    @property
    def commit_latencies_dropped(self) -> int:
        return sum(s.commit_latencies_dropped for s in self.shards.values())

    def signature(self) -> tuple:
        """Every shard's canonical state signature, by shard name."""
        return tuple((name, shard.state.signature())
                     for name, shard in sorted(self.shards.items()))

    def convergence_ok(self) -> bool:
        """Every replica of every replicated shard matches its canonical
        shard state (the rack CLI's end-of-run check)."""
        for shard in self.shards.values():
            canonical = shard.state.signature()
            for node_id in shard.replicas:
                if shard.replica_signature(node_id) != canonical:
                    return False
        return True
