"""Per-device fencing epochs with a CXL-resident mirror (§3.3.3).

Ownership of a pooled device is arbitrated by the allocator, but the
*enforcement* point must sit on the device side of the channel: a frontend
whose failover notification is late keeps posting through the revoked
device until it learns better.  The classic fix is a fencing token -- a
monotonically increasing epoch minted by the allocator on every grant,
revoke, failover and migration.  Frontends stamp each channel message with
the low byte of their epoch; backends compare one integer against the
published entry and reject mismatches with ``FENCED`` before touching
device state.

The table's authoritative copy lives with the allocator; when a CXL pool
region is attached, each device's epoch is additionally mirrored into one
64-byte line of pool memory (the "CXL-resident device metadata" a real
implementation would map into the backend's BAR-adjacent space).  The
mirror is written through the pool's raw line interface so fencing metadata
never perturbs the accounted data-path traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...mem.cxl import line_index

__all__ = ["EPOCH_LINE_BYTES", "EpochTable"]

#: One cacheline of CXL-resident metadata per device.
EPOCH_LINE_BYTES = 64


class EpochTable:
    """Fencing epochs: per-device counters plus per-(device, instance) entries."""

    def __init__(self, pool=None, region=None):
        #: Highest epoch ever granted or revoked on each device.
        self.device_epoch: Dict[str, int] = {}
        #: The currently valid epoch for each (device, instance ip) pair.
        self._entries: Dict[Tuple[str, int], int] = {}
        self._pool = pool
        self._region = region
        self._slots: Dict[str, int] = {}   # device -> line slot in the mirror
        self.grants = 0
        self.revokes = 0

    # -- CXL mirror ----------------------------------------------------------------

    def attach_mirror(self, pool, region) -> None:
        """Mirror device epochs into ``region`` of ``pool`` (one line each)."""
        self._pool = pool
        self._region = region
        for device in self.device_epoch:
            self._write_mirror(device)

    def _write_mirror(self, device: str) -> None:
        if self._pool is None or self._region is None:
            return
        slot = self._slots.get(device)
        if slot is None:
            slot = len(self._slots)
            self._slots[device] = slot
        if (slot + 1) * EPOCH_LINE_BYTES > self._region.size:
            return   # mirror full: authoritative copy still enforces
        line = line_index(self._region.base) + slot
        payload = self.device_epoch.get(device, 0).to_bytes(8, "little")
        self._pool.write_line(line, payload + bytes(EPOCH_LINE_BYTES - 8))

    def resident_epoch(self, device: str) -> Optional[int]:
        """Read a device's epoch back from the CXL-resident mirror."""
        slot = self._slots.get(device)
        if self._pool is None or self._region is None or slot is None:
            return None
        data = self._pool.dma_read(self._region.base + slot * EPOCH_LINE_BYTES, 8)
        return int.from_bytes(data, "little")

    # -- publication (allocator side) ----------------------------------------------

    def publish_device(self, device: str, epoch: int) -> None:
        """Advance a device's epoch without touching per-instance entries
        (failover of a device with no live grants still fences newcomers)."""
        if epoch > self.device_epoch.get(device, 0):
            self.device_epoch[device] = epoch
            self._write_mirror(device)

    def publish_grant(self, device: str, instance_ip: int, epoch: int) -> None:
        self._entries[(device, instance_ip)] = epoch
        if epoch > self.device_epoch.get(device, 0):
            self.device_epoch[device] = epoch
        self.grants += 1
        self._write_mirror(device)

    def publish_revoke(self, device: str, instance_ip: int,
                       min_epoch: int) -> None:
        """Invalidate ``(device, instance)`` entries older than ``min_epoch``.

        The guard matters for delayed revokes (migration grace periods): if
        the instance was re-granted on the device in the meantime, the newer
        entry must survive the stale revoke.
        """
        current = self._entries.get((device, instance_ip))
        if current is not None and current < min_epoch:
            del self._entries[(device, instance_ip)]
        if min_epoch > self.device_epoch.get(device, 0):
            self.device_epoch[device] = min_epoch
        self.revokes += 1
        self._write_mirror(device)

    # -- enforcement (backend side) --------------------------------------------------

    def entry(self, device: str, instance_ip: int) -> Optional[int]:
        return self._entries.get((device, instance_ip))

    def check(self, device: str, instance_ip: int, stamp: int) -> bool:
        """Would a post stamped ``stamp`` be accepted on ``device``?"""
        entry = self._entries.get((device, instance_ip))
        if entry is None:
            # No grant on record.  A device that has never minted an epoch
            # predates fencing (direct-wired test rigs): accept.  A device
            # with fencing history rejects unknown writers.
            return self.device_epoch.get(device, 0) == 0
        return (entry & 0xFF) == (stamp & 0xFF)
