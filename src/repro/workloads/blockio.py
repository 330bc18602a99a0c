"""fio-style block I/O workload for the storage engine (§3.4).

The paper designs the storage engine but does not evaluate it; this workload
lets the reproduction do so: an open-loop generator issuing random reads and
writes at a configured rate, queue depth and block count against a
:class:`~repro.core.storage.frontend.VirtualBlockDevice`, recording
per-request completion latency.  Used by the storage overhead benchmark
(local SSD vs pooled-over-CXL SSD) and the storage examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.stats import summarize_latencies
from ..obs.flow import NULL_FLOWS
from ..sim.core import Simulator, USEC
from ..sim.rng import Stream

__all__ = ["BlockWorkload", "BlockWorkloadStats"]


@dataclass
class BlockWorkloadStats:
    """Results of one block-I/O run."""

    submitted: int = 0
    completed: int = 0
    errors: int = 0

    def __post_init__(self):
        self.read_latencies_us: List[float] = []
        self.write_latencies_us: List[float] = []

    def summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "read": summarize_latencies(self.read_latencies_us),
            "write": summarize_latencies(self.write_latencies_us),
        }


class BlockWorkload:
    """Open-loop random block I/O generator with a queue-depth cap."""

    def __init__(
        self,
        sim: Simulator,
        device,
        rate_iops: float = 10_000.0,
        read_fraction: float = 0.7,
        io_blocks: int = 1,
        address_blocks: int = 4096,
        queue_depth: int = 64,
        rng: Optional[Stream] = None,
        flows=None,
    ):
        self.sim = sim
        self.device = device
        self.rate_iops = rate_iops
        self.rate_mult = 1.0            # overload.surge fault hook
        self.read_fraction = read_fraction
        self.io_blocks = io_blocks
        self.address_blocks = address_blocks
        self.queue_depth = queue_depth
        self.rng = rng if rng is not None else Stream(0)
        self.stats = BlockWorkloadStats()
        self.flows = flows if flows is not None else NULL_FLOWS
        self._inflight = 0
        self._stopped = True
        self._write_payload = bytes(io_blocks * device.block_size)

    def start(self, duration: float) -> None:
        self._stopped = False
        self.sim.schedule(0.0, self._issue_one)
        self.sim.schedule(duration, self._stop)

    def _stop(self) -> None:
        self._stopped = True

    def set_rate_multiplier(self, factor: float) -> None:
        """Multiplicative surge hook (the ``overload.surge`` fault).

        At the default 1.0 the arrival draw is bit-identical to the
        unmultiplied one, so un-surged runs replay byte-identically.
        """
        self.rate_mult = factor

    @property
    def inflight(self) -> int:
        return self._inflight

    def _issue_one(self) -> None:
        if self._stopped:
            return
        rate = self.rate_iops * self.rate_mult
        self.sim.schedule(float(self.rng.exponential(1.0 / rate)),
                          self._issue_one)
        if self._inflight >= self.queue_depth:
            return   # open-loop drop: queue-depth cap reached
        lba = int(self.rng.integers(0, self.address_blocks - self.io_blocks + 1))
        start = self.sim.now
        self._inflight += 1
        self.stats.submitted += 1
        if self.rng.random() < self.read_fraction:
            flow = self.flows.start("blockio", origin="blockio", stage="issue",
                                    op="read", lba=lba)
            self.device.read(lba, self.io_blocks,
                             lambda status, data, s=start, f=flow:
                             self._complete(status, s, is_read=True, flow=f),
                             flow=flow)
        else:
            flow = self.flows.start("blockio", origin="blockio", stage="issue",
                                    op="write", lba=lba)
            self.device.write(lba, self._write_payload,
                              lambda status, s=start, f=flow:
                              self._complete(status, s, is_read=False, flow=f),
                              flow=flow)

    def _complete(self, status: int, started: float, is_read: bool,
                  flow=None) -> None:
        self._inflight -= 1
        self.stats.completed += 1
        if flow is not None:
            self.flows.complete(flow, status="ok" if status == 0 else "error")
        if status != 0:
            self.stats.errors += 1
            return
        latency_us = (self.sim.now - started) / USEC
        if is_read:
            self.stats.read_latencies_us.append(latency_us)
        else:
            self.stats.write_latencies_us.append(latency_us)
