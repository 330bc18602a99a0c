"""Virtual-time microbenchmark for one-way message passing (Figure 6).

Mirrors the paper's two-socket setup (§3.2.2): one sender core and one
receiver core, each behind its own non-coherent cache, exchanging fixed-size
messages through a ring in shared CXL memory.  The harness interleaves the
two actors in global virtual-time order so that the *functional* ring state
(including staleness) is temporally consistent, and layers two timing
refinements on top of the per-operation CPU costs:

* **posted-write flight time** -- a CLWB'd line lands in the pool
  ``cxl_write_ns`` after the writeback executes (via the cache's
  ``writeback_hook``);
* **memory-level parallelism** -- prefetched lines arrive ``cxl_load_ns``
  after issue; touching a line still in flight stalls the receiver for the
  remaining time, while demand misses serialise.  This is what separates
  design ② (serialised invalidate+miss per line, ~8.6 MOp/s) from designs
  ③/④ (pipelined prefetches, ~87 MOp/s).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import CACHE_LINE, OasisConfig
from ..mem.cache import HostCache
from ..mem.cxl import CXLMemoryPool
from ..mem.layout import Region
from .designs import make_receiver
from .protocol import ChannelSender, TimingHooks
from .ring import RingLayout

__all__ = ["ChannelMicrobench", "MicrobenchResult", "sweep_designs"]

_PAYLOAD16 = struct.Struct("<BHIQx")  # opcode, size, ip, pointer + 1 pad byte


@dataclass
class MicrobenchResult:
    """One (design, offered-load) data point."""

    design: str
    offered_mops: float            # inf for closed-loop saturation runs
    achieved_mops: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float
    messages: int


class _PipelineTiming(TimingHooks):
    """Tracks in-flight prefetches; `clock_ns` is advanced by the harness."""

    def __init__(self, cxl_load_ns: float):
        self.cxl_load_ns = cxl_load_ns
        self.clock_ns = 0.0
        self.ready: Dict[int, float] = {}

    def on_prefetch_issued(self, line_index: int) -> None:
        self.ready[line_index] = self.clock_ns + self.cxl_load_ns

    def on_demand_fill(self, line_index: int) -> None:
        self.ready.pop(line_index, None)

    def on_invalidate(self, line_index: int) -> None:
        self.ready.pop(line_index, None)

    def hit_stall_ns(self, line_index: int) -> float:
        ready_at = self.ready.pop(line_index, None)
        if ready_at is None:
            return 0.0
        return max(0.0, ready_at - self.clock_ns)


class ChannelMicrobench:
    """Drive one channel design at one offered load in virtual time."""

    #: sender busy-wait before retrying a full ring, ns
    RETRY_NS = 100.0
    #: sender flushes a partial line if the next message is further out
    FLUSH_LAG_NS = 200.0

    def __init__(
        self,
        design: str = "invalidate-prefetched",
        config: Optional[OasisConfig] = None,
        slots: Optional[int] = None,
        message_size: int = 16,
        prefetch_depth: Optional[int] = None,
        counter_batch: Optional[int] = None,
    ):
        self.config = config or OasisConfig()
        self.design = design
        self.slots = slots if slots is not None else self.config.datapath.channel_slots
        self.message_size = message_size
        self.prefetch_depth = (
            prefetch_depth if prefetch_depth is not None
            else self.config.datapath.prefetch_depth
        )
        self.counter_batch = counter_batch
        self.timings = self.config.cxl.timings

        ring_bytes = RingLayout.required_bytes(self.slots, message_size)
        self.pool = CXLMemoryPool(self.config.cxl, size=ring_bytes)
        self.layout = RingLayout(Region(0, ring_bytes, "microbench-ring"),
                                 self.slots, message_size)
        self.sender_cache = HostCache(self.pool, "sender", timings=self.timings)
        self.receiver_cache = HostCache(self.pool, "receiver", timings=self.timings)
        self.sender = ChannelSender(self.layout, self.sender_cache)
        self.pipeline = _PipelineTiming(self.timings.cxl_load_ns)
        kwargs = dict(counter_batch=self.counter_batch, timing=self.pipeline)
        if design != "bypass-cache":
            kwargs["prefetch_depth"] = self.prefetch_depth
        self.receiver = make_receiver(design, self.layout, self.receiver_cache, **kwargs)

        # Posted writes from either cache land in the pool after a flight time.
        self._pending: List[tuple] = []  # (apply_time_ns, line_index, data)
        self._actor_now = 0.0
        self.sender_cache.writeback_hook = self._delayed_writeback
        self.receiver_cache.writeback_hook = self._delayed_writeback

    # -- delayed visibility ----------------------------------------------------

    def _delayed_writeback(self, line_index: int, data: bytes, category: str) -> None:
        self._pending.append((self._actor_now + self.timings.cxl_write_ns, line_index, data))

    def _apply_pending(self, up_to_ns: float) -> None:
        if not self._pending:
            return
        remaining = []
        for apply_at, line_index, data in self._pending:
            if apply_at <= up_to_ns:
                self.pool.write_line(line_index, data)
            else:
                remaining.append((apply_at, line_index, data))
        self._pending = remaining

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        n_messages: int = 30_000,
        interval_ns: Optional[float] = None,
        warmup_fraction: float = 0.2,
    ) -> MicrobenchResult:
        """Send ``n_messages``; ``interval_ns=None`` means closed-loop saturation."""
        import numpy as np
        if interval_ns is None:
            arrivals = np.zeros(n_messages)
            offered = float("inf")
        else:
            arrivals = np.arange(n_messages, dtype=float) * interval_ns
            offered = 1e3 / interval_ns  # MOp/s

        sender_clock = 0.0
        receiver_clock = 0.0
        send_times: Dict[int, float] = {}
        recv_times: List[float] = []
        latencies: List[float] = []
        next_msg = 0
        received = 0

        while received < n_messages:
            if next_msg < n_messages:
                next_send_t = max(sender_clock, arrivals[next_msg])
            else:
                next_send_t = float("inf")

            if next_send_t <= receiver_clock:
                # -- sender step
                self._apply_pending(next_send_t)
                self._actor_now = next_send_t
                payload = _PAYLOAD16.pack(1, self.message_size, next_msg & 0xFFFFFFFF,
                                          next_msg)
                payload = payload.ljust(self.message_size, b"\x00")
                ok, cost = self.sender.try_send(payload)
                if ok:
                    send_times[self.sender.next_seq - 1] = next_send_t
                    sender_clock = next_send_t + cost
                    no_more_soon = (
                        next_msg + 1 >= n_messages
                        or arrivals[next_msg + 1] > sender_clock + self.FLUSH_LAG_NS
                    )
                    if no_more_soon:
                        self._actor_now = sender_clock
                        sender_clock += self.sender.flush()
                    next_msg += 1
                else:
                    sender_clock = next_send_t + cost + self.RETRY_NS
            else:
                # -- receiver step
                self._apply_pending(receiver_clock)
                self.pipeline.clock_ns = receiver_clock
                payload, cost = self.receiver.poll()
                receiver_clock += max(cost, 1.0)
                if payload is not None:
                    seq = self.receiver.next_seq - 1
                    latencies.append(receiver_clock - send_times.pop(seq))
                    recv_times.append(receiver_clock)
                    received += 1

        skip = int(len(latencies) * warmup_fraction)
        lat = np.asarray(latencies[skip:]) / 1e3  # us
        times = np.asarray(recv_times[skip:])
        if len(times) > 1 and times[-1] > times[0]:
            achieved = (len(times) - 1) / (times[-1] - times[0]) * 1e3  # MOp/s
        else:
            achieved = 0.0
        return MicrobenchResult(
            design=self.design,
            offered_mops=offered,
            achieved_mops=achieved,
            latency_p50_us=float(np.percentile(lat, 50)) if len(lat) else 0.0,
            latency_p99_us=float(np.percentile(lat, 99)) if len(lat) else 0.0,
            latency_mean_us=float(lat.mean()) if len(lat) else 0.0,
            messages=len(lat),
        )


def sweep_designs(
    designs: Sequence[str] = (
        "bypass-cache",
        "naive-prefetch",
        "invalidate-consumed",
        "invalidate-prefetched",
    ),
    offered_mops: Sequence[float] = (0.5, 1, 2, 4, 8, 14, 20, 30, 50, 80),
    n_messages: int = 30_000,
    slots: Optional[int] = None,
    config: Optional[OasisConfig] = None,
) -> Dict[str, List[MicrobenchResult]]:
    """Reproduce Figure 6: throughput/latency curves per design.

    For each design, runs every offered load whose rate the design can still
    sustain (points beyond saturation are reported at the saturated rate,
    matching how the paper's open-loop plot flattens), plus a closed-loop
    saturation point that pins the maximum throughput.
    """
    results: Dict[str, List[MicrobenchResult]] = {}
    for design in designs:
        points = []
        # The saturation point needs several ring laps so the cold-start
        # transient (empty polls while sender and receiver run in lockstep)
        # is outside the measured window.
        bench = ChannelMicrobench(design, config=config, slots=slots)
        sat_messages = max(n_messages, 4 * bench.slots)
        sat = bench.run(sat_messages)
        for load in offered_mops:
            bench = ChannelMicrobench(design, config=config, slots=slots)
            points.append(bench.run(n_messages, interval_ns=1e3 / load))
        points.append(sat)
        results[design] = points
    return results
