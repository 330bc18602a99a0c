"""Event-kernel microbenchmark for one-way message passing (Figure 6).

Mirrors the paper's two-socket setup (§3.2.2): one sender core and one
receiver core, each behind its own non-coherent cache, exchanging fixed-size
messages through a ring in shared CXL memory.  Sender and receiver are
callbacks on the harness's own :class:`~repro.sim.core.Simulator`, whose
clock counts nanoseconds: each step posts the actor's next one after its CPU
cost.  Two timing refinements sit on top, both owned by the harness:

* **posted-write flight time** -- a CLWB'd line lands in the pool
  ``cxl_write_ns`` after the writeback executes: the cache's
  ``writeback_hook`` posts the landing as a kernel event;
* **memory-level parallelism** -- the receiver's :class:`_TimedCache`
  records when each prefetched line arrives (``cxl_load_ns`` after issue);
  touching a line still in flight stalls the receiver for the remaining
  time, while demand misses serialise.  This is what separates design ②
  (serialised invalidate+miss per line, ~8.6 MOp/s) from designs ③/④
  (pipelined prefetches, ~87 MOp/s).

The receivers are timing-free: the pod runs them over a plain ``HostCache``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import inf, nextafter
from typing import Dict, List, Optional, Sequence

from ..config import OasisConfig
from ..mem.cache import HostCache
from ..mem.cxl import CXLMemoryPool, mask_bits
from ..mem.layout import Region
from ..sim.core import Simulator
from .designs import make_receiver
from .protocol import ChannelSender
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


class _TimedCache(HostCache):
    """A receiver's cache whose prefetches take ``cxl_load_ns`` to arrive.

    ``ready`` maps a prefetched line to its arrival time on ``sim``'s clock.
    A load that hits such a line stalls until it arrives; a demand fill or
    an invalidation of the line cancels the entry.
    """

    __slots__ = ("sim", "ready")

    def __init__(self, pool: CXLMemoryPool, host: str, sim: Simulator):
        super().__init__(pool, host)
        self.sim = sim
        self.ready: Dict[int, float] = {}

    def load(self, addr, size, category="payload"):
        ready_at = self.ready.pop(addr >> 6, None)
        if ready_at is None:
            return HostCache.load(self, addr, size, category)
        hits = self.stats.hits
        data, cost = HostCache.load(self, addr, size, category)
        if self.stats.hits != hits and ready_at > self.sim.now:
            cost += ready_at - self.sim.now
        return data, cost

    def _masks(self, addr, size):
        """``(page index, present mask)`` of each page the range spans."""
        if size <= 0:
            return []
        pages = self._pages
        masks = []
        for pidx in range(addr >> 12, ((addr + size - 1) >> 12) + 1):
            page = pages.get(pidx)
            masks.append((pidx, 0 if page is None else page.present))
        return masks

    def _flipped(self, masks):
        """The line indices whose presence changed since ``_masks``: a range
        op changes only lines of its range, so these are the lines a
        prefetch fetched or a flush dropped."""
        pages = self._pages
        return [pidx << 6 | bit for pidx, before in masks
                for bit in mask_bits(before ^ getattr(pages.get(pidx),
                                                      "present", 0))]

    def prefetch_range(self, addr, size, category="message"):
        masks = self._masks(addr, size)
        cost = HostCache.prefetch_range(self, addr, size, category)
        arrival = self.sim.now + self.timings.cxl_load_ns
        for index in self._flipped(masks):
            self.ready[index] = arrival
        return cost

    def clflush(self, addr, fenced=False, category="payload"):
        self.ready.pop(addr >> 6, None)
        return HostCache.clflush(self, addr, fenced, category)

    def clflush_cached(self, addr, size, category="payload"):
        masks = self._masks(addr, size)
        cost = HostCache.clflush_cached(self, addr, size, category)
        for index in self._flipped(masks):
            self.ready.pop(index, None)
        return cost


class ChannelMicrobench:
    """Drive one channel design at one offered load on an event kernel."""

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
        self.sim = Simulator()          # its clock counts nanoseconds

        ring_bytes = RingLayout.required_bytes(self.slots, message_size)
        self.pool = CXLMemoryPool(self.config.cxl, size=ring_bytes)
        self.layout = RingLayout(Region(0, ring_bytes, "microbench-ring"),
                                 self.slots, message_size)
        self.sender_cache = HostCache(self.pool, "sender")
        self.receiver_cache = _TimedCache(self.pool, "receiver", self.sim)
        self.sender = ChannelSender(self.layout, self.sender_cache)
        self.receiver = make_receiver(design, self.layout, self.receiver_cache,
                                      counter_batch=counter_batch,
                                      prefetch_depth=self.prefetch_depth)
        sim, write_line = self.sim, self.pool.write_line
        flight_ns = self.timings.cxl_write_ns

        def post_landing(line_index: int, data: bytes, _category: str) -> None:
            """A posted write lands in the pool ``flight_ns`` after it left,
            visible to an access at that instant: posted one ulp early, it
            sorts ahead of every step there.  The pool write reads no clock."""
            now = sim.now
            land = nextafter(now + flight_ns, -inf)
            sim.call_after(land - now, write_line, line_index, data)

        self.sender_cache.writeback_hook = post_landing
        self.receiver_cache.writeback_hook = post_landing

    def run(
        self,
        n_messages: int = 30_000,
        interval_ns: Optional[float] = None,
        warmup_fraction: float = 0.2,
    ) -> MicrobenchResult:
        """Send ``n_messages``; ``interval_ns=None`` means closed-loop saturation."""
        import numpy as np
        sim = self.sim
        call_after = sim.call_after
        sender, receiver = self.sender, self.receiver
        try_send = sender.try_send
        poll = receiver.poll
        size = self.message_size
        retry_ns, flush_lag_ns = self.RETRY_NS, self.FLUSH_LAG_NS
        start = sim.now
        offered = float("inf") if interval_ns is None else 1e3 / interval_ns  # MOp/s
        interval = interval_ns or 0.0           # 0: every message due at once
        send_times: Dict[int, float] = {}
        recv_times: List[float] = []
        latencies: List[float] = []
        next_msg = 0
        received = 0

        # The sender's next attempt is posted for when it is free (``clock``)
        # or when the next message is due, whichever is later.
        def send() -> None:
            nonlocal next_msg
            now = sim.now
            payload = _PAYLOAD16.pack(1, size, next_msg & 0xFFFFFFFF, next_msg)
            ok, cost = try_send(payload.ljust(size, b"\x00"))
            if not ok:      # retry at (now + cost) + retry_ns, as a delay
                call_after(now + cost + retry_ns - now, send)
                return
            send_times[sender.next_seq - 1] = now
            clock = now + cost
            next_msg += 1
            due = start + next_msg * interval
            if next_msg >= n_messages or due > clock + flush_lag_ns:
                call_after(cost, flush)
            else:
                call_after((clock if clock > due else due) - now, send)

        def flush() -> None:
            now = sim.now
            clock = now + sender.flush()
            if next_msg < n_messages:
                due = start + next_msg * interval
                call_after((clock if clock > due else due) - now, send)

        def receive() -> None:
            nonlocal received
            payload, cost = poll()
            step = cost if cost > 1.0 else 1.0
            if payload is not None:
                clock = sim.now + step
                latencies.append(clock - send_times.pop(receiver.next_seq - 1))
                recv_times.append(clock)
                received += 1
                if received == n_messages:
                    return
            call_after(step, receive)

        if n_messages > 0:
            call_after(0.0, send)
            call_after(0.0, receive)
        sim.run()   # until the queue drains: the last delivery, then landings
        # The actors post themselves; unbinding them breaks the reference
        # cycles that would keep this run's lists alive until a full GC.
        send = receive = None

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
