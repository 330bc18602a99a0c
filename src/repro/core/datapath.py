"""The common Oasis datapath over shared CXL memory (§3.2).

Two pieces live here:

* :class:`SharedRegions` -- carves the pod's CXL pool into channel rings,
  per-host TX regions (subdivided into per-instance TX buffer areas) and
  per-NIC RX buffer areas;
* :class:`DoorbellChannel` / :class:`LocalChannel` -- the discrete-event
  adapters drivers use to signal each other.  A :class:`DoorbellChannel`
  wraps the functional non-coherent ring protocol (sender on one host's
  cache, an ④-design receiver on another's) and models the end-to-end
  signalling latency -- CLWB visibility plus busy-poll discovery -- as a
  configurable hop.  A :class:`LocalChannel` is the baseline's local-DDR IPC
  path (Junction's iokernel rings), with no CXL involvement.

The functional ring still moves real bytes through the shared pool, so the
CXL traffic counters behind Table 3 and all staleness invariants remain live
in full-system experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple

from ..config import OasisConfig
from ..channel.designs import InvalidatePrefetchedReceiver
from ..channel.protocol import ChannelSender
from ..channel.ring import RingLayout
from ..errors import ChannelFullError
from ..mem.cxl import CXLMemoryPool
from ..mem.layout import Region, RegionAllocator
from ..obs.trace import TracerBinding
from ..sim.core import Simulator, USEC

__all__ = ["SharedRegions", "DoorbellChannel", "LocalChannel", "ChannelPair",
           "CHANNEL_HOP_US"]

#: One CXL channel hop (CLWB flight + busy-poll discovery), in us: the
#: fig10 calibration every pod's channels use.
CHANNEL_HOP_US = 2.8

#: A datapath receiver's prefetch window, in lines.  Shallow: driver cores
#: drain several channels in small batches, so a deep window would be
#: invalidated and re-fetched on every drain, wasting CXL bandwidth (the
#: microbenchmark's dedicated single-channel receiver keeps the paper's
#: depth of 16, ``DatapathConfig.prefetch_depth``).
DOORBELL_PREFETCH_DEPTH = 4


class SharedRegions:
    """Region bookkeeping for one CXL pod."""

    def __init__(self, pool: CXLMemoryPool, config: Optional[OasisConfig] = None):
        self.pool = pool
        self.config = config or OasisConfig()
        self._allocator = RegionAllocator(Region(0, pool.size, "pool"))

    def alloc(self, size: int, label: str) -> Region:
        return self._allocator.alloc(size, label)

    def free(self, region: Region) -> None:
        self._allocator.free(region)

    def alloc_ring(self, message_size: int, label: str,
                   slots: Optional[int] = None) -> RingLayout:
        slots = slots or self.config.datapath.channel_slots
        region = self.alloc(RingLayout.required_bytes(slots, message_size), label)
        return RingLayout(region, slots, message_size)

    def alloc_tx_region(self, host_name: str) -> Region:
        return self.alloc(self.config.datapath.tx_region_bytes, f"tx-{host_name}")

    def alloc_rx_region(self, nic_name: str) -> Region:
        return self.alloc(self.config.datapath.rx_region_bytes, f"rx-{nic_name}")

    @property
    def free_bytes(self) -> int:
        return self._allocator.free_bytes


class _Undrained:
    """Stands in for the driver of a channel no driver drains: its bit is
    0, so marking it active changes nothing."""

    _active = 0


class DoorbellChannel(TracerBinding):
    """One-way cross-host channel: non-coherent ring + modelled hop latency.

    The *hop* covers what the microbenchmark measures end to end: the
    sender's posted-write flight time plus the time until the busy-polling
    receiver core discovers the message (§5.1 explains why this is larger
    than the bare 0.6 us one-way figure: the driver cores also do other
    work).
    """

    #: queue_view holds visibility timestamps; a future head means drain()
    #: cannot deliver yet (the engine drain loop uses this to skip the call).
    timed = True
    #: the receiving driver and this channel's bit of its active-link mask
    _owner = _Undrained
    _bit = 0

    def __init__(
        self,
        sim: Simulator,
        layout: RingLayout,
        sender_cache,
        receiver_cache,
        name: str,
        hop_us: float = CHANNEL_HOP_US,
    ):
        self.sim = sim
        self.name = name
        self.layout = layout
        self.hop_s = hop_us * USEC
        self.sender = ChannelSender(layout, sender_cache)
        self.receiver = InvalidatePrefetchedReceiver(
            layout, receiver_cache, prefetch_depth=DOORBELL_PREFETCH_DEPTH)
        self._wake: Optional[Callable[[], None]] = None
        # Per-message visibility times: a message can be drained only once
        # its CLWB flight + busy-poll discovery delay has elapsed, so a later
        # message never rides an earlier message's doorbell for free.
        self._visible_at: deque = deque()
        self._fire_scheduled_for: Optional[float] = None
        # Stable aliases the engine drain loop uses to skip a drain() call
        # that would be a guaranteed no-op (nothing in flight, no counter
        # update owed).  Both objects are fixed for the channel's lifetime.
        self.queue_view = self._visible_at
        self.counter_view = self.receiver

    @property
    def pending(self) -> int:
        """Messages sent but not yet drained (ring occupancy for flow depth)."""
        return len(self._visible_at)

    @property
    def unrung(self) -> int:
        """Messages the receiver could drain now with no doorbell ring on
        its way: 0 unless a ring was forgotten (``Driver.stranded``)."""
        if self._fire_scheduled_for is not None:
            return 0
        now = self.sim.now
        return sum(1 for visible_at in self._visible_at if visible_at <= now)

    @property
    def occupancy_cached(self) -> float:
        """Ring occupancy in [0, 1] as the sender's cached view sees it.

        Zero-cost congestion signal for admission control: no counter
        refresh, conservatively biased full (the ring can only be emptier
        than the sender's cache believes).
        """
        return self.sender.occupancy_cached

    # -- receiver side ----------------------------------------------------------

    def bind(self, wake: Callable[[], None]) -> None:
        """Attach the receiver's doorbell: ``wake()`` is called when sent
        messages become visible (a driver passes its ``kick``)."""
        self._wake = wake

    def bind_mask(self, owner, bit: int) -> None:
        """Set ``bit`` of ``owner``'s active-link mask whenever a message is
        queued, before any ring (``Driver.connect``, DESIGN §3j)."""
        self._owner = owner
        self._bit = bit

    def drain(self, limit: int = 256) -> Tuple[List[bytes], float]:
        """Receive the messages already visible; returns (payloads, cpu_ns)."""
        visible = self._visible_at
        if not visible:
            # Idle drain: nothing in flight, just flush a pending counter
            # update so the sender is not starved of slots.
            receiver = self.receiver
            if receiver._consumed_since_update == 0:
                return [], 0.0
            return [], 0.0 + receiver._publish_counter()
        now = self.sim.now + 1e-12
        if visible[-1] <= now:
            # Common case: every in-flight message is already visible, so
            # the per-entry scan reduces to a length clamp.
            ready = len(visible)
            if ready > limit:
                ready = limit
        else:
            ready = 0
            for visible_at in visible:
                if visible_at > now or ready >= limit:
                    break
                ready += 1
        payloads, cost = self.receiver.poll_batch(ready) if ready else ([], 0.0)
        if payloads:
            if len(payloads) == len(visible):
                visible.clear()
            else:
                for _ in payloads:
                    visible.popleft()
            if self._trace is not None:
                self._trace.instant("chan.recv", category="channel",
                                    track=self.name, count=len(payloads))
        else:
            cost += self.receiver.force_publish_counter()
        if visible:
            head = visible[0]
            if head <= now:
                # Already-visible messages left behind (the design-④ poll
                # tripped on a stale prefetched line, or the limit): ring
                # the receiver directly -- its pass is on the stack, so this
                # latches the retry.
                if self._wake is not None:
                    self._wake()
            else:
                fired_for = self._fire_scheduled_for
                if fired_for is None or fired_for > head + 1e-12:
                    self._schedule_fire(head)
        return payloads, cost

    # -- sender side ---------------------------------------------------------------

    def send_many(self, payloads: List[bytes]) -> float:
        """Send a batch with one flush + one doorbell (driver batching).

        A full ring raises :class:`ChannelFullError` carrying how many
        messages went out; those are flushed and made visible first.
        """
        sender = self.sender
        sent = 0
        cost = 0.0
        try:
            for payload in payloads:
                ok, send_cost = sender.try_send(payload)
                cost += send_cost
                if not ok:
                    raise ChannelFullError(self.name, sent=sent)
                sent += 1
        finally:
            cost += sender.flush()
            self._mark_visible(sent)
        return cost

    def _mark_visible(self, count: int) -> None:
        if count <= 0:
            return
        if self._trace is not None:
            self._trace.instant("chan.send", category="channel",
                                track=self.name, count=count)
        self._owner._active |= self._bit
        visible_at = self.sim.now + self.hop_s
        if count == 1:
            self._visible_at.append(visible_at)
        else:
            self._visible_at.extend([visible_at] * count)
        # _schedule_fire's no-op guard, inlined: back-to-back sends in one
        # drain pass all land on the already-scheduled doorbell.
        fired_for = self._fire_scheduled_for
        if fired_for is None or fired_for > visible_at + 1e-12:
            self._schedule_fire(visible_at)

    def _schedule_fire(self, when: float) -> None:
        if self._wake is None:
            return
        if self._fire_scheduled_for is not None and \
                self._fire_scheduled_for <= when + 1e-12:
            return
        self._fire_scheduled_for = when
        self.sim.call_after(when - self.sim.now, self._fire)

    def _fire(self) -> None:
        self._fire_scheduled_for = None
        if self._wake is not None:
            self._wake()


class _NoCounter:
    """Stands in for a receiver on channels with no consumed counter."""

    _consumed_since_update = 0


class LocalChannel(TracerBinding):
    """Baseline signalling path: a lock-free ring in local DDR (no CXL)."""

    # Drain-skip views (see DoorbellChannel): a LocalChannel owes nothing
    # when its queue is empty.
    counter_view = _NoCounter
    #: queue_view holds payloads (no timestamps); any entry is drainable now.
    timed = False
    #: an unbounded local ring never reads as congested
    occupancy_cached = 0.0
    _owner = _Undrained      # see DoorbellChannel
    _bit = 0

    def __init__(self, sim: Simulator, name: str, hop_us: float = 0.25):
        self.sim = sim
        self.name = name
        self.hop_s = hop_us * USEC
        self._queue: deque = deque()
        self.queue_view = self._queue
        self._wake: Optional[Callable[[], None]] = None
        self._notify_pending = False
        self.sent = 0

    @property
    def pending(self) -> int:
        """Messages queued but not yet drained (flow depth annotation)."""
        return len(self._queue)

    @property
    def unrung(self) -> int:
        """Entries queued with no doorbell ring on its way (see
        :attr:`DoorbellChannel.unrung`)."""
        return 0 if self._notify_pending else len(self._queue)

    def bind(self, wake: Callable[[], None]) -> None:
        self._wake = wake

    bind_mask = DoorbellChannel.bind_mask

    def drain(self, limit: int = 256) -> Tuple[List[bytes], float]:
        out = []
        while self._queue and len(out) < limit:
            out.append(self._queue.popleft())
        if self._queue and self._wake is not None:
            self._wake()    # the limit left entries behind: ring for them
        return out, 25.0 * len(out)  # ~25 ns per local ring entry

    def send_many(self, payloads: List[bytes]) -> float:
        self._queue.extend(payloads)
        self.sent += len(payloads)
        if payloads:
            self._owner._active |= self._bit
            if self._trace is not None:
                self._trace.instant("chan.send", category="channel",
                                    track=self.name, count=len(payloads))
            self._notify()
        return 25.0 * len(payloads)

    def _notify(self) -> None:
        if self._wake is None or self._notify_pending:
            return
        self._notify_pending = True
        self.sim.call_after(self.hop_s, self._fire)

    def _fire(self) -> None:
        self._notify_pending = False
        if self._wake is not None:
            self._wake()


class ChannelPair:
    """A bidirectional link between two drivers (one channel each way)."""

    def __init__(self, a_to_b, b_to_a, name: str = "pair"):
        self.a_to_b = a_to_b
        self.b_to_a = b_to_a
        self.name = name

    @classmethod
    def over_cxl(
        cls,
        sim: Simulator,
        regions: SharedRegions,
        cache_a,
        cache_b,
        name: str,
        message_size: int = 16,
        hop_us: float = CHANNEL_HOP_US,
        slots: Optional[int] = None,
    ) -> "ChannelPair":
        """Allocate both rings in shared memory and wire the caches."""
        layout_ab = regions.alloc_ring(message_size, f"{name}-ab", slots)
        layout_ba = regions.alloc_ring(message_size, f"{name}-ba", slots)
        return cls(
            DoorbellChannel(sim, layout_ab, cache_a, cache_b, f"{name}-ab", hop_us),
            DoorbellChannel(sim, layout_ba, cache_b, cache_a, f"{name}-ba", hop_us),
            name,
        )

    @classmethod
    def local(cls, sim: Simulator, name: str, hop_us: float = 0.25) -> "ChannelPair":
        return cls(
            LocalChannel(sim, f"{name}-ab", hop_us),
            LocalChannel(sim, f"{name}-ba", hop_us),
            name,
        )
