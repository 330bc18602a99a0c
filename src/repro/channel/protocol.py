"""Sender/receiver protocol for message channels over non-coherent CXL.

Each channel has exactly one sender and one receiver (§3.2.2).  The sender
writes fixed-size messages into the ring through its own (non-coherent) cache
and makes them visible with CLWB when a cache line fills or on an explicit
:meth:`ChannelSender.flush`.  Backpressure uses the 8 B consumed counter:

* the receiver bumps the counter only after consuming a large batch
  (half the ring, ``slots // 2`` messages, §4) and CLWBs it;
* the sender caches the counter value and re-reads it -- paying
  CLFLUSHOPT + MFENCE + a CXL miss -- only when the cached value says the
  ring is full.

Every method returns its CPU cost in nanoseconds.  Receiver poll behaviour is
design-specific and lives in :mod:`repro.channel.designs`; the common slot
load / epoch check / counter machinery is here.

Both endpoints sit on the driver cores' hottest loop, so the ring geometry
(slot base, power-of-two mask, wrap shift) is captured once at construction
and per-poll dispatch never re-discovers it.  The protocol is timing-free:
when a prefetched line arrives is the cache's business (the Figure 6
harness gives the receiver a cache that models it).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import CACHE_LINE
from ..errors import ChannelError
from ..mem.cache import HostCache
from .ring import RingLayout

__all__ = ["ChannelSender", "ChannelReceiver", "ChannelCounters"]

_COUNTER = struct.Struct("<Q")
_LINE_MASK = CACHE_LINE - 1


@dataclass
class ChannelCounters:
    """Operation counts, for tests and bandwidth accounting."""

    sent: int = 0
    received: int = 0
    empty_polls: int = 0
    counter_refreshes: int = 0
    counter_updates: int = 0
    full_stalls: int = 0


class ChannelSender:
    """The producing endpoint of a one-way channel."""

    __slots__ = ("layout", "cache", "category", "next_seq", "_cached_consumed",
                 "_dirty_line_addr", "counters", "_slots", "_slot_base",
                 "_slot_mask", "_msize", "_wrap_shift")

    def __init__(self, layout: RingLayout, cache: HostCache, category: str = "message"):
        self.layout = layout
        self.cache = cache
        self.category = category
        self.next_seq = 0
        self._cached_consumed = 0
        self._dirty_line_addr: Optional[int] = None
        self.counters = ChannelCounters()
        # Ring geometry, captured once (slots is a power of two).
        self._slots = layout.slots
        self._slot_base = layout.region.base
        self._slot_mask = layout.slots - 1
        self._msize = layout.message_size
        self._wrap_shift = layout.slots.bit_length() - 1

    # -- capacity ------------------------------------------------------------

    @property
    def occupancy_cached(self) -> float:
        """Ring occupancy in [0, 1] by the locally cached consumed counter.

        Zero-cost (no counter refresh): a conservative overestimate, which
        is the right bias for admission control reading it as a congestion
        signal -- the ring can only be emptier than the cache believes.
        """
        return (self.next_seq - self._cached_consumed) / self._slots

    def refresh_consumed(self) -> float:
        """Re-read the consumed counter from CXL (invalidate + fence + load)."""
        counter_addr = self.layout.counter_addr
        cost = self.cache.clflush(counter_addr, True, "counter")
        cost += self.cache.mfence()
        raw, load_cost = self.cache.load(counter_addr, 8, "counter")
        cost += load_cost
        value = _COUNTER.unpack(raw)[0]
        if value > self.next_seq:
            raise ChannelError(
                f"consumed counter {value} ahead of send sequence {self.next_seq}"
            )
        if value > self._cached_consumed:
            self._cached_consumed = value
        self.counters.counter_refreshes += 1
        return cost

    # -- sending ---------------------------------------------------------------

    def try_send(self, payload: bytes) -> Tuple[bool, float]:
        """Write one message if a slot is free.  Returns ``(sent, cost_ns)``.

        On False the caller should retry later (the ring is full even after a
        counter refresh).
        """
        msize = self._msize
        if len(payload) != msize:
            raise ChannelError(
                f"payload must be exactly {msize} B, got {len(payload)}"
            )
        seq = self.next_seq
        cost = 0.0
        if self._slots - (seq - self._cached_consumed) <= 0:
            cost += self.refresh_consumed()
            if self._slots - (seq - self._cached_consumed) <= 0:
                self.counters.full_stalls += 1
                return False, cost

        b0 = payload[0]
        if b0 & 0x80:
            raise ChannelError("payload first byte must leave the epoch bit clear")
        # Fresh messages on lap 0 carry epoch 1; the bit toggles per wrap.
        if (seq >> self._wrap_shift) & 1:
            slot = payload
        else:
            slot = bytearray(payload)
            slot[0] = b0 | 0x80
        addr = self._slot_base + (seq & self._slot_mask) * msize
        cache = self.cache
        cost += cache.store(addr, slot, self.category)
        self.next_seq = seq + 1
        self.counters.sent += 1

        line_addr = addr & ~_LINE_MASK
        if (addr + msize) & _LINE_MASK == 0:
            cost += cache.clwb(line_addr, self.category)
            self._dirty_line_addr = None
        else:
            self._dirty_line_addr = line_addr
        return True, cost

    def flush(self) -> float:
        """CLWB a partially filled line so receivers can see it (low rate)."""
        if self._dirty_line_addr is None:
            return 0.0
        cost = self.cache.clwb(self._dirty_line_addr, self.category)
        self._dirty_line_addr = None
        return cost


class ChannelReceiver:
    """Base class for the consuming endpoint; each design defines
    ``poll() -> (payload or None, cost_ns)``, one poll iteration."""

    #: human-readable design name (Figure 6 legend)
    design = "abstract"

    __slots__ = ("layout", "cache", "counter_batch", "next_seq",
                 "_consumed_since_update", "_prefetch_horizon", "counters",
                 "_slot_base", "_slot_mask", "_msize", "_wrap_shift",
                 "_counter_addr", "_timings", "_ring_bytes")

    def __init__(
        self,
        layout: RingLayout,
        cache: HostCache,
        counter_batch: Optional[int] = None,
    ):
        self.layout = layout
        self.cache = cache
        # §4: update the counter only after consuming half the ring by default.
        self.counter_batch = counter_batch if counter_batch is not None else max(
            1, layout.slots // 2
        )
        self.next_seq = 0
        self._consumed_since_update = 0
        # Highest line-sequence number (seq // messages_per_line, monotonic
        # across ring wraps) for which a prefetch has been issued.  Real
        # receivers track their position the same way instead of re-issuing
        # PREFETCHT0 for the whole window on every poll.
        self._prefetch_horizon = -1
        self.counters = ChannelCounters()
        # Ring geometry, captured once (slots is a power of two).
        self._slot_base = layout.region.base
        self._slot_mask = layout.slots - 1
        self._msize = layout.message_size
        self._wrap_shift = layout.slots.bit_length() - 1
        self._ring_bytes = layout.slots * layout.message_size
        self._counter_addr = layout.counter_addr
        self._timings = cache.timings

    # -- common machinery -------------------------------------------------------

    def _check_slot(self, seq: int) -> Tuple[Optional[bytes], float]:
        """Load the slot for ``seq``; return (payload, cost) or (None, cost)."""
        msize = self._msize
        addr = self._slot_base + (seq & self._slot_mask) * msize
        raw, cost = self.cache.load(addr, msize, "message")
        b0 = raw[0]
        if (b0 >> 7) != 1 - ((seq >> self._wrap_shift) & 1):
            self.counters.empty_polls += 1
            cost += self._timings.empty_poll_ns
            return None, cost
        return bytes((b0 & 0x7F,)) + raw[1:], cost

    def _consume(self, seq: int) -> float:
        """Bookkeeping after a message is accepted."""
        self.next_seq = seq + 1
        self.counters.received += 1
        self._consumed_since_update += 1
        cost = self._timings.message_cpu_ns
        if self._consumed_since_update >= self.counter_batch:
            cost += self._publish_counter()
        return cost

    def _publish_counter(self) -> float:
        """Store + CLWB the consumed counter so the sender can reuse slots."""
        cache = self.cache
        cost = cache.store(self._counter_addr, _COUNTER.pack(self.next_seq), "counter")
        cost += cache.clwb(self._counter_addr, "counter")
        self._consumed_since_update = 0
        self.counters.counter_updates += 1
        return cost

    def force_publish_counter(self) -> float:
        """Publish unconditionally (used when a driver goes idle)."""
        if self._consumed_since_update == 0:
            return 0.0
        return self._publish_counter()

    def _invalidate_line_of(self, seq: int, fenced: bool) -> float:
        line_addr = (self._slot_base + (seq & self._slot_mask) * self._msize) & ~_LINE_MASK
        return self.cache.clflush(line_addr, fenced, "message")

    def _prefetch_ahead(self, depth_lines: int) -> float:
        """Issue PREFETCHT0 up to ``depth_lines`` ring lines ahead.

        Lines already covered by a previous issue (the *prefetch horizon*)
        are skipped; a prefetch of a line still cached (possibly stale) is a
        hardware no-op, which is the pathology Figure 6's design ② hits.
        """
        layout = self.layout
        depth_lines = min(depth_lines, layout.lines - 1)
        cur_lseq = self.next_seq // layout.messages_per_line
        start = self._prefetch_horizon + 1
        if start < cur_lseq + 1:
            start = cur_lseq + 1
        end = cur_lseq + depth_lines
        cost = 0.0
        ring_bytes = self._ring_bytes
        while start <= end:
            # The longest run of ring lines from ``start`` before the wrap.
            offset = (start << 6) & (ring_bytes - 1)
            lines = min(end - start + 1, (ring_bytes - offset) >> 6)
            cost += self.cache.prefetch_range(
                self._slot_base + offset, lines << 6, "message")
            start += lines
        if self._prefetch_horizon < end:
            self._prefetch_horizon = end
        return cost

    def _reset_prefetch_horizon(self) -> None:
        """Allow re-prefetching after the ahead window was invalidated (④)."""
        self._prefetch_horizon = self.next_seq // self.layout.messages_per_line

    # -- the design-specific part --------------------------------------------------

    def poll_batch(self, limit: int) -> Tuple[list, float]:
        """Poll until empty or ``limit`` messages; used by DES driver loops."""
        out = []
        total = 0.0
        poll = self.poll
        append = out.append
        n = 0
        while n < limit:
            payload, cost = poll()
            total += cost
            if payload is None:
                break
            append(payload)
            n += 1
        return out, total
