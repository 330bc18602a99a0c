"""The four receiver designs benchmarked in Figure 6.

All four share the functional ring protocol from
:mod:`repro.channel.protocol`; they differ only in *when* they invalidate
cache lines and whether they prefetch:

① :class:`BypassCacheReceiver` -- prior-work baseline: CLFLUSHOPT + MFENCE
   before **every** poll, so every poll is a serialised CXL miss
   (~3 MOp/s in the paper).

② :class:`NaivePrefetchReceiver` -- software-prefetches subsequent lines
   after every successful poll and invalidates the current line only after an
   empty poll.  Prefetches of lines already (stale) in the cache are ignored
   by the hardware, so after the first ring wrap every line fetch degenerates
   into a serialised invalidate + demand miss (~8.6 MOp/s).

③ :class:`InvalidateConsumedReceiver` -- additionally invalidates a line as
   soon as all its messages are consumed, unblocking future prefetches
   (~87 MOp/s), but prefetched-then-stale lines still add an extra
   invalidate + miss round-trip per message at moderate load (latency bump
   to ~1.2 us).

④ :class:`InvalidatePrefetchedReceiver` -- the Oasis design: after an empty
   poll it also invalidates the prefetched-ahead window, so newly arriving
   messages are found with a single clean miss (~0.6 us at the 14 MOp/s
   target).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .protocol import ChannelReceiver

__all__ = [
    "BypassCacheReceiver",
    "NaivePrefetchReceiver",
    "InvalidateConsumedReceiver",
    "InvalidatePrefetchedReceiver",
    "RECEIVER_DESIGNS",
    "make_receiver",
]


class BypassCacheReceiver(ChannelReceiver):
    """① Invalidate + fence before each poll (no CPU caching of the ring)."""

    design = "bypass-cache"
    __slots__ = ()

    def poll(self) -> Tuple[Optional[bytes], float]:
        seq = self.next_seq
        cost = self._invalidate_line_of(seq, True)
        cost += self.cache.mfence()
        payload, check_cost = self._check_slot(seq)
        cost += check_cost
        if payload is not None:
            cost += self._consume(seq)
        return payload, cost


class _PrefetchingReceiver(ChannelReceiver):
    """Common logic for designs ② / ③ / ④."""

    invalidate_consumed = False
    invalidate_prefetched = False
    __slots__ = ("prefetch_depth", "_streak", "_prefetch_threshold")

    def __init__(self, layout, cache, counter_batch=None, prefetch_depth=16):
        super().__init__(layout, cache, counter_batch=counter_batch)
        self.prefetch_depth = prefetch_depth
        # Prefetching is only worth its CXL bandwidth when the channel is
        # actually streaming (§3.2.2 / Table 3: "prefetching is triggered
        # only when the channel is not idle").  We arm it once a consumption
        # streak shows messages arriving faster than we drain them.
        self._streak = 0
        self._prefetch_threshold = max(2, layout.messages_per_line)

    def poll(self) -> Tuple[Optional[bytes], float]:
        # One flat pass over the slot check, consume bookkeeping and line
        # maintenance.
        seq = self.next_seq
        msize = self._msize
        addr = self._slot_base + (seq & self._slot_mask) * msize
        cache = self.cache
        raw, cost = cache.load(addr, msize, "message")
        b0 = raw[0]
        if (b0 >> 7) != 1 - ((seq >> self._wrap_shift) & 1):
            # Empty poll: the cached copy of the current line may simply be
            # stale.  Drop it (fenced, so the re-poll really goes to CXL).
            self.counters.empty_polls += 1
            timings = self._timings
            cost += timings.empty_poll_ns
            self._streak = 0
            cost += cache.clflush(addr & -64, True, "message")
            cache.stats.fences += 1
            cost += timings.mfence_ns
            if self.invalidate_prefetched:
                cost += self._invalidate_prefetch_window()
            return None, cost
        payload = bytes((b0 & 0x7F,)) + raw[1:]
        self.next_seq = seq + 1
        counters = self.counters
        counters.received += 1
        consumed = self._consumed_since_update + 1
        self._consumed_since_update = consumed
        consume_cost = self._timings.message_cpu_ns
        if consumed >= self.counter_batch:
            consume_cost += self._publish_counter()
        cost += consume_cost
        streak = self._streak + 1
        self._streak = streak
        if self.invalidate_consumed and ((addr + msize) & 63) == 0:
            # Line fully consumed: drop it (unfenced, off the critical
            # path) so the next lap's prefetch can bring in fresh data.
            cost += cache.clflush(addr & -64, False, "message")
        if streak >= self._prefetch_threshold:
            cost += self._prefetch_ahead(self.prefetch_depth)
        return payload, cost

    def _invalidate_prefetch_window(self) -> float:
        """④ only: drop the prefetched-ahead lines that may now be stale."""
        cost = 0.0
        layout = self.layout
        depth = min(self.prefetch_depth, layout.lines - 1)
        lseq = self.next_seq // layout.messages_per_line + 1
        ring_bytes = self._ring_bytes
        while depth:
            # The longest run of ring lines from ``lseq`` before the wrap.
            offset = (lseq << 6) & (ring_bytes - 1)
            lines = min(depth, (ring_bytes - offset) >> 6)
            # Only the lines actually cached cost a CLFLUSHOPT.
            cost += self.cache.clflush_cached(
                self._slot_base + offset, lines << 6, "message")
            lseq += lines
            depth -= lines
        self._reset_prefetch_horizon()
        return cost


class NaivePrefetchReceiver(_PrefetchingReceiver):
    """② Prefetch, but never invalidate consumed lines."""

    design = "naive-prefetch"
    __slots__ = ()


class InvalidateConsumedReceiver(_PrefetchingReceiver):
    """③ ② plus invalidate-once-consumed."""

    design = "invalidate-consumed"
    invalidate_consumed = True
    __slots__ = ()


class InvalidatePrefetchedReceiver(_PrefetchingReceiver):
    """④ ③ plus invalidate the prefetched window after empty polls (Oasis)."""

    design = "invalidate-prefetched"
    invalidate_consumed = True
    invalidate_prefetched = True
    __slots__ = ()


RECEIVER_DESIGNS = {
    cls.design: cls
    for cls in (
        BypassCacheReceiver,
        NaivePrefetchReceiver,
        InvalidateConsumedReceiver,
        InvalidatePrefetchedReceiver,
    )
}


def make_receiver(design: str, layout, cache, **kwargs) -> ChannelReceiver:
    """Construct a receiver by Figure 6 design name."""
    try:
        cls = RECEIVER_DESIGNS[design]
    except KeyError:
        raise ValueError(
            f"unknown design {design!r}; choose from {sorted(RECEIVER_DESIGNS)}"
        ) from None
    if cls is BypassCacheReceiver:
        kwargs.pop("prefetch_depth", None)
    return cls(layout, cache, **kwargs)
