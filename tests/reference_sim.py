"""The tiered event kernel, kept as a test oracle.

Before ``repro.sim.core`` moved to one ``(time, seq)`` heap, the kernel
split its queue three ways -- a FIFO deque for zero-delay posts, a
near-future heap for sub-4 us delays and a far heap for the rest -- and
recycled the Event objects behind ``call_after`` through a free list.
This file is that kernel (``Event``, ``Simulator``, ``Timer``,
``PeriodicTask``), verbatim apart from the imports;
``tests/test_sim_oracle.py`` drives it and ``repro.sim.core`` with the
same posts.  It is the only place the tiered queue lives.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.core import USEC, SimulationError

__all__ = ["Event", "PeriodicTask", "Simulator", "Timer"]

# Delays below this go to the near-future heap; at or above it, the far heap.
_NEAR_WINDOW = 4 * USEC

# Upper bound on the fire-and-forget Event free list.
_POOL_LIMIT = 256


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire; cancellation is O(1) (the queue
    entry is tombstoned, not removed) and immediately drops the event from
    :attr:`Simulator.pending`.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim", "_live", "_pooled",
                 "_seqno")

    def __init__(self, sim: "Simulator", time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._live = True      # queued, neither fired nor cancelled
        self._pooled = False   # recycled onto sim._pool after firing
        self._seqno = 0        # queue order; now-queue entries carry it inline

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call multiple times."""
        self.cancelled = True
        if self._live:
            self._live = False
            self._sim._tombstones += 1


class Simulator:
    """The event loop: a tiered, time-ordered queue of :class:`Event` objects.

    See the module docstring for the scheduler layout.  The dispatch loop
    always fires the global ``(time, seq)`` minimum across the now queue and
    the two heaps, so callers observe a single totally-ordered event queue.
    """

    __slots__ = ("_now_q", "_near", "_far", "_seq", "_pool", "now",
                 "_processed", "_tombstones")

    def __init__(self):
        self._now_q: deque[Event] = deque()
        self._near: list[tuple[float, int, Event]] = []
        self._far: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._pool: list[Event] = []
        self.now: float = 0.0
        self._processed = 0    # callbacks that have returned
        self._tombstones = 0   # cancelled entries the loop has yet to discard

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self._push(Event(self, self.now + delay, fn, args), delay)

    def _push(self, event: Event, delay: float) -> Event:
        """Queue ``event``, whose time is set and is ``delay`` from now."""
        seq = next(self._seq)
        if delay <= 0.0:
            event._seqno = seq
            self._now_q.append(event)
        elif delay < _NEAR_WINDOW:
            heapq.heappush(self._near, (event.time, seq, event))
        else:
            heapq.heappush(self._far, (event.time, seq, event))
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no Event is returned.

        The backing Event is drawn from a free list and recycled after it
        fires, so hot call sites that never cancel pay no allocation.  Use
        :meth:`schedule` whenever the caller needs to cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = t = self.now + delay
            event.fn = fn
            event.args = args
            event._live = True
        else:
            event = Event(self, self.now + delay, fn, args)
            event._pooled = True
            t = event.time
        seq = next(self._seq)
        if delay == 0.0:
            event._seqno = seq
            self._now_q.append(event)
        elif delay < _NEAR_WINDOW:
            heapq.heappush(self._near, (t, seq, event))
        else:
            heapq.heappush(self._far, (t, seq, event))

    # -- running ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events: what is
        queued less the tombstones among it.  Exact at any read, also from
        inside a callback (whose own event is already off the queue)."""
        return (len(self._now_q) + len(self._near) + len(self._far)
                - self._tombstones)

    @property
    def tombstones(self) -> int:
        """Cancelled entries still queued (each leaves when its time comes)."""
        return self._tombstones

    @property
    def processed_events(self) -> int:
        """Callbacks that have fired and returned; exact at any read (a
        callback reading it mid-run does not yet count itself)."""
        return self._processed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  This is the only loop that pops events.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        behave like wall-clock segments.
        """
        nq = self._now_q
        near = self._near
        far = self._far
        pool = self._pool
        heappop = heapq.heappop
        popleft = nq.popleft
        pool_append = pool.append
        # Bound sentinels: one float/int compare per event instead of an
        # ``is not None`` test plus a compare.
        until_v = math.inf if until is None else until
        stop_at = (1 << 62) if max_events is None else self._processed + max_events
        # ``self._processed`` is counted on the object, not in a local: the
        # telemetry scraper reads it from inside a run (``bind_sim``).
        # ``self.now`` is mirrored in a local (callbacks only ever read it,
        # and only this loop writes it); both are updated together.
        now = self.now
        while True:
            # Select the (time, seq) minimum across the three queues.  A
            # heap entry can precede the now-queue head only when it is
            # due at exactly the current time with an earlier sequence
            # number.
            if near:
                head = near[0]
                src = near
                if far:
                    f = far[0]
                    if f < head:
                        head = f
                        src = far
            elif far:
                head = far[0]
                src = far
            else:
                head = None
            if nq and (head is None or head[0] > now or head[1] > nq[0]._seqno):
                # fast path: zero-delay event due at the current time
                if now > until_v:
                    break
                if self._processed >= stop_at:
                    return
                event = popleft()
                if event.cancelled:
                    self._tombstones -= 1
                    continue
            else:
                if head is None:
                    break
                time = head[0]
                if time > until_v:
                    break
                if self._processed >= stop_at:
                    return
                heappop(src)
                event = head[2]
                if event.cancelled:
                    self._tombstones -= 1
                    continue
                if time > now:
                    self.now = now = time
            event._live = False
            fn = event.fn
            args = event.args
            if event._pooled:
                event.fn = event.args = None
                if len(pool) < _POOL_LIMIT:
                    pool_append(event)
            fn(*args)
            self._processed += 1
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        before = self._processed
        self.run(max_events=1)
        return self._processed > before

    def run_all(self, limit: int = 50_000_000) -> None:
        """Run until the queue is empty (with a runaway-loop backstop)."""
        self.run(max_events=limit)
        if self.pending:
            raise SimulationError(f"exceeded {limit} events; runaway simulation?")

    # -- periodic helpers --------------------------------------------------

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled."""
        return PeriodicTask(self, interval, fn, args, start_after)


class Timer:
    """A re-armable one-shot deadline (DESIGN §3e): ``fn(*args)`` runs when it
    expires, with the timer already idle.  It keeps **at most one** queued
    entry: a deadline at or after that entry's time is only recorded (the
    entry, coming due early, re-posts itself for the remainder), an earlier
    one costs a tombstone and a push, :meth:`clear` is O(1).  An expiry fires
    at exactly ``t_set + delay``, the float ``schedule(delay, fn)`` fires at:
    entries are posted at the absolute deadline, not ``now + (t - now)``.
    """

    __slots__ = ("_sim", "_fn", "_args", "deadline", "_entry")

    def __init__(self, sim: Simulator, fn: Callable[..., Any], *args: Any):
        self._sim = sim
        self._fn = fn
        self._args = args
        self.deadline: Optional[float] = None     # absolute; read-only
        self._entry: Optional[Event] = None       # the one queued entry

    def set(self, delay: float) -> None:
        """(Re)arm the timer to expire ``delay`` seconds from now."""
        self.set_at(self._sim.now + delay)

    def set_at(self, deadline: float) -> None:
        """(Re)arm the timer to expire at absolute time ``deadline``."""
        if deadline < self._sim.now:
            raise SimulationError(f"cannot set a timer to {deadline} s, in the past")
        self.deadline = deadline
        entry = self._entry
        if entry is not None:
            if entry.time <= deadline:
                return
            entry.cancel()
        self._post()

    def clear(self) -> None:
        """Disarm the timer; a no-op on an idle one."""
        if self._entry is not None:
            self._entry.cancel()
        self._entry = self.deadline = None

    def _post(self) -> None:
        sim, deadline = self._sim, self.deadline
        self._entry = sim._push(Event(sim, deadline, self._tick, ()),
                                deadline - sim.now)

    def _tick(self) -> None:
        if self.deadline > self._sim.now:
            self._post()
            return
        self._entry = self.deadline = None
        self._fn(*self._args)


class PeriodicTask:
    """A repeating callback; cancel with :meth:`cancel`.

    Firings lie on the timeline ``start + n * interval``, accumulated by
    repeated addition (``base += interval``), so the period never drifts
    with the callback's own scheduling: a 100 ms telemetry task samples
    every 100 ms.
    """

    __slots__ = ("sim", "interval", "fn", "args", "_next_base", "_event",
                 "_cancelled")

    def __init__(self, sim, interval, fn, args, start_after):
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self._cancelled = False
        delay = interval if start_after is None else start_after
        self._next_base = sim.now + delay
        self._event = sim.schedule(self._next_base - sim.now, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fn(*self.args)
        if not self._cancelled:
            self._next_base += self.interval
            self._event = self.sim.schedule(self._next_base - self.sim.now,
                                            self._fire)

    def cancel(self) -> None:
        self._cancelled = True
        self._event.cancel()
