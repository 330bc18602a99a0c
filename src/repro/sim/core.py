"""Discrete-event simulation core.

The whole reproduction runs on this simulator: hosts, device drivers, NICs,
switches and workloads are all callbacks exchanging events in virtual time.
Time is a ``float`` measured in **seconds**; helper constants (:data:`NSEC`,
:data:`USEC`, :data:`MSEC`) make call sites readable.

There is one programming style -- ``sim.schedule(delay, fn, *args)`` and its
variants post a callback -- and one dispatch loop, :meth:`Simulator.run`.

Busy-polling device drivers are modelled with O(#messages) events (wake on
data arrival plus explicit per-operation CPU costs) rather than
O(time / poll-interval) events, which keeps multi-second experiments tractable
in Python.

Scheduler layout
----------------

One binary heap, ``_queue``, holds every pending callback as a
``(time, seq, fn, args, handle)`` tuple.  ``seq`` is drawn from one counter
per post, so it is unique and the heap never compares past it: events fire
in ``(time, seq)`` order, and same-time events in the order they were
posted.  ``handle`` is the cancellable :class:`Event` for :meth:`schedule`,
:meth:`at` and :class:`Timer` entries, and ``None`` for
:meth:`Simulator.call_after`, so a fire-and-forget post allocates nothing
but its tuple.

Cancellation tombstones the handle in O(1); the simulator counts the
tombstones still queued so :attr:`Simulator.pending` does not over-count.
A deadline that is mostly moved or cleared is a :class:`Timer` instead.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

NSEC = 1e-9
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0

__all__ = [
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "Event",
    "Simulator",
    "SimulationError",
    "Timer",
]


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. scheduling in the past)."""


class Event:
    """The handle of a queued callback.  Returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire; cancellation is O(1) (the queue
    entry is tombstoned, not removed) and immediately drops the event from
    :attr:`Simulator.pending`.
    """

    __slots__ = ("time", "cancelled", "_sim", "_live")

    def __init__(self, sim: "Simulator", time: float):
        self.time = time
        self.cancelled = False
        self._sim = sim
        self._live = True      # queued, neither fired nor cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call multiple times."""
        self.cancelled = True
        if self._live:
            self._live = False
            self._sim._tombstones += 1


class Simulator:
    """The event loop: one ``(time, seq)``-ordered heap of callbacks.

    See the module docstring for the entry shape.
    """

    __slots__ = ("_queue", "_seq", "now", "_processed", "_tombstones",
                 "_settled")

    def __init__(self):
        self._queue: list[tuple[float, int, Callable[..., Any], tuple,
                                Optional[Event]]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._processed = 0    # callbacks that have returned
        self._tombstones = 0   # cancelled entries the loop has yet to discard
        self._settled = -math.inf   # `now` of the last run not cut short

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} s from now")
        time = self.now + delay
        event = Event(self, time)
        heapq.heappush(self._queue, (time, next(self._seq), fn, args, event))
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no Event is returned, so the
        post allocates no handle.  Use :meth:`schedule` whenever the caller
        needs to cancel."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} s from now")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._seq), fn, args, None))

    # -- running ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events: what is
        queued less the tombstones among it.  Exact at any read, also from
        inside a callback (whose own event is already off the queue)."""
        return len(self._queue) - self._tombstones

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
        queue = self._queue
        heappop = heapq.heappop
        # Bound sentinels: one float/int compare per event instead of an
        # ``is not None`` test plus a compare.
        until_v = math.inf if until is None else until
        stop_at = (1 << 62) if max_events is None else self._processed + max_events
        # ``self._processed`` is counted on the object, not in a local: the
        # telemetry scraper reads it from inside a run (``bind_sim``).
        while queue:
            if queue[0][0] > until_v:
                break
            if self._processed >= stop_at:
                return
            time, _, fn, args, handle = heappop(queue)
            if handle is not None:
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                handle._live = False
            self.now = time
            fn(*args)
            self._processed += 1
        if until is not None and self.now < until:
            self.now = until
        self._settled = self.now

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
        quiet: bool = False,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled."""
        if not interval > 0:
            raise SimulationError(f"a periodic task needs a positive "
                                  f"interval, not {interval} s")
        return PeriodicTask(self, interval, fn, args, start_after, quiet)


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
        if not deadline >= self._sim.now:
            raise SimulationError(f"cannot set a timer to {deadline} s "
                                  f"at {self._sim.now} s")
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
        self._entry = entry = Event(sim, deadline)
        heapq.heappush(sim._queue,
                       (deadline, next(sim._seq), self._tick, (), entry))

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
    every 100 ms: tick k at ``t_{k-1} + (base_k - t_{k-1})``.  A tick may
    go :meth:`quiet`, and ``every(..., quiet=True)`` starts so (unless due
    at once): no tick is posted until :meth:`wake` (DESIGN §3e, version 4).
    """

    __slots__ = ("sim", "interval", "fn", "args", "_next_base", "_next_time",
                 "_event", "_cancelled", "_quiet")

    def __init__(self, sim, interval, fn, args, start_after, quiet):
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self._cancelled = False
        delay = interval if start_after is None else start_after
        self._next_base = sim.now + delay
        self._next_time = sim.now + (self._next_base - sim.now)
        if not self._next_time >= sim.now:
            raise SimulationError(f"cannot schedule {delay} s from now")
        self._quiet = quiet and self._next_time > sim.now
        self._event: Optional[Event] = None if self._quiet else self._post()

    def _post(self) -> Event:
        """Queue the tick at ``_next_time``; the caller keeps the entry."""
        sim, time = self.sim, self._next_time
        entry = Event(sim, time)
        heapq.heappush(sim._queue, (time, next(sim._seq), self._fire, (), entry))
        return entry

    def _advance(self) -> None:
        """Step the timeline one tick past ``_next_time``."""
        time = self._next_time
        self._next_base += self.interval
        self._next_time = time + (self._next_base - time)

    def _fire(self) -> None:
        self._advance()
        self.fn(*self.args)
        # (a wake inside the tick that went quiet has posted already)
        if not (self._cancelled or self._quiet or self._event._live):
            self._event = self._post()

    def quiet(self) -> None:
        """Post no further tick until :meth:`wake`; only from inside a tick."""
        if self._event is not None and self._event._live:
            raise SimulationError("a periodic task goes quiet only from "
                                  "inside its own tick")
        self._quiet = True

    def wake(self) -> None:
        """Post a quiet task's first tick at or after ``now`` (one on ``now``
        fires after the caller, unless a run has settled ``now``: the
        always-on tick ran in it); a no-op on an awake or cancelled task."""
        if not self._quiet or self._cancelled:
            return
        self._quiet = False
        now = self.sim.now
        skip_now = self.sim._settled == now
        while self._next_time < now or (skip_now and self._next_time == now):
            self._advance()
        self._event = self._post()

    def cancel(self) -> None:
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
