"""Discrete-event simulation core.

The whole reproduction runs on this simulator: hosts, device drivers, NICs,
switches and workloads are all simulation processes exchanging events in
virtual time.  Time is a ``float`` measured in **seconds**; helper constants
(:data:`NSEC`, :data:`USEC`, :data:`MSEC`) make call sites readable.

Two programming styles are supported:

* callback style -- ``sim.schedule(delay, fn, *args)``;
* coroutine style -- generator functions spawned with :meth:`Simulator.spawn`
  that ``yield`` delays, :class:`Signal` objects, or other processes.

Busy-polling device drivers are modelled with O(#messages) events (wake on
data arrival plus explicit per-operation CPU costs) rather than
O(time / poll-interval) events, which keeps multi-second experiments tractable
in Python.

Scheduler layout
----------------

The event queue is split three ways, chosen at ``schedule`` time from the
requested delay; the dispatch loop always fires the global ``(time, seq)``
minimum across all three, so the split is invisible to callers:

* a **now queue** (FIFO deque) for zero-delay events -- the dominant case:
  process wakeups, doorbell rings and yield-the-floor reschedules.  Entries
  fire at the current time in sequence order without touching a heap;
* a **near-future heap** for sub-:data:`_NEAR_WINDOW` delays -- per-hop
  channel latencies and per-operation CPU costs.  It stays small (only the
  current window's events live there), so pushes and pops are cheap;
* a **far heap** for everything else -- packet arrivals, device latencies,
  periodic telemetry.

Process wakeups are *slotted*: each :class:`Process` owns one reusable
:class:`Event` for its (at most one) pending resume, so the steady-state
event flow allocates no Event objects.  Fire-and-forget callbacks scheduled
through :meth:`Simulator.call_after` / :meth:`Simulator.call_at` draw from a
small free list and are recycled after firing; events returned by
:meth:`Simulator.schedule` escape to callers (who may hold and cancel them
later) and are never recycled.

Cancellation tombstones the queue entry in O(1); the simulator separately
tracks the **live** (non-tombstoned) event count so :attr:`Simulator.pending`
does not over-count.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Optional

NSEC = 1e-9
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0

# Delays below this go to the near-future heap; at or above it, the far heap.
_NEAR_WINDOW = 4 * USEC

# Upper bound on the fire-and-forget Event free list.
_POOL_LIMIT = 256

__all__ = [
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "Event",
    "Signal",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire; cancellation is O(1) (the queue
    entry is tombstoned, not removed) and immediately drops the event from
    the simulator's live-event count.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim", "_live", "_pooled",
                 "_seqno")

    def __init__(self, sim: "Simulator", time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._live = True      # counted in sim._live_events (pending, not fired)
        self._pooled = False   # recycled onto sim._pool after firing
        self._seqno = 0        # queue order; now-queue entries carry it inline

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call multiple times."""
        self.cancelled = True
        if self._live:
            self._live = False
            self._sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Signal:
    """A one-shot or auto-reset wakeup primitive for coroutine processes.

    Processes wait on a signal by ``yield``-ing it.  A plain signal is
    level-triggered: :meth:`set` wakes every waiter with an optional value
    (delivered as the result of the ``yield``) and stays set for late
    arrivals until :meth:`clear`.

    With ``auto_reset=True`` the signal is a **doorbell**: each :meth:`set`
    delivers exactly one wakeup.  With waiters present the oldest waiter
    (FIFO) is woken; with none, one wakeup is latched for the next waiter.
    Consuming the latch clears both the set flag and the latched value, so a
    stale payload is never re-delivered.
    """

    __slots__ = ("sim", "auto_reset", "_set", "_value", "_waiters")

    def __init__(self, sim: "Simulator", auto_reset: bool = False):
        self.sim = sim
        self.auto_reset = auto_reset
        self._set = False
        self._value: Any = None
        self._waiters: list[Process] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        """Deliver a wakeup (immediately, at the current simulation time).

        Level-triggered signals wake all waiters and latch; auto-reset
        signals wake exactly one waiter, or latch one wakeup when nobody is
        waiting (doorbell semantics).
        """
        waiters = self._waiters
        if self.auto_reset:
            if waiters:
                waiters.pop(0)._wake(0.0, value)
            else:
                self._set = True
                self._value = value
        else:
            self._set = True
            self._value = value
            if waiters:
                self._waiters = []
                for proc in waiters:
                    proc._wake(0.0, value)

    def clear(self) -> None:
        self._set = False
        self._value = None

    def _subscribe(self, proc: "Process") -> bool:
        """Register ``proc``; return True if already set (no wait needed)."""
        if self._set:
            if self.auto_reset:
                self._set = False
            return True
        self._waiters.append(proc)
        return False

    def _unsubscribe(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class Process:
    """A coroutine process driven by the simulator.

    The generator may yield:

    * ``float`` / ``int`` -- sleep for that many seconds;
    * :class:`Signal` -- block until the signal is set (the signal's value is
      sent back into the generator);
    * :class:`Process` -- block until that process terminates;
    * ``None`` -- yield the floor (resume at the same time, after other
      pending events).

    A process has at most one pending resume at any moment, so all its
    wakeups reuse a single slot :class:`Event` instead of allocating.
    """

    __slots__ = ("sim", "name", "_gen", "_done", "_done_signal", "_waiting_on",
                 "result", "_slot")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self._done = False
        self._done_signal = Signal(sim)
        self._waiting_on: Optional[Signal] = None
        self.result: Any = None
        slot = Event(sim, 0.0, self._resume, ())
        slot._live = False
        self._slot = slot

    @property
    def done(self) -> bool:
        return self._done

    def interrupt(self) -> None:
        """Terminate the process at the current time without running it.

        A pending sleep timer is cancelled so the interrupted process leaves
        nothing live behind in the event queue.
        """
        if self._done:
            return
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
            self._waiting_on = None
        if self._slot._live:
            self._slot.cancel()
        self._gen.close()
        self._finish(None)

    def _finish(self, result: Any) -> None:
        self._done = True
        self.result = result
        self._done_signal.set(result)

    def _wake(self, delay: float, value: Any) -> None:
        """Schedule this process's resume through its reusable slot event."""
        sim = self.sim
        slot = self._slot
        slot.args = (value,)
        slot._live = True
        sim._live_events += 1
        seq = next(sim._seq)
        if delay == 0.0:
            slot.time = sim.now
            slot._seqno = seq
            sim._now_q.append(slot)
        else:
            slot.time = t = sim.now + delay
            if delay < _NEAR_WINDOW:
                heapq.heappush(sim._near, (t, seq, slot))
            else:
                heapq.heappush(sim._far, (t, seq, slot))

    def _resume(self, value: Any = None) -> None:
        if self._done:
            return
        self._waiting_on = None
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if yielded is None:
            self._wake(0.0, None)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process {self.name} yielded negative delay {yielded}")
            self._wake(float(yielded), None)
        elif isinstance(yielded, Signal):
            if yielded._subscribe(self):
                value = yielded._value
                if yielded.auto_reset:
                    yielded._value = None
                self._wake(0.0, value)
            else:
                self._waiting_on = yielded
        elif isinstance(yielded, Process):
            if yielded._done:
                self._wake(0.0, yielded.result)
            else:
                if yielded._done_signal._subscribe(self):
                    self._wake(0.0, yielded.result)
                else:
                    self._waiting_on = yielded._done_signal
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop: a tiered, time-ordered queue of :class:`Event` objects.

    See the module docstring for the scheduler layout.  The dispatch loop
    always fires the global ``(time, seq)`` minimum across the now queue and
    the two heaps, so callers observe a single totally-ordered event queue.
    """

    __slots__ = ("_now_q", "_near", "_far", "_seq", "_pool", "now",
                 "_processed", "_live_events")

    def __init__(self):
        self._now_q: deque[Event] = deque()
        self._near: list[tuple[float, int, Event]] = []
        self._far: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._pool: list[Event] = []
        self.now: float = 0.0
        self._processed = 0
        self._live_events = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        event = Event(self, self.now + delay, fn, args)
        self._live_events += 1
        seq = next(self._seq)
        if delay == 0.0:
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
        self._live_events += 1
        seq = next(self._seq)
        if delay == 0.0:
            event._seqno = seq
            self._now_q.append(event)
        elif delay < _NEAR_WINDOW:
            heapq.heappush(self._near, (t, seq, event))
        else:
            heapq.heappush(self._far, (t, seq, event))

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`; see :meth:`call_after`."""
        self.call_after(time - self.now, fn, *args)

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a coroutine process; it first runs at the current time."""
        proc = Process(self, gen, name=name)
        proc._wake(0.0, None)
        return proc

    def signal(self, auto_reset: bool = False) -> Signal:
        """Convenience constructor for a :class:`Signal` bound to this sim."""
        return Signal(self, auto_reset=auto_reset)

    # -- running ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events."""
        return self._live_events

    @property
    def processed_events(self) -> int:
        return self._processed

    def _peek(self) -> Optional[tuple]:
        """Return the queue holding the next event, or None when drained.

        The result is ``(queue, time, seq)`` where ``queue`` is the now
        queue or one of the heaps; tombstones are *not* skipped (matching
        the dispatch loops, which discard them pop-by-pop).
        """
        near, far = self._near, self._far
        head = None
        src = None
        if near:
            head = near[0]
            src = near
            if far and far[0] < head:
                head = far[0]
                src = far
        elif far:
            head = far[0]
            src = far
        nq = self._now_q
        if nq and (head is None or head[0] > self.now or head[1] > nq[0]._seqno):
            return (nq, self.now, nq[0]._seqno)
        if head is None:
            return None
        return (src, head[0], head[1])

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while True:
            picked = self._peek()
            if picked is None:
                return False
            src, time, _ = picked
            if src is self._now_q:
                event = src.popleft()
            else:
                _, _, event = heapq.heappop(src)
            if event.cancelled:
                continue
            if time < self.now - 1e-15:
                raise SimulationError("event queue went backwards")
            if time > self.now:
                self.now = time
            self._live_events -= 1
            self._processed += 1
            event._live = False
            fn, args = event.fn, event.args
            if event._pooled:
                event.fn = event.args = None
                if len(self._pool) < _POOL_LIMIT:
                    self._pool.append(event)
            fn(*args)
            return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        behave like wall-clock segments.
        """
        fired = 0
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
        max_f = (1 << 62) if max_events is None else max_events
        # The live/processed counters are flushed once on exit rather than
        # updated per event; nothing reads them mid-run (verified: only the
        # post-run report and tests do), and the per-event saving is real.
        # ``self.now`` is mirrored in a local (callbacks only ever read it,
        # and only run/step write it) and both are updated together.
        now = self.now
        try:
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
                    if fired >= max_f:
                        return
                    event = popleft()
                    if event.cancelled:
                        continue
                else:
                    if head is None:
                        break
                    time = head[0]
                    if time > until_v:
                        break
                    if fired >= max_f:
                        return
                    heappop(src)
                    event = head[2]
                    if event.cancelled:
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
                fired += 1
        finally:
            self._processed += fired
            self._live_events -= fired
        if until is not None and self.now < until:
            self.now = until

    def run_all(self, limit: int = 50_000_000) -> None:
        """Run until the queue is empty (with a runaway-loop backstop)."""
        fired = 0
        while self.step():
            fired += 1
            if fired > limit:
                raise SimulationError(f"exceeded {limit} events; runaway simulation?")

    # -- periodic helpers --------------------------------------------------

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled."""
        return PeriodicTask(self, interval, fn, args, start_after, jitter, rng)


class PeriodicTask:
    """A repeating callback; cancel with :meth:`cancel`.

    Each firing is scheduled off an unjittered base timeline
    (``start + n * interval``); jitter only offsets the individual firing
    from its base tick.  Adding jitter to every gap instead would inflate
    the mean period to ``interval + jitter/2`` and drift the task
    unboundedly late -- a 100 ms telemetry task would silently sample
    slower than configured.

    When ``jitter >= interval`` a firing can land past the next base tick.
    Base ticks the firing overran are skipped (the task samples slower for
    that window) rather than clamped to zero delay, which would fire
    back-to-back bursts at the same timestamp.
    """

    __slots__ = ("sim", "interval", "fn", "args", "jitter", "rng",
                 "_next_base", "_event", "_cancelled")

    def __init__(self, sim, interval, fn, args, start_after, jitter, rng):
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.jitter = jitter
        self.rng = rng
        self._cancelled = False
        delay = interval if start_after is None else start_after
        self._next_base = sim.now + delay
        self._event = sim.schedule(self._jittered_delay(), self._fire)

    def _jittered_delay(self) -> float:
        when = self._next_base
        if self.jitter and self.rng is not None:
            when += float(self.rng.uniform(0, self.jitter))
        return max(when - self.sim.now, 0.0)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fn(*self.args)
        if not self._cancelled:
            base = self._next_base + self.interval
            now = self.sim.now
            while base <= now:
                base += self.interval
            self._next_base = base
            self._event = self.sim.schedule(self._jittered_delay(), self._fire)

    def cancel(self) -> None:
        self._cancelled = True
        self._event.cancel()
