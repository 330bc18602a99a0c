"""Engine framework: the driver event loop shared by all Oasis engines.

Each Oasis engine contributes a frontend driver (every host) and a backend
driver (device-attached hosts only), each pinned to a dedicated busy-polling
core (§3.3).  In the simulation a driver sleeps on a doorbell, then drains
all of its work sources, charging the accumulated per-item CPU costs as
virtual time before sleeping again.  This keeps event counts proportional to
work done -- the polling loop itself costs no simulation events while idle --
which is what makes 10-second failover experiments tractable.

The loop is a flat callback state machine rather than a coroutine: a parked
driver is woken by one zero-delay event per doorbell ring, each productive
drain pass schedules one timer for its CPU cost, and rings that arrive while
the driver is processing latch exactly one further wakeup.  This mirrors the
event-for-event schedule of the equivalent ``yield``-based loop (same event
count, same sequence-number allocation order) while skipping the generator
send/yield machinery on the simulator's hottest resume path.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Optional

from ..config import OasisConfig
from ..obs.flow import NULL_FLOWS
from ..sim.core import _NEAR_WINDOW, NSEC, Event, Signal, Simulator

__all__ = ["Driver"]


def _post_now(sim: Simulator, fn) -> None:
    """``sim.call_after(0.0, fn)``, open-coded for the wakeup path.

    Doorbell rings and park/unpark transitions are the most frequent event
    source in the whole simulator; this skips the ``call_after`` frame and
    its varargs packing while allocating (or recycling) the same pooled
    Event with the same sequence number.
    """
    pool = sim._pool
    if pool:
        event = pool.pop()
        event.time = sim.now
        event.fn = fn
        event.args = ()
        event._live = True
    else:
        event = Event(sim, sim.now, fn, ())
        event._pooled = True
    sim._live_events += 1
    event._seqno = next(sim._seq)
    sim._now_q.append(event)


class _WorkDoorbell(Signal):
    """A driver's doorbell: ``set()`` wakes the owning driver directly.

    Channels ring the doorbell through the ordinary :class:`Signal` API
    (``rx.bind(driver.work)`` then ``work.set()``), so this keeps that
    interface while routing the ring straight into the driver's state
    machine: one wakeup event when parked, one latched wakeup otherwise --
    the same delivery contract as an auto-reset signal with one waiter.
    """

    __slots__ = ("_driver",)

    def __init__(self, sim: "Simulator", driver: "Driver"):
        super().__init__(sim, auto_reset=True)
        self._driver = driver

    def set(self, value: Any = None) -> None:
        driver = self._driver
        if driver._parked:
            driver._parked = False
            # _post_now, inlined: every doorbell ring on a parked driver
            # lands here.
            sim = driver.sim
            pool = sim._pool
            if pool:
                event = pool.pop()
                event.time = sim.now
                event.fn = driver._wake_cb
                event.args = ()
                event._live = True
            else:
                event = Event(sim, sim.now, driver._wake_cb, ())
                event._pooled = True
            sim._live_events += 1
            event._seqno = next(sim._seq)
            sim._now_q.append(event)
        else:
            driver._kicked = True


class Driver:
    """Base class for frontend/backend drivers (one dedicated core each)."""

    # Optional facilities follow one pattern: a class-level None that hot
    # paths test once, rebound per driver when the pod turns the facility on.
    flows = NULL_FLOWS
    #: the flow registry while flow tracing is enabled, else None
    _flows = None
    #: the driver's :class:`~repro.overload.stage.AdmissionStage`; None is
    #: the unarmed datapath
    _stage = None

    def set_flows(self, flows) -> None:
        """Bind a flow registry; hot paths keep a None-or-registry alias."""
        self.flows = flows
        self._flows = flows if flows.enabled else None

    def arm(self, stage) -> None:
        """Attach the admission stage (called once, by the pod's ``_arm``)."""
        self._stage = stage

    def __init__(self, sim: Simulator, name: str, config: Optional[OasisConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or OasisConfig()
        self.work = _WorkDoorbell(sim, self)
        self.running = False
        self.busy_ns = 0.0
        self.wakeups = 0
        self._parked = False   # parked on the doorbell; the next ring wakes
        self._kicked = False   # rung while not parked: one wakeup latched

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        # One zero-delay event before the driver first parks, mirroring the
        # spawn step of the coroutine formulation (event/sequence parity).
        self.sim.call_after(0.0, self._park)

    def stop(self) -> None:
        self.running = False
        self.work.set()

    def kick(self) -> None:
        """Ring this driver's doorbell."""
        self.work.set()

    def _park(self) -> None:
        """Go idle, or consume a wakeup latched while we were busy."""
        if not self.running:
            return
        if self._kicked:
            self._kicked = False
            _post_now(self.sim, self._wake_cb)
        else:
            self._parked = True

    def _wake_cb(self) -> None:
        if not self.running:
            return
        self.wakeups += 1
        self._drain_cb()

    def _drain_cb(self) -> None:
        # Keep draining until a pass handles no items, charging CPU time
        # between passes so arrivals during processing are not starved.
        # Idle busy-polling itself is *not* simulated event-by-event --
        # its (tiny, constant) CXL traffic is accounted analytically by
        # the Table 3 experiment.
        while self.running:
            items, cost_ns = self._process()
            if cost_ns > 0.0:
                self.busy_ns += cost_ns
            if items <= 0:
                break
            # sim.call_after(cost_ns * NSEC, self._drain_cb), open-coded:
            # one of these timers fires per productive drain pass.
            delay = cost_ns * NSEC
            sim = self.sim
            pool = sim._pool
            if pool:
                event = pool.pop()
                event.time = t = sim.now + delay
                event.fn = self._drain_cb
                event.args = ()
                event._live = True
            else:
                event = Event(sim, sim.now + delay, self._drain_cb, ())
                event._pooled = True
                t = event.time
            sim._live_events += 1
            seq = next(sim._seq)
            if delay == 0.0:
                event._seqno = seq
                sim._now_q.append(event)
            elif delay < _NEAR_WINDOW:
                heappush(sim._near, (t, seq, event))
            else:
                heappush(sim._far, (t, seq, event))
            return
        if self.running:
            self._park()

    def _process(self) -> tuple:
        """Drain work sources; return ``(items_handled, cpu_ns)``."""
        raise NotImplementedError
