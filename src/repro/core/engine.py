"""Engine framework: the datapath every Oasis engine driver shares (§3.2-3.4).

Each Oasis engine contributes a frontend driver (every host) and a backend
driver (device-attached hosts only), each pinned to a dedicated busy-polling
core (§3.3).  What differs between them is how a message is handled; the
rest lives here, once:

* :class:`Link` -- one peer driver, a channel endpoint each way, attached
  with :meth:`Driver.connect`;
* the loop -- :meth:`Driver.kick` and :meth:`Driver._pass`, below;
* :meth:`Driver._drain_links` -- the link-drain loop with its no-op guard,
  walking the links of the active-link mask (DESIGN §3j) and delivering
  each one's payloads to the subclass's ``_on_messages(link, payloads,
  cost)``, which returns ``cost`` plus the CPU ns it spent;
* :meth:`Driver._send` -- the send path and the one ring-full rule: what
  does not fit waits on the driver's backlog, per-link FIFO, and one timer
  re-kicks the driver to try again;
* :meth:`Driver._fenced` (backends) and ``start_monitors`` /
  ``stop_monitors`` -- the epoch-fence check and the periodic report.

The loop costs kernel events in proportion to work, not to polling
(schedule version 2, DESIGN §3e).  A *pass* drains every work source once
and returns the CPU ns it cost.  A doorbell ring (:meth:`Driver.kick`, the
plain callable :meth:`Driver.connect` hands each RX channel) on a parked,
idle driver runs the pass before ``kick`` returns.  A productive pass arms
no timer for its cost: it records ``_busy_until = now + cost`` and parks at
once.  A ring inside that horizon posts the one timer to its end; rings
while a pass is on the stack or that timer is pending latch exactly one
follow-up pass; a pass arms the timer itself only when something is known
to be waiting (a latched ring, a non-empty backlog).  Hence **every work
source rings**: whoever puts work where a pass would find it -- a device
queue, a ring slot, a batch limit that left items behind -- mutates first
and calls ``kick`` last (:meth:`Driver.stranded` checks nobody forgot).
The pass that found nothing once the cost had elapsed is not run; what it
did for the model -- publish, uncharged, the consumed counters a now-idle
driver owes -- the next ring settles, *as of* ``_busy_until``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import OasisConfig
from ..errors import ChannelFullError
from ..obs.flow import FlowBinding
from ..sim.core import MSEC, NSEC, USEC, Simulator

__all__ = ["Driver", "Link"]


@dataclass(eq=False)
class Link:
    """A driver's view of one peer driver it exchanges messages with."""

    name: str        # peer identifier: device name at a frontend, host name at a backend
    tx: object       # channel endpoint: this driver -> peer
    rx: object       # channel endpoint: peer -> this driver
    parked: int = field(default=0, init=False)   # its messages in our backlog


class Driver(FlowBinding):
    """Base class for frontend/backend drivers (one dedicated core each)."""

    #: the :class:`~repro.overload.stage.AdmissionStage`; None is unarmed
    _stage = None
    #: allocator client (set by the pod): telemetry, failure reports, resync
    control = None
    #: backends: the shard's EpochTable, None while fencing is detached
    epochs = None
    fencing_enabled = True
    _telemetry_task = None
    #: the periodic report to ``control``; drivers that report define it
    _send_telemetry = None

    #: ring-full backpressure: a failed attempt costs the sender one counter
    #: refresh that found no room, and the backlog is retried after this long
    RING_FULL_NS = 200.0
    RING_FULL_BACKOFF_S = 5 * USEC

    def arm(self, stage) -> None:
        """Attach the admission stage (called once, by the pod's ``_arm``)."""
        self._stage = stage

    def __init__(self, sim: Simulator, name: str, config: Optional[OasisConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or OasisConfig()
        self.running = False
        self.busy_ns = 0.0
        self.wakeups = 0       # passes begun from the parked, idle state
        self._parked = False   # idle on the doorbell: the next ring runs a pass
        self._kicked = False   # rung while not parked: one follow-up pass latched
        self._busy_until = 0.0   # the core is charged up to here (the horizon)
        self._links: Dict[str, Link] = {}
        # Per-link drain tuples (link, rx, counter_view, queue_view, timed,
        # above) in connect order: the four attribute chains are invariant
        # for a link's lifetime.  Bit i of the active-link mask ``_active`` is
        # ``_views[i]`` (``above`` masks the bits after it): set by the
        # channel when it queues a message, cleared by the pass that finds
        # the link with nothing queued and no counter owed (DESIGN §3j).
        self._views: list = []
        self._active = 0
        self._backlog: deque = deque()   # (link, payload) a full ring refused
        self._rekick_armed = False       # the one backlog retry timer is pending

    # -- wiring ----------------------------------------------------------------

    def connect(self, link: Link) -> None:
        """Attach a peer; its RX channel rings this driver's doorbell and
        sets the peer's bit of the active-link mask."""
        self._links[link.name] = link
        link.rx.bind(self.kick)
        link.rx.bind_mask(self, 1 << list(self._links).index(link.name))
        # in place: a walk under way indexes the list it started with
        self._views[:] = [(lk, lk.rx, lk.rx.counter_view, lk.rx.queue_view,
                           lk.rx.timed, -2 << i)
                          for i, lk in enumerate(self._links.values())]

    def link(self, name: str) -> Link:
        return self._links[name]

    # -- the loop ----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._parked = True
        if self._kicked:       # rung before start(), or while stopped
            self.kick()

    def stop(self) -> None:
        """Rings latch from here on; nothing is posted."""
        self.running = False
        self._parked = False

    def kick(self) -> None:
        """Ring this driver's doorbell.  Parked and idle, the pass runs now,
        on the caller's stack; parked inside the busy horizon, one timer is
        posted to its end; otherwise (a pass on the stack, that timer
        pending, stopped) however many rings latch one follow-up pass."""
        if not self._parked:
            self._kicked = True
            return
        wait = self._busy_until - self.sim.now
        if wait > 0.0:
            self._parked = False
            self.sim.call_after(wait, self._pass)
        else:
            self.wakeups += 1
            if self._active:
                self._settle()
            self._pass()

    def _pass(self) -> None:
        """Drain every work source, charge the CPU cost to the horizon and
        park -- or, when something is known to be waiting, go again: at the
        horizon after a productive pass, at once after one that handled
        nothing (its cost counts as busy but takes no virtual time).  Idle
        polling is not simulated; Table 3 accounts its traffic analytically."""
        if not self.running:
            return
        self._parked = False
        while True:
            self._kicked = False
            items, cost_ns = self._process()
            if self._backlog:
                sent, retry_ns = self._flush_backlog()
                items += sent
                cost_ns += retry_ns
            if cost_ns > 0.0:
                self.busy_ns += cost_ns
                if items > 0:
                    self._busy_until = self.sim.now + cost_ns * NSEC
                    if self._kicked or self._backlog:
                        self.sim.call_after(cost_ns * NSEC, self._pass)
                    else:
                        self._parked = True
                    return
            if not self._kicked:
                self._parked = True
                return

    def _settle(self) -> None:
        """Publish, uncharged, the consumed counters this driver owed when
        it went idle at ``_busy_until`` -- what the elided pass at that
        instant would have done: only links with nothing visible by then."""
        cost = 0.0
        views = self._views
        active = self._active      # a link that owes a counter is active
        while active:
            _link, _rx, cv, qv, _timed, above = views[
                (active & -active).bit_length() - 1]
            active &= above
            if cv._consumed_since_update and (
                    not qv or qv[0] > self._busy_until + 1e-12):
                cost += cv._publish_counter()
        self.busy_ns += cost

    def _queued(self) -> int:
        """Items in the driver's own queues that a pass would take."""
        return 0

    def stranded(self) -> int:
        """Items a pass would find although the driver is parked and no ring
        (or backlog retry) is on its way: 0 unless a work source forgot to
        ring -- queued items, visible messages, parked sends -- plus, parked
        or not, every link with work whose active bit is clear."""
        active = self._active
        missed = sum(1 for i, view in enumerate(self._views)
                     if not active >> i & 1
                     and (view[3] or view[2]._consumed_since_update))
        if not self._parked:
            return missed
        return (missed + self._queued()
                + sum(view[1].unrung for view in self._views)
                + (0 if self._rekick_armed else len(self._backlog)))

    # -- receive: the one link-drain loop ----------------------------------------

    def _drain_links(self) -> tuple:
        """Hand every active link's visible messages to ``_on_messages``, in
        connect order; returns ``(messages, cost_ns)``.  The cost is one
        running total that the drain and handler costs are added to one by
        one, in arrival order (the float grouping of that sum is part of
        replay identity).  A link a handler activates above the current one
        is visited in this pass, as a scan of every link would."""
        items = 0
        cost = 0.0
        views = self._views
        active = self._active
        while active:
            link, rx, cv, qv, timed, above = views[
                (active & -active).bit_length() - 1]
            if not cv._consumed_since_update:
                if not qv:
                    # nothing queued, nothing owed: clear its bit
                    self._active ^= active & -active
                    active &= above
                    continue
                if timed and qv[0] > self.sim.now + 1e-12:
                    active &= above         # drain() would be a no-op
                    continue
            payloads, drain_cost = rx.drain()
            cost += drain_cost
            if payloads:
                items += len(payloads)
                cost = self._on_messages(link, payloads, cost)
            active = self._active & above   # re-read: a handler may activate
        return items, cost

    #: ``_process() -> (items_handled, cpu_ns)`` drains a driver's work
    #: sources: its links, plus the device queues of a driver that overrides it
    _process = _drain_links

    # -- send: the one ring-full rule ----------------------------------------------

    def _send(self, link: Link, payloads: list) -> float:
        """Send packed messages to ``link``'s peer (one flush, one
        doorbell); returns the sender CPU ns.  Nothing is lost on a full
        ring: what did not fit -- or would overtake messages of the same
        link already waiting -- is parked on the driver's backlog in order,
        and one timer re-kicks the driver after ``RING_FULL_BACKOFF_S`` (the
        real ring backpressures the polling loop the same way)."""
        cost = 0.0
        if not link.parked:
            try:
                return link.tx.send_many(payloads)
            except ChannelFullError as full:
                del payloads[:full.sent]
                cost = self.RING_FULL_NS
        link.parked += len(payloads)
        self._backlog.extend((link, payload) for payload in payloads)
        self._arm_rekick()
        return cost

    def _flush_backlog(self) -> tuple:
        """Retry parked messages, oldest first; a link whose ring is still
        full keeps its messages, in order.  Returns ``(sent, cost_ns)``."""
        backlog, self._backlog = self._backlog, deque()
        sent = 0
        cost = 0.0
        full = set()
        for link, payload in backlog:
            if link not in full:
                try:
                    cost += link.tx.send_many([payload])
                except ChannelFullError:
                    cost += self.RING_FULL_NS
                    full.add(link)
                else:
                    link.parked -= 1
                    sent += 1
                    continue
            self._backlog.append((link, payload))
        if self._backlog:
            self._arm_rekick()
        return sent, cost

    def _arm_rekick(self) -> None:
        if not self._rekick_armed:
            self._rekick_armed = True
            self.sim.call_after(self.RING_FULL_BACKOFF_S, self._rekick)

    def _rekick(self) -> None:
        self._rekick_armed = False
        self.kick()

    # -- backends: epoch fencing (§3.3.3) --------------------------------------------

    def _fenced(self, device: str, message) -> bool:
        """True when ``message`` is a stale-epoch writer's and must not touch
        ``device``; counts it in ``fence_rejects`` / ``stale_accepted``."""
        if self.epochs is None or self.epochs.check(
                device, message.instance_ip, message.epoch):
            return False
        if self.fencing_enabled:
            self.fence_rejects += 1
            return True
        self.stale_accepted += 1
        return False

    # -- control plane: the periodic report (§3.5) -------------------------------------

    def start_monitors(self) -> None:
        """Start reporting to the allocator every telemetry interval (a
        no-op without a control client, a report, or when already on)."""
        if (self.control is None or self._send_telemetry is None
                or self._telemetry_task is not None):
            return
        interval = self.config.failover.telemetry_interval_ms * MSEC
        self._telemetry_task = self.sim.every(interval, self._send_telemetry)

    def stop_monitors(self) -> None:
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            self._telemetry_task = None
