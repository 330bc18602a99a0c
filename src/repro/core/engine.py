"""Engine framework: the datapath every Oasis engine driver shares (§3.2-3.4).

Each Oasis engine contributes a frontend driver (every host) and a backend
driver (device-attached hosts only), each pinned to a dedicated busy-polling
core (§3.3).  What differs between them is how a message is handled; the
rest lives here, once:

* :class:`Link` -- one peer driver, a channel endpoint each way, attached
  with :meth:`Driver.connect`;
* the event loop -- a driver sleeps on a doorbell, then drains all of its
  work sources, charging the accumulated per-item CPU costs as virtual time
  before sleeping again.  Event counts stay proportional to work done (the
  polling loop itself costs no simulation events while idle), which is what
  makes 10-second failover experiments tractable;
* :meth:`Driver._drain_links` -- the link-drain loop with its no-op guard,
  delivering each link's payloads to the driver's ``_on_messages`` hook;
* :meth:`Driver._send` -- the send path and the one ring-full rule: what
  does not fit waits on the driver's backlog, per-link FIFO, and one timer
  re-kicks the driver to try again;
* :meth:`Driver._fenced` (backends) and ``start_monitors`` /
  ``stop_monitors`` -- the epoch-fence check and the periodic report.

The loop is a flat callback state machine.  A parked driver is woken by one
zero-delay event per doorbell ring (:meth:`Driver.kick`, the plain callable
each RX channel is handed by :meth:`Driver.connect`), each productive drain
pass schedules one timer for its CPU cost, and rings that arrive while the
driver is processing latch exactly one further wakeup.  Two events per wake
carry no work of their own -- the zero-delay ``_wake_cb`` hop between the
channel's ``_fire`` and the first drain, and the trailing empty pass that
parks the driver (plus one ``_park`` event per :meth:`Driver.start`).  They
are part of schedule version ``baseline_sim_speed.json["events"] == 32,139``,
not of any observable contract, and are the first candidates of ROADMAP
item 1(b).
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
    #: messages for this peer waiting in the owning driver's backlog
    parked: int = field(default=0, init=False)


class Driver(FlowBinding):
    """Base class for frontend/backend drivers (one dedicated core each)."""

    #: the driver's :class:`~repro.overload.stage.AdmissionStage`; None is
    #: the unarmed datapath
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
        self.wakeups = 0
        self._parked = False   # parked on the doorbell; the next ring wakes
        self._kicked = False   # rung while not parked: one wakeup latched
        self._links: Dict[str, Link] = {}
        # Per-link drain tuples (link, rx, counter_view, queue_view, timed),
        # rebuilt on connect: the drain loop runs once per wakeup and these
        # four attribute chains are invariant for a link's lifetime.
        self._views: list = []
        self._backlog: deque = deque()   # (link, payload) a full ring refused
        self._rekick_armed = False       # the one backlog retry timer is pending

    # -- wiring ----------------------------------------------------------------

    def connect(self, link: Link) -> None:
        """Attach a peer; its RX channel rings this driver's doorbell."""
        self._links[link.name] = link
        link.rx.bind(self.kick)
        self._views = [
            (lk, lk.rx, lk.rx.counter_view, lk.rx.queue_view, lk.rx.timed)
            for lk in self._links.values()
        ]

    def link(self, name: str) -> Link:
        return self._links[name]

    # -- the loop ----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        # The driver parks one zero-delay event after start() rather than
        # inside it: that event is part of the pinned schedule version (see
        # the module docstring), a candidate of ROADMAP item 1(b).
        self.sim.call_after(0.0, self._park)

    def stop(self) -> None:
        self.running = False
        self.kick()

    def kick(self) -> None:
        """Ring this driver's doorbell: one wakeup event when parked, one
        latched wakeup (however many rings) while it is busy."""
        if self._parked:
            self._parked = False
            self.sim.call_after(0.0, self._wake_cb)
        else:
            self._kicked = True

    def _park(self) -> None:
        """Go idle, or consume a wakeup latched while we were busy."""
        if not self.running:
            return
        if self._kicked:
            self._kicked = False
            self.sim.call_after(0.0, self._wake_cb)
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
        if not self.running:
            return
        items, cost_ns = self._process()
        if self._backlog:
            sent, retry_ns = self._flush_backlog()
            items += sent
            cost_ns += retry_ns
        if cost_ns > 0.0:
            self.busy_ns += cost_ns
        if items > 0:
            self.sim.call_after(cost_ns * NSEC, self._drain_cb)
        else:
            self._park()

    # -- receive: the one link-drain loop ----------------------------------------

    def _drain_links(self) -> tuple:
        """Hand every link's visible messages to :meth:`_on_messages`.

        Returns ``(messages, cost_ns)``.  The cost is one running total that
        the drain and handler costs are added to one by one, in arrival
        order (the float grouping of that sum is part of replay identity).
        """
        items = 0
        cost = 0.0
        now_eps = self.sim.now + 1e-12
        for link, rx, cv, qv, timed in self._views:
            if cv._consumed_since_update == 0:
                if not qv or (timed and qv[0] > now_eps):
                    continue   # drain() would be a no-op
            payloads, drain_cost = rx.drain()
            cost += drain_cost
            if payloads:
                items += len(payloads)
                cost = self._on_messages(link, payloads, cost)
        return items, cost

    def _on_messages(self, link: Link, payloads: list, cost: float) -> float:
        """Handle ``payloads`` drained from ``link``; return ``cost`` plus
        the CPU ns spent, added per message."""
        raise NotImplementedError

    #: ``_process() -> (items_handled, cpu_ns)`` drains a driver's work
    #: sources; a driver with device queues overrides it, the default has no
    #: work source but its links.
    _process = _drain_links

    # -- send: the one ring-full rule ----------------------------------------------

    def _send(self, link: Link, payloads: list) -> float:
        """Send packed messages to ``link``'s peer (one flush, one
        doorbell); returns the sender CPU ns.

        Nothing is lost on a full ring: what did not fit -- or would
        overtake messages of the same link already waiting -- is parked on
        the driver's backlog in order, and one timer re-kicks the driver
        after ``RING_FULL_BACKOFF_S`` to retry (the real ring backpressures
        the polling loop the same way).
        """
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
                    cost += link.tx.send(payload)
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
        """True when ``message`` comes from a stale-epoch writer and must be
        rejected before it touches ``device``; counts either outcome in the
        backend's ``fence_rejects`` / ``stale_accepted``."""
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
