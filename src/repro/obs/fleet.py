"""Fleet health telemetry: live utilization/saturation/stranding levels.

The scraper/registry firehose answers "what happened since the run
started"; this module answers "which device, link, or host is hot *right
now*, and how stranded is each pool?" -- the live signals the alert rules,
the brownout controller and the ``python -m repro top`` dashboard read.
Everything is bounded-memory and fed exclusively from
:class:`~repro.obs.scraper.TelemetryScraper` ticks: :class:`FleetHealth`
keeps the previous value vector, one latest level per gauge
(``levels``, by family then entity), streaming statistics
(:class:`HealthSeries`: last, peak, :class:`Ewma`, :class:`P2Quantile`
p50/p99) only for the
:data:`SERIES_FAMILIES` the dashboard renders (``series``), and per-pool
:class:`StrandingGauge` s (the Figure 2 stranding integral, live); never a
snapshot history of its own.  :class:`AlertEngine` evaluates declarative
threshold / hysteresis / for-duration rules over the levels once per tick,
and ``FleetHealth``'s query methods (``queue_saturation``,
``tenant_slo_burn``, ``alerts``, ``as_dict``) are what consumers read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Ewma",
    "P2Quantile",
    "HealthSeries",
    "StrandingGauge",
    "AlertRule",
    "AlertEvent",
    "AlertEngine",
    "FleetHealth",
    "DEFAULT_ALERT_RULES",
]


class Ewma:
    """EWMA over irregularly spaced samples: ``alpha = 1 - exp(-dt/tau)``.

    With samples arriving every ``dt`` the smoothing horizon is ``tau``
    seconds of sim time regardless of the scrape period, which is what
    makes thresholds like "hot for 100 ms" scrape-rate independent.
    """

    __slots__ = ("tau_s", "value", "_last_t")

    def __init__(self, tau_s: float = 0.05):
        self.tau_s = tau_s
        self.value: Optional[float] = None
        self._last_t: Optional[float] = None

    def update(self, t: float, x: float) -> float:
        if self.value is None or self._last_t is None:
            self.value = float(x)
        else:
            dt = max(t - self._last_t, 0.0)
            alpha = 1.0 - math.exp(-dt / self.tau_s) if self.tau_s > 0 else 1.0
            self.value += alpha * (x - self.value)
        self._last_t = t
        return self.value


class P2Quantile:
    """Streaming quantile estimation with five markers (P-square algorithm).

    Deterministic and O(1) memory: the estimator never stores observations,
    so a :class:`HealthSeries` stays fixed-size no matter how long the run.
    Until five observations arrive the exact small-sample percentile is
    returned from the buffered values.
    """

    __slots__ = ("q", "count", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._pos = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, x: float) -> None:
        x = float(x)
        self.count += 1
        if self.count <= 5:
            self._heights.append(x)
            if self.count == 5:
                self._heights.sort()
            return
        h, pos = self._heights, self._pos
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if x < h[i]:
                    break
                k = i
        for i in range(k + 1, 5):
            pos[i] += 1
        for i in range(5):
            self._desired[i] += self._inc[i]
        for i in range(1, 4):
            d = self._desired[i] - pos[i]
            if ((d >= 1.0 and pos[i + 1] - pos[i] > 1)
                    or (d <= -1.0 and pos[i - 1] - pos[i] < -1)):
                step = 1 if d >= 1.0 else -1
                # Piecewise-parabolic prediction of the marker height ...
                candidate = h[i] + step / (pos[i + 1] - pos[i - 1]) * (
                    (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i])
                    / (pos[i + 1] - pos[i])
                    + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1])
                    / (pos[i] - pos[i - 1]))
                if not h[i - 1] < candidate < h[i + 1]:
                    # ... linear when that leaves the neighbours' interval.
                    candidate = h[i] + step * (h[i + step] - h[i]) / (
                        pos[i + step] - pos[i])
                h[i] = candidate
                pos[i] += step

    @property
    def value(self) -> float:
        if self.count == 0:
            return float("nan")
        if self.count < 5:
            ordered = sorted(self._heights)
            rank = self.q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])
        return self._heights[2]


class HealthSeries:
    """One dashboard entity's streaming statistics: last, peak, EWMA, p50/p99.

    Fixed memory: a handful of scalars plus two five-marker sketches.
    ``observe`` records a level (a utilization fraction, a saturation, a
    rate the pipeline differenced from two snapshots).
    """

    __slots__ = ("last", "peak", "count", "ewma", "_p50", "_p99")

    def __init__(self):
        self.last = 0.0
        self.peak = 0.0
        self.count = 0
        self.ewma = Ewma()
        self._p50 = P2Quantile(0.50)
        self._p99 = P2Quantile(0.99)

    def observe(self, t: float, value: float) -> None:
        self.last = value
        self.count += 1
        if value > self.peak:
            self.peak = value
        self.ewma.update(t, value)
        self._p50.observe(value)
        self._p99.observe(value)

    def as_dict(self) -> dict:
        return {
            "last": self.last,
            "ewma": self.ewma.value if self.ewma.value is not None else 0.0,
            "p50": self._p50.value if self.count else 0.0,
            "p99": self._p99.value if self.count else 0.0,
            "peak": self.peak,
            "samples": self.count,
        }


class StrandingGauge:
    """Live stranding: ``1 - time_avg(used) / provisioned`` while loaded.

    The duration-weighted integral mirrors
    :meth:`repro.workloads.stranding.UsageTimeline.time_average` exactly:
    each ``update(t, used, provisioned, loaded)`` closes the interval that
    started at the previous update (whose ``used``/``loaded`` apply to it)
    and opens a new one.  Fed the same usage timeline and loaded mask as
    the offline Figure 2 pipeline, the gauge reproduces its stranded
    fraction, and its loaded peak (``peak_used``) gives its device count.
    """

    __slots__ = ("_last_t", "_last_used", "_last_provisioned", "_last_loaded",
                 "weighted_used", "weighted_provisioned", "loaded_s",
                 "peak_used", "peak_any")

    def __init__(self):
        self._last_t: Optional[float] = None
        self._last_used = 0.0
        self._last_provisioned = 0.0
        self._last_loaded = True
        self.weighted_used = 0.0
        self.weighted_provisioned = 0.0
        self.loaded_s = 0.0
        self.peak_used = 0.0          # peak while loaded
        self.peak_any = 0.0           # peak regardless of load mask

    def update(self, t: float, used: float, provisioned: float,
               loaded: bool = True) -> None:
        if self._last_t is not None and t > self._last_t and self._last_loaded:
            dt = t - self._last_t
            self.weighted_used += self._last_used * dt
            self.weighted_provisioned += self._last_provisioned * dt
            self.loaded_s += dt
        self._last_t = t
        self._last_used = float(used)
        self._last_provisioned = float(provisioned)
        self._last_loaded = bool(loaded)
        if used > self.peak_any:
            self.peak_any = float(used)
        if loaded and used > self.peak_used:
            self.peak_used = float(used)

    @property
    def stranded_fraction(self) -> float:
        if self.weighted_provisioned > 0:
            return 1.0 - self.weighted_used / self.weighted_provisioned
        if self._last_provisioned > 0:
            return 1.0 - self._last_used / self._last_provisioned
        return 0.0

    @property
    def stranded_now(self) -> float:
        if self._last_provisioned > 0:
            return 1.0 - self._last_used / self._last_provisioned
        return 0.0


# -- alerting -----------------------------------------------------------------


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: threshold + hysteresis + for-duration.

    The rule watches every entity of one gauge ``family``.  An entity whose
    value holds at or above ``threshold`` for ``for_s`` seconds of sim time
    fires; it clears only when the value drops below ``clear_below``
    (default: the threshold itself), so values hovering at the threshold
    cannot flap the alert.
    """

    name: str
    family: str
    threshold: float
    for_s: float = 0.0
    clear_below: Optional[float] = None
    help: str = ""

    @property
    def clear_threshold(self) -> float:
        return self.threshold if self.clear_below is None else self.clear_below


#: The default ruleset: a device hot >80 % for 100 ms, a CXL link near
#: line rate, a device queue backing up, a lease-expiry storm (sweeps are
#: rare in a healthy pod), overload control at work, and a tenant burning
#: its latency SLO.
DEFAULT_ALERT_RULES: Tuple[AlertRule, ...] = (
    AlertRule("hot_device", "device_util", 0.80, for_s=0.100,
              clear_below=0.70,
              help="device moved >80% of its line rate for 100 ms"),
    AlertRule("link_saturated", "link_saturation", 0.90, for_s=0.100,
              clear_below=0.75,
              help="host CXL link >90% of capacity for 100 ms"),
    AlertRule("queue_saturated", "queue_saturation", 0.90, for_s=0.100,
              clear_below=0.50,
              help="device descriptor queue >90% full for 100 ms"),
    AlertRule("lease_expiry_storm", "lease_expiry_rate", 10.0, for_s=0.200,
              clear_below=1.0,
              help=">10 lease expirations/s for 200 ms"),
    # Overload control (PR 9): sustained load shedding, a starved retry
    # budget, or a frontend dropped into brownout are all pod-health events.
    AlertRule("overload_shedding", "shed_rate", 100.0, for_s=0.050,
              clear_below=10.0,
              help="frontend shedding >100 requests/s for 50 ms"),
    AlertRule("overload_retry_denied", "retry_denied_rate", 50.0,
              for_s=0.050, clear_below=5.0,
              help="retry budget denying >50 retries/s for 50 ms"),
    AlertRule("overload_brownout", "brownout", 1.0, for_s=0.0,
              clear_below=1.0,
              help="frontend in brownout: low-priority work is being shed"),
    # Multi-tenant serving (PR 10): one tenant burning its latency SLO.
    # The gauge family only exists once a pod registers tenant clients, so
    # the rule is inert for every non-serving run.
    AlertRule("tenant_slo_burn", "tenant_slo_burn", 0.5, for_s=0.050,
              clear_below=0.25,
              help="tenant's latency SLO violated on >50% of recent "
                   "completions"),
)


@dataclass(frozen=True)
class AlertEvent:
    """One alert transition (fire or clear) at a sim-time instant."""

    t: float
    rule: str
    entity: str
    kind: str                 # "fire" | "clear"
    value: float

    def as_json(self) -> list:
        return [round(self.t, 9), self.rule, self.entity, self.kind,
                round(self.value, 9)]


class AlertEngine:
    """Evaluates :class:`AlertRule` s once per scrape tick.

    Per (rule, entity) state machine::

        ok --value>=threshold--> pending --held for_s--> firing
        pending --value<threshold--> ok            (no event: gated)
        firing --value<clear_below--> ok           (clear event)
        firing --clear_below<=value--> firing      (hysteresis: no flap)

    Transitions emit :class:`AlertEvent` s into a bounded log and sim-time
    instants into the tracer (category ``alert``); ``fired`` and ``cleared``
    count them.
    """

    def __init__(self, rules: Sequence[AlertRule] = DEFAULT_ALERT_RULES,
                 tracer=None, max_events: int = 10_000):
        self.rules = tuple(rules)
        self.tracer = tracer
        self.log: deque = deque(maxlen=max_events)
        self.dropped = 0
        self.fired = 0
        self.cleared = 0
        #: rule -> {entity: {"state": "pending"|"firing", "since": t,
        #:                   "value": last}}, only entities not ok
        self._states: Dict[str, Dict[str, dict]] = {
            rule.name: {} for rule in self.rules}

    @property
    def active(self) -> Dict[Tuple[str, str], dict]:
        """Currently firing alerts: (rule, entity) -> state dict."""
        return {(rule, entity): st for rule, states in self._states.items()
                for entity, st in states.items() if st["state"] == "firing"}

    def _emit(self, event: AlertEvent) -> None:
        if len(self.log) == self.log.maxlen:
            self.dropped += 1
        self.log.append(event)
        if event.kind == "fire":
            self.fired += 1
        else:
            self.cleared += 1
        if self.tracer is not None:
            self.tracer.instant(f"alert.{event.kind}:{event.rule}",
                                category="alert", track="alerts",
                                entity=event.entity,
                                value=round(event.value, 6))

    def evaluate(self, t: float, levels: Dict[str, Dict[str, float]]) -> None:
        """One tick: ``levels`` maps family -> {entity: current level}, each
        family kept in sorted entity order; each rule reads its own family
        in that order."""
        for rule in self.rules:
            family = levels.get(rule.family)
            if not family:
                continue
            threshold = rule.threshold
            states = self._states[rule.name]
            for entity, value in family.items():
                if value >= threshold:
                    state = states.get(entity)
                    if state is None:
                        state = {"state": "pending", "since": t, "value": value}
                        states[entity] = state
                    state["value"] = value
                    if (state["state"] == "pending"
                            and t - state["since"] >= rule.for_s):
                        state["state"] = "firing"
                        self._emit(AlertEvent(t, rule.name, entity, "fire",
                                              value))
                elif entity in states:
                    state = states[entity]
                    state["value"] = value
                    if state["state"] == "pending":
                        # Spike shorter than for_s: gated, never fired.
                        del states[entity]
                    elif value < rule.clear_threshold:
                        self._emit(AlertEvent(t, rule.name, entity, "clear",
                                              value))
                        del states[entity]
                    # clear_threshold <= value < threshold: keep firing.

    def log_json(self) -> List[list]:
        """The deterministic alert sequence (replay-identity contract)."""
        return [event.as_json() for event in self.log]


# -- the pipeline -------------------------------------------------------------


def _growth(now, before, groups) -> float:
    """Largest growth between two vectors among groups of counter slots."""
    best = None
    for slots in groups:
        total = 0.0
        for slot in slots:
            total += now[slot] - before[slot]
        if best is None or total > best:
            best = total
    return best


def _level(now, slots) -> float:
    total = 0.0
    for slot in slots:
        total += now[slot]
    return total


def _sort_entities(table: dict) -> None:
    """Reorder a level table by entity, in place (the gauges hold it)."""
    items = sorted(table.items())
    table.clear()
    table.update(items)


#: The gauge families the ``top`` dashboard renders with statistics
#: (:class:`HealthSeries`); every other family keeps only its latest level.
SERIES_FAMILIES = ("device_util", "host_util", "link_saturation")


class FleetHealth:
    """Streaming fleet state fed from scraper ticks.

    Subscribe via ``scraper.subscribe(fleet.ingest)`` (what
    :meth:`repro.core.pod.CXLPod.enable_fleet_telemetry` does); each scrape
    tick differences the new value vector against the previous one, writes
    every gauge's latest value into ``levels[family][entity]``, feeds the
    :data:`SERIES_FAMILIES` gauges' :class:`HealthSeries` in ``series`` and
    the per-pool :class:`StrandingGauge` s, and runs the
    :class:`AlertEngine` over ``levels``.  Memory is bounded by the entity
    count, never the run length.
    """

    def __init__(
        self,
        nic_bytes_per_sec: float,
        ssd_bytes_per_sec: float,
        link_bytes_per_sec: float,
        nic_queue_depth: int = 1024,
        ssd_queue_depth: int = 64,
        rules: Optional[Sequence[AlertRule]] = None,
        tracer=None,
    ):
        self.nic_bytes_per_sec = nic_bytes_per_sec
        self.ssd_bytes_per_sec = ssd_bytes_per_sec
        self.link_bytes_per_sec = link_bytes_per_sec
        self.queue_depths = {"nic": nic_queue_depth, "ssd": ssd_queue_depth}
        #: family -> {entity: the gauge's latest value}
        self.levels: Dict[str, Dict[str, float]] = {}
        #: (family, entity) -> statistics, for the SERIES_FAMILIES only
        self.series: Dict[Tuple[str, str], HealthSeries] = {}
        self.stranding_gauges: Dict[str, StrandingGauge] = {}
        self.pools: Dict[str, dict] = {}
        self.device_host: Dict[str, str] = {}
        self.device_kind: Dict[str, str] = {}
        self.alert_engine = AlertEngine(
            rules if rules is not None else DEFAULT_ALERT_RULES,
            tracer=tracer)
        #: per-tenant SLO-burn EWMAs (created lazily as tenants appear)
        self._tenant_burn: Dict[str, Ewma] = {}
        self._prev = None
        self._planned = -1           # series-table size the plan was built for
        self.ticks = 0
        self.time = 0.0

    # -- ingest ------------------------------------------------------------

    def ingest(self, snapshot) -> None:
        """Consume one scraped snapshot (called by the scraper per tick):
        counters are differenced slot by slot against the previous vector,
        levels read off the new one, by a plan made once per table size."""
        t = snapshot.time
        prev, self._prev = self._prev, snapshot
        self.ticks += 1
        self.time = t
        if prev is None or t <= prev.time:
            return
        dt = t - prev.time
        now, before = snapshot.vector, prev.vector
        if len(before) < len(now):      # series that appeared since: were 0
            before = list(before) + [0.0] * (len(now) - len(before))
        if self._planned != len(now):
            self._plan(snapshot.table, len(now))
        host_util: Dict[str, float] = {}
        for table, entity, groups, per_sec, host in self._rates:
            rate = table[entity] = _growth(now, before, groups) / (per_sec * dt)
            if host is not None:
                host_util[host] = max(host_util.get(host, 0.0), rate)
        for table, host in self._hosts:
            table[host] = host_util[host]
        for table, entity, slots, full in self._levels:
            table[entity] = _level(now, slots) / full
        pools: Dict[str, dict] = {}
        for kind, capacity, failed, allocated in self._pool_devices:
            pool = pools.setdefault(kind, {"allocated": 0.0,
                                           "provisioned": 0.0,
                                           "devices": 0, "failed": 0})
            if _level(now, failed):
                pool["failed"] += 1
                continue           # failed devices are not provisioned
            pool["devices"] += 1
            pool["provisioned"] += _level(now, capacity)
            pool["allocated"] += _level(now, allocated)
        for kind, gauge in self._pools:
            gauge.update(t, pools[kind]["allocated"],
                         pools[kind]["provisioned"])
        self.pools = pools
        for table, tenant, ewma, ok_slots, violation_slots in self._tenants:
            # ``tenant_slo_burn``: the EWMA'd fraction of this tick's ok
            # completions that blew the tenant's latency SLO.
            ok = _growth(now, before, (ok_slots,))
            if ok > 0:
                burn = min(1.0, _growth(now, before, (violation_slots,)) / ok)
                first = ewma.value is None
                table[tenant] = ewma.update(t, burn)
                if first:                   # a new entity: keep the order
                    _sort_entities(table)
            elif ewma.value is not None:
                # No completions this tick: decay toward the last level so
                # a stalled tenant's burn gauge does not freeze mid-alert.
                table[tenant] = ewma.update(t, ewma.value)
        for series, table, entity in self._series:
            series.observe(t, table[entity])
        self.alert_engine.evaluate(t, self.levels)

    def _plan(self, table, n: int) -> None:
        """Map the first ``n`` slots of the series table onto the gauges.

        Each gauge is planned with its family's level table and its entity,
        so a tick writes ``table[entity]`` without finding either.
        A rate gauge is ``(table, entity, counter groups, capacity per
        second, host)``: the busiest group's growth over capacity x dt (NICs
        and CXL links are full duplex: the busier direction sets it); a level
        gauge ``(table, entity, slots, full scale)``.  Entities are planned
        sorted, every gauge planned here gets its level in this same tick,
        and each one of the :data:`SERIES_FAMILIES` gets a
        :class:`HealthSeries`.  Each level table is then put in entity
        order, so :meth:`AlertEngine.evaluate` reads it as stored: a gauge
        that writes every tick holds its entity's key from here on, and a
        tenant's burn level, which appears with its first completion, is
        put in order by :meth:`ingest` then.
        """
        self._planned = n
        self._series = []

        def gauge(family, entity, every_tick=True):
            """``family``'s level table; a dashboard family's ``entity``
            also gets its statistics, fed from that table every tick."""
            family_levels = self.levels.setdefault(family, {})
            if every_tick:
                family_levels.setdefault(entity, 0.0)
            if family in SERIES_FAMILIES:
                self._series.append((self.series.setdefault(
                    (family, entity), HealthSeries()), family_levels, entity))
            return family_levels

        def grouped(name, by):
            return {group: tuple(slots) for group, slots
                    in table.groups(name, by, n).items()}

        def nested(name, by):
            """Sorted ``(entity, {value of the last label: slots})``."""
            out: dict = {}
            for group, slots in grouped(name, by).items():
                out.setdefault(group[:-1], {})[group[-1]] = slots
            return sorted(out.items())

        def rates(family, name, by, wanted, per_sec=1.0, kind=None,
                  sparse=False):
            """One gauge per entity over the ``wanted`` member groups (None:
            all members, summed); ``sparse`` skips entities with none."""
            for entity, members in nested(name, by):
                groups = ((sum(members.values(), ()),) if wanted is None
                          else tuple(sum((members.get(m, ()) for m in group),
                                         ()) for group in wanted))
                if kind is not None:
                    self.device_host[entity[0]] = entity[1]
                    self.device_kind[entity[0]] = kind
                if any(groups) or not sparse:
                    self._rates.append((
                        gauge(family, entity[0]), entity[0], groups, per_sec,
                        entity[1] if kind is not None else None))

        self._rates = []
        rates("device_util", "nic_bytes", ("device", "host", "direction"),
              (("tx",), ("rx",)), self.nic_bytes_per_sec, "nic")
        rates("device_util", "ssd_bytes", ("device", "host", "op"), None,
              self.ssd_bytes_per_sec, "ssd")
        self._hosts = [(gauge("host_util", host), host) for host in
                       sorted({entry[4] for entry in self._rates})]
        rates("link_saturation", "cxl_link_bytes", ("host", "direction"),
              (("read",), ("write",)), self.link_bytes_per_sec)
        self._levels = [
            (gauge("queue_saturation", device), device, slots,
             # a zero-depth queue reads 0, never divides by it
             self.queue_depths.get(self.device_kind.get(device, "nic"), 1024)
             or math.inf)
            for (device,), slots in sorted(grouped(
                "device_queue_depth", ("device",)).items())]
        by_device = ("device", "kind")
        failed = grouped("allocator_device_failed", by_device)
        allocated = grouped("allocator_device_allocated", by_device)
        self._pool_devices = [
            (key[1], slots, failed.get(key, ()), allocated.get(key, ()))
            for key, slots in grouped("allocator_device_capacity",
                                      by_device).items()]
        self._pools = [
            (kind, self.stranding_gauges.setdefault(kind, StrandingGauge()))
            for kind in sorted({entry[0] for entry in self._pool_devices})]
        self._rates.append((
            gauge("lease_expiry_rate", "pod"), "pod",
            (grouped("allocator_events", ("event",)).get(
                ("lease_expiry",), ()),), 1.0, None))
        # Overload control (PR 9): per-second rates of the shed and budget-
        # denial counters, ``brownout`` the level (0/1) itself.  All zero --
        # and alert-silent -- unless the pod armed overload control.
        by_op = ("driver", "op")
        rates("shed_rate", "driver_ops", by_op, (("shed", "tx_shed"),),
              sparse=True)
        rates("retry_denied_rate", "driver_ops", by_op,
              (("retry_budget_denied",),), sparse=True)
        self._levels += [
            (gauge("brownout", driver), driver, ops["brownout_level"], 1.0)
            for (driver,), ops in nested("driver_ops", by_op)
            if "brownout_level" in ops]
        # Per-tenant serving gauges: ``tenant_requests`` only exists once a
        # pod registers tenant clients, so non-serving runs never grow them
        # and the ``tenant_slo_burn`` alert rule stays inert.  A tenant's
        # level appears with its first completion.
        self._tenants = [
            (gauge("tenant_slo_burn", tenant, every_tick=False), tenant,
             self._tenant_burn.setdefault(tenant, Ewma()),
             results.get("ok", ()), results.get("slo_violation", ()))
            for (tenant,), results in nested("tenant_requests",
                                             ("tenant", "result"))]
        for family_levels in self.levels.values():
            _sort_entities(family_levels)

    # -- querying ----------------------------------------------------------

    def _latest(self, family: str, entity: Optional[str]):
        """Latest level per entity of one gauge family (or one entity's)."""
        table = self.levels.get(family, {})
        return table.get(entity, 0.0) if entity is not None else dict(table)

    def queue_saturation(self, device: Optional[str] = None):
        """Descriptor-queue fill per device (or of one device)."""
        return self._latest("queue_saturation", device)

    def tenant_slo_burn(self, tenant: Optional[str] = None):
        """EWMA'd fraction of each tenant's completions blowing its SLO."""
        return self._latest("tenant_slo_burn", tenant)

    def alerts(self) -> List[dict]:
        """The firing alerts, sorted by (rule, entity)."""
        return [
            {"rule": rule, "entity": entity, "since": state["since"],
             "value": state["value"]}
            for (rule, entity), state in sorted(
                self.alert_engine.active.items())
        ]

    def as_dict(self) -> dict:
        """The full JSON document ``python -m repro top --json`` emits."""
        devices, hosts = {}, {}
        for (family, entity), series in sorted(self.series.items()):
            stats = series.as_dict()
            if family == "device_util":
                devices[entity] = {
                    "kind": self.device_kind.get(entity, "nic"),
                    "host": self.device_host.get(entity, ""),
                    "util": stats,
                    "queue_saturation": self.queue_saturation(entity),
                }
            else:               # host_util, link_saturation
                hosts.setdefault(entity, {})[
                    "util" if family == "host_util" else family] = stats
        pools = {}
        for kind, gauge in sorted(self.stranding_gauges.items()):
            info = dict(self.pools.get(kind, {}))
            info["stranded"] = gauge.stranded_fraction
            info["stranded_now"] = gauge.stranded_now
            pools[kind] = info
        return {
            "time": self.time,
            "ticks": self.ticks,
            "hosts": hosts,
            "devices": devices,
            "pools": pools,
            "lease_expiry_rate": self._latest("lease_expiry_rate", "pod"),
            # No pod-level SLO gauge exists; the dashboard keeps the key
            # at 0.0 (per-tenant burn is ``tenant_slo_burn``).
            "slo_burn": 0.0,
            "alerts": {
                "active": self.alerts(),
                "fired": self.alert_engine.fired,
                "cleared": self.alert_engine.cleared,
                "log": self.alert_engine.log_json(),
            },
        }
