"""Registry bindings for the pre-existing ad-hoc counter classes.

Each ``bind_*`` function binds a *reader* of a legacy counter object
(``LinkStats``, ``CacheStats``, ``ChannelCounters``, NIC/SSD/switch/driver
attributes): a declaration -- mostly ``(name, labels, attribute)`` rows,
which are also the list of canonical metric names -- that interns the
object's series into the registry's series table once, at the first scrape,
and a ``read(vector)`` that adds the raw counter values into those slots on
every scrape thereafter.  Families whose members appear at run time (link
categories, switch ports, allocator devices, injector kinds) are
:class:`~repro.obs.metrics.Family` maps that intern on first sight.
Binding is observation-only: the legacy objects stay the source of truth
and are never mutated, so experiments that read them directly keep
producing identical numbers.

Everything here is duck-typed on the counter objects' public attributes to
keep :mod:`repro.obs` import-free of the subsystem modules (the pod wires
the concrete objects in).
"""

from __future__ import annotations

from dataclasses import fields
from functools import wraps
from operator import attrgetter

from .metrics import MetricsRegistry


def _bind(declare):
    """Turn ``declare(series, *args) -> read`` into ``bind(registry, *args)``;
    the declaration runs at the registry's next scrape, not at bind time."""

    @wraps(declare)
    def bind(registry: MetricsRegistry, *args, **kwargs) -> None:
        registry.register(lambda series: declare(series, *args, **kwargs))

    return bind


class _Rows:
    """``read(vector)`` of one :func:`_reader`.

    ``get(source)`` returns the attribute rows' values in row order -- one C
    call, shared by every reader of the same paths -- and ``calls`` holds
    ``(slot, callable)`` for the rest (callable rows, or a lone attribute
    row: ``attrgetter`` of one path returns a value, not a tuple).  A zero
    adds nothing, so an idle series keeps the vector's shared ``0.0``;
    ``!= 0`` rather than truthiness keeps ``None`` raising.
    """

    __slots__ = ("source", "slots", "get", "calls")

    def __init__(self, source, slots, get, calls):
        self.source = source
        self.slots = slots
        self.get = get
        self.calls = calls

    def __call__(self, vector):
        source = self.source
        if self.slots:
            for slot, value in zip(self.slots, self.get(source)):
                if value != 0:
                    vector[slot] += value
        for slot, get in self.calls:
            value = get(source)
            if value != 0:
                vector[slot] += value


def _reader(series, source, rows, **labels):
    """Intern ``(name, extra labels, attribute), ...`` of ``source``; returns
    ``read(vector)``.  ``attribute`` is a dotted path re-read on every scrape
    (``"stats.hits"`` survives a replaced ``stats``) or a callable of it."""
    slots, paths, calls = [], [], []
    for name, extra, get in rows:
        slot = series(name, **labels, **extra)
        if isinstance(get, str):
            slots.append(slot)
            paths.append(get)
        else:
            calls.append((slot, get))
    if len(paths) == 1:
        calls.insert(0, (slots.pop(), attrgetter(paths.pop())))
    get = series.getter(*paths) if paths else None
    return _Rows(source, tuple(slots), get, tuple(calls))


@_bind
def bind_sim(series, sim):
    """Export the event kernel's own health gauges.

    ``sim_pending_events`` counts *live* (non-tombstoned) queue entries:
    work in flight plus one per periodic task and armed ``Timer`` (deadlines
    are lazy, DESIGN §3e), so a climb under constant load is a leak.  Both
    event gauges are exact at every scrape, including the scraper's own
    ticks inside one ``run()``.  Not bound by the pod by default: scraping it
    would perturb the byte-identical seeded snapshots the replay suite pins.
    """
    return _reader(series, sim, (
        ("sim_processed_events", {}, "processed_events"),
        ("sim_pending_events", {}, "pending"),
        ("sim_now_seconds", {}, "now")))


@_bind
def bind_scraper(series, scraper):
    """Export the scraper's own buffering health.

    ``scraper_dropped`` counts snapshots evicted off the back of the ring
    (sampling itself never stops); ``report`` surfaces it so a window that
    silently rolled over is visible in the artifact built from it.
    """
    return _reader(series, scraper, (
        ("scraper_samples_taken", {}, "samples_taken"),
        ("scraper_buffered", {}, len),
        ("scraper_dropped", {}, "dropped")))


@_bind
def bind_pool(series, pool):
    """Export a :class:`CXLMemoryPool`'s per-host ``LinkStats``."""
    links = series.family("cxl_link_bytes", "host", "direction", "category")

    def read(vector):
        for host, stats in pool.link_stats.items():
            for category, nbytes in stats.read_bytes.items():
                vector[links[host, "read", category]] += nbytes
            for category, nbytes in stats.write_bytes.items():
                vector[links[host, "write", category]] += nbytes

    return read


@_bind
def bind_cache(series, cache, host: str, domain: str = "cxl"):
    """Export one :class:`HostCache`'s ``CacheStats`` -- every counter the
    dataclass declares -- plus its line count."""
    return _reader(
        series, cache,
        [("cache_ops", {"op": f.name}, f"stats.{f.name}")
         for f in fields(cache.stats)]
        + [("cache_lines_resident", {}, "cached_line_count")],
        host=host, domain=domain)


@_bind
def bind_channel_endpoint(series, counters, channel: str, role: str):
    """Export one ``ChannelCounters`` dataclass (sender or receiver side)."""
    return _reader(series, counters, [("channel_ops", {"op": f.name}, f.name)
                                      for f in fields(counters)],
                   channel=channel, role=role)


def bind_channel_pair(registry: MetricsRegistry, pair) -> None:
    """Export both directions of a :class:`ChannelPair` (CXL channels only)."""
    for endpoint in (pair.a_to_b, pair.b_to_a):
        for role in ("sender", "receiver"):
            side = getattr(endpoint, role, None)
            if side is not None:
                bind_channel_endpoint(registry, side.counters, endpoint.name,
                                      role)


def _aer_total(device) -> int:
    return device.aer.total()


@_bind
def bind_nic(series, nic):
    return _reader(series, nic, (
        ("nic_frames", {"direction": "tx"}, "tx_frames"),
        ("nic_frames", {"direction": "rx"}, "rx_frames"),
        ("nic_bytes", {"direction": "tx"}, "tx_bytes"),
        ("nic_bytes", {"direction": "rx"}, "rx_bytes"),
        ("nic_dropped_frames", {"reason": "no_buffer"}, "rx_dropped_no_buffer"),
        ("nic_dropped_frames", {"reason": "link_down"}, "rx_dropped_down"),
        ("nic_link_up", {}, "link_up"),
        ("device_aer_errors", {}, _aer_total),
        ("nic_tx_completions", {}, "tx_completions"),
        ("nic_dma_aborts", {}, "dma_aborts")),
        device=nic.name, host=nic.host.name)


@_bind
def bind_ssd(series, ssd):
    return _reader(series, ssd, (
        ("ssd_ops", {"op": "read"}, "reads"),
        ("ssd_ops", {"op": "write"}, "writes"),
        ("ssd_bytes", {"op": "read"}, "read_bytes"),
        ("ssd_bytes", {"op": "write"}, "write_bytes"),
        ("device_aer_errors", {}, _aer_total),
        ("ssd_completions", {}, "completions"),
        ("ssd_media_errors", {}, "media_errors")),
        device=ssd.name, host=ssd.host.name)


@_bind
def bind_switch(series, switch):
    name = switch.name
    frames = _reader(series, switch, (
        ("switch_frames", {"event": "forwarded"}, "forwarded_frames"),
        ("switch_frames", {"event": "flooded"}, "flooded_frames"),
        ("switch_frames", {"event": "fault_dropped"}, "fault_dropped"),
        ("switch_frames", {"event": "fault_duplicated"}, "fault_duplicated")),
        switch=name)
    tx_frames, tx_bytes, dropped = (
        series.family(f"switch_port_{what}", "switch", "port")
        for what in ("tx_frames", "tx_bytes", "dropped_frames"))

    def read(vector):
        frames(vector)
        for port_id, port in switch.ports.items():
            vector[tx_frames[name, port_id]] += port.tx_frames
            vector[tx_bytes[name, port_id]] += port.tx_bytes
            vector[dropped[name, port_id]] += port.dropped_frames

    return read


#: extra per-driver counters exported when present (frontends vs backends)
_DRIVER_EXTRA_FIELDS = (
    "tx_forwarded", "rx_delivered", "rx_unknown_instance", "tx_no_buffer",
    "tx_posted", "rx_forwarded", "rx_fallback_inspections",
    "rx_dropped_unknown",
    # fault tolerance (net backend / storage frontend)
    "tx_retries", "tx_giveups",
    "retries", "timeouts", "giveups", "completed_ok", "completed_error",
    # epoch fencing (§3.3.3): rejections at backends, recoveries at frontends
    "fence_rejects", "stale_accepted", "tx_fenced", "resyncs", "fenced",
    # overload control: admission/shedding, retry budgets, circuit breakers
    "submitted", "shed", "shed_queue_full", "shed_sojourn", "shed_breaker",
    "shed_brownout", "retry_budget_denied", "breaker_trips", "breakers_open",
    "tx_shed", "tx_shed_queue_full", "tx_shed_sojourn", "tx_shed_brownout",
    "brownout_level",
)


@_bind
def bind_driver(series, driver):
    """Export a busy-polling :class:`Driver`'s loop and datapath counters."""
    at = {"driver": driver.name}
    rows = [("driver_busy_ns", at, "busy_ns"), ("driver_wakeups", at, "wakeups")]
    rows += [("driver_ops", {"op": op, **at}, op) for op in _DRIVER_EXTRA_FIELDS
             if getattr(driver, op, None) is not None]
    if getattr(driver, "queue_depth", None) is not None:
        # Backends expose live device-queue occupancy (NIC TX ring +
        # overflow backlog, SSD submission queue); fleet health turns
        # this into queue saturation vs the configured depth.
        rows.append(("device_queue_depth", {"device": driver.device_name},
                     "queue_depth"))
    return _reader(series, driver, rows)


@_bind
def bind_tenant_client(series, client):
    """Export the two request counters fleet health reads of a tenant.

    One ``tenant_requests`` family keyed by (tenant, result), with the
    ``ok`` and ``slo_violation`` rows only: fleet health turns their deltas
    into the per-tenant SLO-burn gauge.  Submitted, shed and failed requests
    per tenant are the admission stage's rows (``tenant_stats()``).
    """
    return _reader(series, client, (
        ("tenant_requests", {"result": "ok"}, "stats.completed_ok"),
        ("tenant_requests", {"result": "slo_violation"}, "slo_violations")),
        tenant=client.tenant)


@_bind
def bind_allocator(series, allocator):
    counters = _reader(series, allocator, (
        ("allocator_events", {"event": "failover"}, "failovers_executed"),
        ("allocator_events", {"event": "migration"}, "migrations_executed"),
        ("allocator_telemetry_records", {}, "telemetry_store.records_ingested"),
        ("allocator_events", {"event": "lease_expiry"}, "lease_expirations"),
        ("allocator_events", {"event": "duplicate_report"},
         "duplicate_reports"),
        ("allocator_events", {"event": "failover_no_backup"},
         "failover_no_backup"),
        ("allocator_pending_commands", {}, "pending_commands"),
        ("fence_epoch_grants", {}, "epochs.grants"),
        ("fence_epoch_revokes", {}, "epochs.revokes"),
        ("notify_delivered", {}, "notify.delivered"),
        ("notify_dropped", {}, "notify.dropped")))
    allocated, capacity, failed = (
        series.family(f"allocator_device_{what}", "device", "kind")
        for what in ("allocated", "capacity", "failed"))

    def read(vector):
        counters(vector)
        for kind, table in allocator.tables.items():
            for device in table.devices.values():
                key = (device.name, kind)
                vector[allocated[key]] += device.allocated
                vector[capacity[key]] += device.capacity
                vector[failed[key]] += device.failed

    return read


@_bind
def bind_tracer(series, tracer):
    """Export the tracer's recording health (recorded vs silently dropped)."""
    return _reader(series, tracer, (
        ("tracer_events_recorded", {}, lambda tracer: len(tracer.events)),
        ("tracer_events_dropped", {}, "dropped")))


@_bind
def bind_flows(series, flows):
    """Export a :class:`~repro.obs.flow.FlowRegistry`'s bookkeeping."""
    return _reader(series, flows, (
        ("flow_started", {}, "started"),
        ("flow_completed", {}, "completed"),
        ("flow_records_dropped", {}, "dropped_records"),
        ("flow_stash_evicted", {}, "stash_evicted"),
        ("flow_stash_open", {}, lambda flows: len(flows._stash))))


@_bind
def bind_injector(series, injector):
    """Export a :class:`~repro.faults.injector.FaultInjector`'s event counts."""
    injected = series.family("fault_injected", "kind")
    recovered = series.family("fault_recovered", "kind")

    def read(vector):
        for kind, count in injector.injected.items():
            vector[injected[kind,]] += count
        for kind, count in injector.recovered.items():
            vector[recovered[kind,]] += count

    return read


@_bind
def bind_raft_node(series, node):
    return _reader(series, node, (
        ("raft_term", {}, "current_term"),
        ("raft_commit_index", {}, "commit_index"),
        ("raft_is_leader", {}, lambda node: node.state == "leader")),
        node=node.node_id)


__all__ = sorted(name for name in dict(globals()) if name.startswith("bind_"))
