"""Reference model of the metrics layer: the implementation it replaced.

Until the series table, a scrape rebuilt every series' identity: each
``bind_*`` registered a *collector*, a generator yielding one frozen
``Sample(name, labels_key, value)`` per series, and ``snapshot()`` folded them
into a fresh ``{(name, labels_key): value}`` dict that ``get`` /
``delta_since`` / ``aggregate`` then scanned.  This module keeps that code --
the parent commit's ``collect()`` -> ``Sample`` -> dict path and its
collectors, verbatim apart from the class names -- as the oracle
``tests/test_metrics_oracle.py`` compares ``repro.obs`` against at every
scrape.  It reads the same live counter objects the pod bound, so it checks
the declarations and readers in ``obs/bindings.py`` as well as the snapshot
view.

:func:`shadow_bindings` patches the ``bind_*`` functions so that every
registry a pod binds gets a :class:`ReferenceRegistry` bound to the same
objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs import bindings
from repro.obs.bindings import _DRIVER_EXTRA_FIELDS
from repro.obs.metrics import Counter, Histogram, Sample, labels_key

LabelsKey = Tuple[Tuple[str, str], ...]

#: CacheStats counter attributes exported as ``cache_ops``
CACHE_OP_FIELDS = (
    "hits", "misses", "stores", "writebacks", "invalidations", "fences",
    "prefetches_issued", "prefetches_ignored", "evictions",
    "dma_read_snoop_hits", "dma_write_snoop_hits",
    "writebacks_lost", "writebacks_partial",
)

#: ChannelCounters attributes exported as ``channel_ops``
CHANNEL_OP_FIELDS = (
    "sent", "received", "empty_polls", "counter_refreshes",
    "counter_updates", "full_stalls",
)


def instrument_samples(instrument) -> Iterable[Sample]:
    """What ``Counter`` / ``Histogram.samples()`` yielded."""
    if isinstance(instrument, Counter):
        yield Sample(instrument.name, instrument.labels, instrument.value)
        return
    assert isinstance(instrument, Histogram)
    yield Sample(f"{instrument.name}_count", instrument.labels,
                 float(instrument.count))
    yield Sample(f"{instrument.name}_sum", instrument.labels, instrument.sum)
    cumulative = 0
    for bound, n in zip(instrument.buckets, instrument.bucket_counts):
        cumulative += n
        le = "+Inf" if bound == float("inf") else f"{bound:g}"
        yield Sample(f"{instrument.name}_bucket",
                     instrument.labels + (("le", le),), float(cumulative))


class ReferenceSnapshot:
    """An immutable point-in-time view of every sample in a registry."""

    __slots__ = ("time", "values")

    def __init__(self, values: Dict[Tuple[str, LabelsKey], float],
                 time: float = 0.0):
        self.time = time
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def get(self, name: str, default: float = 0.0, **labels) -> float:
        return self.values.get((name, labels_key(labels)), default)

    def delta_since(self, earlier: "ReferenceSnapshot") -> "ReferenceSnapshot":
        return ReferenceSnapshot(
            {key: value - earlier.values.get(key, 0.0)
             for key, value in self.values.items()},
            time=self.time,
        )

    def aggregate(self, name: str,
                  by: Sequence[str] = ()) -> Dict[Tuple[str, ...], float]:
        out: Dict[Tuple[str, ...], float] = {}
        for (sample_name, labels), value in self.values.items():
            if sample_name != name:
                continue
            table = dict(labels)
            group = tuple(table.get(k, "") for k in by)
            out[group] = out.get(group, 0.0) + value
        return out

    def total(self, name: str) -> float:
        return sum(self.aggregate(name).values())

    def names(self) -> List[str]:
        return sorted({name for name, _ in self.values})


class ReferenceRegistry:
    """The collector half of the old registry, beside a live one.

    Instruments are created through the live registry, so their samples
    are read off its instrument objects (first, as the old ``collect()``
    did); collectors are the old generators bound to the same objects.
    """

    def __init__(self, live):
        self.live = live
        self._collectors = []

    def register_collector(self, fn) -> None:
        self._collectors.append(fn)

    def collect(self) -> List[Sample]:
        out: List[Sample] = []
        for instrument in self.live._instruments.values():
            out.extend(instrument_samples(instrument))
        for collector in self._collectors:
            out.extend(collector())
        return out

    def snapshot(self, time: float = 0.0) -> ReferenceSnapshot:
        values: Dict[Tuple[str, LabelsKey], float] = {}
        for sample in self.collect():
            key = (sample.name, sample.labels)
            values[key] = values.get(key, 0.0) + sample.value
        return ReferenceSnapshot(values, time=time)


def shadow_bindings(monkeypatch):
    """Bind a :class:`ReferenceRegistry` beside every registry bound from now.

    Returns ``reference_of(registry)``.  ``bind_channel_pair`` needs no
    twin: it reaches the patched ``bind_channel_endpoint`` by itself.
    """
    shadows: Dict[int, ReferenceRegistry] = {}

    def reference_of(registry) -> ReferenceRegistry:
        shadow = shadows.get(id(registry))
        if shadow is None:
            shadow = shadows[id(registry)] = ReferenceRegistry(registry)
        return shadow

    def both(live_bind, reference_bind):
        def bind(registry, *args, **kwargs):
            live_bind(registry, *args, **kwargs)
            reference_bind(reference_of(registry), *args, **kwargs)
        return bind

    for name, reference_bind in list(globals().items()):
        if name.startswith("bind_"):
            monkeypatch.setattr(bindings, name,
                                both(getattr(bindings, name), reference_bind))
    return reference_of


# -- the collectors, as they were -------------------------------------------------


def _sample(name, value, **labels) -> Sample:
    return Sample(name, labels_key(labels), float(value))


def bind_sim(registry, sim) -> None:
    """Export the event kernel's own health gauges.

    ``sim_pending_events`` counts *live* (non-tombstoned) queue entries --
    a steady climb under constant load is the signature of a leaked timer
    (one re-armed without cancelling its predecessor).  Not bound by the pod by
    default: scraping it into reports would perturb the byte-identical
    seeded snapshots the replay suite pins.
    """

    def collect():
        yield _sample("sim_processed_events", sim.processed_events)
        yield _sample("sim_pending_events", sim.pending)
        yield _sample("sim_now_seconds", sim.now)

    registry.register_collector(collect)


def bind_scraper(registry, scraper) -> None:
    """Export the scraper's own buffering health.

    ``scraper_dropped`` counts snapshots evicted off the back of the ring
    (sampling itself never stops); ``report`` surfaces it so a window that
    silently rolled over is visible in the artifact built from it.
    """

    def collect():
        yield _sample("scraper_samples_taken", scraper.samples_taken)
        yield _sample("scraper_buffered", len(scraper))
        yield _sample("scraper_dropped", scraper.dropped)

    registry.register_collector(collect)


def bind_pool(registry, pool) -> None:
    """Export a :class:`CXLMemoryPool`'s per-host ``LinkStats``."""

    def collect():
        for host, stats in pool.link_stats.items():
            for category, nbytes in stats.read_bytes.items():
                yield _sample("cxl_link_bytes", nbytes, host=host,
                              direction="read", category=category)
            for category, nbytes in stats.write_bytes.items():
                yield _sample("cxl_link_bytes", nbytes, host=host,
                              direction="write", category=category)

    registry.register_collector(collect)


def bind_cache(registry, cache, host: str,
               domain: str = "cxl") -> None:
    """Export one :class:`HostCache`'s ``CacheStats`` plus its line count."""

    def collect():
        stats = cache.stats
        for op in CACHE_OP_FIELDS:
            yield _sample("cache_ops", getattr(stats, op), host=host,
                          domain=domain, op=op)
        yield _sample("cache_lines_resident", cache.cached_line_count,
                      host=host, domain=domain)

    registry.register_collector(collect)


def bind_channel_endpoint(registry, counters, channel: str,
                          role: str) -> None:
    """Export one ``ChannelCounters`` (sender or receiver side)."""

    def collect():
        for op in CHANNEL_OP_FIELDS:
            yield _sample("channel_ops", getattr(counters, op),
                          channel=channel, role=role, op=op)

    registry.register_collector(collect)


def bind_nic(registry, nic) -> None:
    host = nic.host.name

    def collect():
        name = nic.name
        yield _sample("nic_frames", nic.tx_frames, device=name, host=host,
                      direction="tx")
        yield _sample("nic_frames", nic.rx_frames, device=name, host=host,
                      direction="rx")
        yield _sample("nic_bytes", nic.tx_bytes, device=name, host=host,
                      direction="tx")
        yield _sample("nic_bytes", nic.rx_bytes, device=name, host=host,
                      direction="rx")
        yield _sample("nic_dropped_frames", nic.rx_dropped_no_buffer,
                      device=name, host=host, reason="no_buffer")
        yield _sample("nic_dropped_frames", nic.rx_dropped_down,
                      device=name, host=host, reason="link_down")
        yield _sample("nic_link_up", 1.0 if nic.link_up else 0.0,
                      device=name, host=host)
        yield _sample("device_aer_errors", nic.aer.total(), device=name,
                      host=host)
        yield _sample("nic_tx_completions", nic.tx_completions, device=name,
                      host=host)
        yield _sample("nic_dma_aborts", nic.dma_aborts, device=name,
                      host=host)

    registry.register_collector(collect)


def bind_ssd(registry, ssd) -> None:
    host = ssd.host.name

    def collect():
        name = ssd.name
        yield _sample("ssd_ops", ssd.reads, device=name, host=host, op="read")
        yield _sample("ssd_ops", ssd.writes, device=name, host=host, op="write")
        yield _sample("ssd_bytes", ssd.read_bytes, device=name, host=host,
                      op="read")
        yield _sample("ssd_bytes", ssd.write_bytes, device=name, host=host,
                      op="write")
        yield _sample("device_aer_errors", ssd.aer.total(), device=name,
                      host=host)
        yield _sample("ssd_completions", ssd.completions, device=name,
                      host=host)
        yield _sample("ssd_media_errors", ssd.media_errors, device=name,
                      host=host)

    registry.register_collector(collect)


def bind_switch(registry, switch) -> None:
    def collect():
        name = switch.name
        yield _sample("switch_frames", switch.forwarded_frames, switch=name,
                      event="forwarded")
        yield _sample("switch_frames", switch.flooded_frames, switch=name,
                      event="flooded")
        yield _sample("switch_frames", switch.fault_dropped, switch=name,
                      event="fault_dropped")
        yield _sample("switch_frames", switch.fault_duplicated, switch=name,
                      event="fault_duplicated")
        for port_id, port in switch.ports.items():
            yield _sample("switch_port_tx_frames", port.tx_frames,
                          switch=name, port=str(port_id))
            yield _sample("switch_port_tx_bytes", port.tx_bytes,
                          switch=name, port=str(port_id))
            yield _sample("switch_port_dropped_frames", port.dropped_frames,
                          switch=name, port=str(port_id))

    registry.register_collector(collect)


def bind_driver(registry, driver) -> None:
    """Export a busy-polling :class:`Driver`'s loop and datapath counters."""

    def collect():
        name = driver.name
        yield _sample("driver_busy_ns", driver.busy_ns, driver=name)
        yield _sample("driver_wakeups", driver.wakeups, driver=name)
        for op in _DRIVER_EXTRA_FIELDS:
            value = getattr(driver, op, None)
            if value is not None:
                yield _sample("driver_ops", value, driver=name, op=op)
        depth = getattr(driver, "queue_depth", None)
        if depth is not None:
            # Backends expose live device-queue occupancy (NIC TX ring +
            # overflow backlog, SSD submission queue); fleet health turns
            # this into queue saturation vs the configured depth.
            yield _sample("device_queue_depth", depth,
                          device=driver.device_name)

    registry.register_collector(collect)


def bind_tenant_client(registry, client) -> None:
    """Export the ``ok`` and ``slo_violation`` request counters of a tenant
    load generator (the rows the source binding declares).

    One ``tenant_requests`` family keyed by (tenant, result); fleet health
    turns the deltas into the per-tenant SLO-burn gauge.
    """

    def collect():
        tenant = client.tenant
        yield _sample("tenant_requests", client.stats.completed_ok,
                      tenant=tenant, result="ok")
        yield _sample("tenant_requests", client.slo_violations,
                      tenant=tenant, result="slo_violation")

    registry.register_collector(collect)


def bind_allocator(registry, allocator) -> None:
    def collect():
        yield _sample("allocator_events", allocator.failovers_executed,
                      event="failover")
        yield _sample("allocator_events", allocator.migrations_executed,
                      event="migration")
        yield _sample("allocator_telemetry_records",
                      allocator.telemetry_store.records_ingested)
        yield _sample("allocator_events", allocator.lease_expirations,
                      event="lease_expiry")
        yield _sample("allocator_events", allocator.duplicate_reports,
                      event="duplicate_report")
        yield _sample("allocator_events", allocator.failover_no_backup,
                      event="failover_no_backup")
        yield _sample("allocator_pending_commands",
                      allocator.pending_commands)
        yield _sample("fence_epoch_grants", allocator.epochs.grants)
        yield _sample("fence_epoch_revokes", allocator.epochs.revokes)
        yield _sample("notify_delivered", allocator.notify.delivered)
        yield _sample("notify_dropped", allocator.notify.dropped)
        for device in allocator.devices.values():
            yield _sample("allocator_device_allocated", device.allocated,
                          device=device.name, kind="nic")
            yield _sample("allocator_device_capacity", device.capacity,
                          device=device.name, kind="nic")
            yield _sample("allocator_device_failed",
                          1.0 if device.failed else 0.0,
                          device=device.name, kind="nic")
        for device in allocator.tables["ssd"].devices.values():
            yield _sample("allocator_device_allocated", device.allocated,
                          device=device.name, kind="ssd")
            yield _sample("allocator_device_capacity", device.capacity,
                          device=device.name, kind="ssd")
            yield _sample("allocator_device_failed",
                          1.0 if device.failed else 0.0,
                          device=device.name, kind="ssd")

    registry.register_collector(collect)


def bind_tracer(registry, tracer) -> None:
    """Export the tracer's recording health (recorded vs silently dropped)."""

    def collect():
        yield _sample("tracer_events_recorded", len(tracer.events))
        yield _sample("tracer_events_dropped", tracer.dropped)

    registry.register_collector(collect)


def bind_flows(registry, flows) -> None:
    """Export a :class:`~repro.obs.flow.FlowRegistry`'s bookkeeping."""

    def collect():
        yield _sample("flow_started", flows.started)
        yield _sample("flow_completed", flows.completed)
        yield _sample("flow_records_dropped", flows.dropped_records)
        yield _sample("flow_stash_evicted", flows.stash_evicted)
        yield _sample("flow_stash_open", len(flows._stash))

    registry.register_collector(collect)


def bind_injector(registry, injector) -> None:
    """Export a :class:`~repro.faults.injector.FaultInjector`'s event counts."""

    def collect():
        for kind, count in injector.injected.items():
            yield _sample("fault_injected", count, kind=kind)
        for kind, count in injector.recovered.items():
            yield _sample("fault_recovered", count, kind=kind)

    registry.register_collector(collect)


def bind_raft_node(registry, node) -> None:
    def collect():
        name = node.node_id
        yield _sample("raft_term", node.current_term, node=name)
        yield _sample("raft_commit_index", node.commit_index, node=name)
        yield _sample("raft_is_leader", 1.0 if node.state == "leader" else 0.0,
                      node=name)

    registry.register_collector(collect)
