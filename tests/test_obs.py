"""Tests for the unified observability layer (repro.obs).

Covers the registry's label aggregation and snapshot/delta semantics, the
sim-time scraper, the tracer's Chrome-trace export, and — crucially — that
binding the legacy ad-hoc counters into the registry is observation-only:
Table 3 and Figure 10/11 numbers are identical whether read from the legacy
objects or from the registry.
"""

import json
import sys
from array import array
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mem.cxl import CXLMemoryPool, LinkStats
from repro.obs import (
    MetricsRegistry,
    Sample,
    TelemetryScraper,
    Tracer,
    bindings,
    labels_key,
)
from repro.sim.core import MSEC, Simulator


def level(reg, name, **labels):
    """A settable series, bound the way the pod binds a level it reads off
    an object (a registry reader): set ``box[0]`` between scrapes."""
    box = [0.0]

    def declare(series):
        slot = series(name, **labels)

        def read(vector):
            vector[slot] += box[0]
        return read

    reg.register(declare)
    return box


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", host="h0", op="read")
        c.inc(3)
        level(reg, "depth", queue="q0")[0] = 7
        h = reg.histogram("lat_us", device="nic0")
        h.observe(4.0)
        h.observe(9.0)
        snap = reg.snapshot(time=1.5)
        assert snap.time == 1.5
        assert snap.get("ops", host="h0", op="read") == 3
        assert snap.get("depth", queue="q0") == 7
        assert snap.get("lat_us_count", device="nic0") == 2
        assert snap.get("lat_us_sum", device="nic0") == pytest.approx(13.0)
        assert h.observations == array("d", [4.0, 9.0])

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", host="h0")
        b = reg.counter("ops", host="h0")
        assert a is b
        assert reg.counter("ops", host="h1") is not a
        with pytest.raises(TypeError):
            reg.histogram("ops", host="h0")    # kind mismatch

    def test_label_aggregation(self):
        reg = MetricsRegistry()
        reg.counter("bytes", host="h0", direction="read").inc(10)
        reg.counter("bytes", host="h0", direction="write").inc(20)
        reg.counter("bytes", host="h1", direction="read").inc(5)
        snap = reg.snapshot()
        by_host = snap.aggregate("bytes", by=("host",))
        assert by_host == {("h0",): 30.0, ("h1",): 5.0}
        by_dir = snap.aggregate("bytes", by=("direction",))
        assert by_dir == {("read",): 15.0, ("write",): 20.0}
        assert snap.total("bytes") == 35.0

    def test_fn_backed_gauge_reads_live_value(self):
        """A level (a gauge) is a reader over live state, evaluated at each
        scrape: there is no separate gauge instrument to keep in sync."""
        reg = MetricsRegistry()
        live = level(reg, "live", node="n0")
        live[0] = 1.0
        assert reg.snapshot().get("live", node="n0") == 1.0
        live[0] = 42.0
        assert reg.snapshot().get("live", node="n0") == 42.0

    def test_snapshot_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", host="h0")
        c.inc(5)
        first = reg.snapshot(time=1.0)
        c.inc(7)
        reg.counter("ops", host="h1").inc(2)   # appears only in the second
        second = reg.snapshot(time=2.0)
        delta = second.delta_since(first)
        assert delta.get("ops", host="h0") == 7
        assert delta.get("ops", host="h1") == 2

    def test_counter_refuses_non_finite_amounts(self):
        reg = MetricsRegistry()
        c = reg.counter("ops")
        c.inc(2)
        for amount in (float("nan"), float("inf"), float("-inf"), -1):
            with pytest.raises(ValueError, match="ops"):
                c.inc(amount)
        assert c.value == 2.0 and reg.snapshot().get("ops") == 2.0

    def test_histogram_series_are_not_shared_with_other_instruments(self):
        reg = MetricsRegistry()
        reg.histogram("lat", host="h0").observe(3.0)
        for name in ("lat_count", "lat_sum"):
            with pytest.raises(TypeError, match=f"{name}.*histogram lat"):
                reg.counter(name, host="h0")
        reg.counter("lat_count", host="h1").inc(5)     # other labels: apart
        reg.counter("rtt_sum").inc(4)
        with pytest.raises(TypeError, match="histogram rtt.*counter rtt_sum"):
            reg.histogram("rtt")
        snap = reg.snapshot()
        assert snap.get("lat_count", host="h0") == 1.0
        assert snap.get("lat_count", host="h1") == 5.0
        assert snap.get("rtt_sum") == 4.0 and snap.get("rtt_count", -1) == -1

    def test_labels_key_is_canonical(self):
        assert labels_key({"b": 1, "a": 2}) == labels_key({"a": 2, "b": 1})
        s = Sample("x", labels_key({"host": "h0", "op": "r"}), 1.0)
        assert dict(s.labels) == {"host": "h0", "op": "r"}


class TestSeriesTable:
    """Identity is interned once; a scrape only moves numbers."""

    def test_later_series_read_absent_in_earlier_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("ops", host="h0").inc(5)
        first = reg.snapshot(time=1.0)
        late = reg.counter("ops", host="h1")
        late.inc(2)
        second = reg.snapshot(time=2.0)
        assert (len(first), len(second)) == (1, 2)
        assert first.get("ops", -1.0, host="h1") == -1.0
        assert first.aggregate("ops", by=("host",)) == {("h0",): 5.0}
        assert second.delta_since(first).values == {
            ("ops", (("host", "h0"),)): 0.0, ("ops", (("host", "h1"),)): 2.0}
        assert first.delta_since(second).values == {
            ("ops", (("host", "h0"),)): 0.0}
        assert second.names() == ["ops"] and second.total("ops") == 7.0

    def test_delta_across_two_registries_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(5)
        b.counter("y").inc(2)
        sa, sb = a.snapshot(), b.snapshot()
        with pytest.raises(ValueError, match="one registry"):
            sa.delta_since(sb)
        assert sa.delta_since(a.snapshot()).values == {("x", ()): 0.0}

    def test_rack_table_stores_what_differs_between_series(self):
        """Pooled label pairs, one getter per reader shape, idle series on
        the vector's shared zero: <= 400 traced bytes per series on the
        first scrape of an 8-host rack (618 when each series held its own
        pairs and getters)."""
        from repro.core.pod import RackBuilder
        from repro.obs.bindings import _Rows

        pod = RackBuilder(hosts=8, pools=2, nics_per_host=2,
                          ssds_per_host=1).build()
        reg = pod.metrics
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            snap = reg.snapshot()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff
                    for stat in after.compare_to(before, "filename"))
        assert len(snap) > 2_500
        assert grown / len(snap) <= 400
        table = reg.table
        pairs = [pair for _, labels in table.keys for pair in labels]
        assert len({id(pair) for pair in pairs}) == len(set(pairs))
        assert all(table.pairs[pair] is pair for pair in pairs)
        rows = [read for read in reg._readers if isinstance(read, _Rows)]
        endpoints = [read for read in rows if read.slots
                     and table.keys[read.slots[0]][0] == "channel_ops"]
        assert len(endpoints) > 100
        assert len({id(read.get) for read in endpoints}) == 1
        idle = [slot for read in rows
                for slot in read.slots + tuple(slot for slot, _ in read.calls)
                if snap.vector[slot] == 0]
        assert len(idle) > len(snap) // 2
        assert len({id(snap.vector[slot]) for slot in idle}) == 1

    def test_row_reader_still_refuses_none(self):
        """Zeros are skipped by ``!= 0``, not truthiness: ``None`` raises."""
        source = type("Source", (), {"idle": 0, "busy": 3, "broken": None})()
        reg = MetricsRegistry()
        bindings._bind(bindings._reader)(reg, source, (
            ("idle", {}, "idle"), ("busy", {}, "busy")))
        snap = reg.snapshot()
        assert (snap.get("idle"), snap.get("busy")) == (0.0, 3.0)
        bindings._bind(bindings._reader)(reg, source, (
            ("broken", {}, "broken"), ("busy", {}, "busy")))
        with pytest.raises(TypeError):
            reg.snapshot()

    def test_series_written_by_two_readers_sum(self):
        reg = MetricsRegistry()
        for amount in (3, 4):
            def declare(series, amount=amount):
                slot = series("bytes", host="h0")

                def read(vector):
                    vector[slot] += amount
                return read
            reg.register(declare)
        assert reg.snapshot().get("bytes", host="h0") == 7.0
        assert reg.value("bytes", host="h0") == 7.0

    def test_readers_are_declared_at_the_first_scrape(self):
        reg = MetricsRegistry()
        pool = CXLMemoryPool(size=1 << 20)
        bindings.bind_pool(reg, pool)
        assert len(reg.table.keys) == 0       # nothing interned by binding
        pool.dma_write(0, b"x" * 64, host="h0", category="payload")
        assert len(reg.snapshot()) == 1
        pool.dma_write(0, b"x" * 64, host="h0", category="message")
        assert len(reg.snapshot()) == 2       # a family member, on sight

    def test_value_reads_only_the_owning_readers(self):
        """One number must not cost a whole snapshot (counted, not timed)."""
        from repro.experiments.common import build_echo_pod

        pod, _, _, _ = build_echo_pod("oasis", remote=True)
        reg = pod.metrics
        hist = reg.histogram("echo_rtt_us", client="c0")
        hist.observe(9.0)
        reg.snapshot()                         # declare everything
        calls = []
        reg._readers[:] = [
            (lambda vector, read=read: (calls.append(read), read(vector))[1])
            for read in reg._readers]
        assert reg.value("echo_rtt_us_count", client="c0") == 1.0
        assert len(calls) == 1
        del calls[:]
        nic = next(iter(pod.nics))
        frames = reg.value("nic_frames", device=nic, direction="tx")
        assert len(calls) == len(pod.nics) < len(reg._readers)
        assert frames == reg.snapshot().get("nic_frames", device=nic,
                                            direction="tx")
        del calls[:]
        assert reg.value("no_such_metric", default=-1.0) == -1.0
        assert calls == []
        # A family whose members appear at run time is owned by its reader
        # before it has any member.
        assert reg.value("fault_injected", default=-1.0) == -1.0
        assert "cxl_link_bytes" in reg._producers


class TestLinkStatsBinding:
    """The registry view of LinkStats must equal the legacy API exactly."""

    def _pool_with_traffic(self):
        pool = CXLMemoryPool(size=1 << 20)
        pool.dma_write(0, b"x" * 128, host="h0", category="payload")
        pool.dma_read(0, 64, host="h0", category="message")
        pool.dma_write(4096, b"y" * 64, host="h1", category="counter")
        return pool

    def test_snapshot_matches_by_category(self):
        pool = self._pool_with_traffic()
        reg = MetricsRegistry()
        bindings.bind_pool(reg, pool)
        snap = reg.snapshot()
        merged = {}
        for stats in pool.link_stats.values():
            for cat, n in stats.by_category().items():
                merged[cat] = merged.get(cat, 0) + n
        assert {cat: v for (cat,), v
                in snap.aggregate("cxl_link_bytes", by=("category",)).items()
                } == merged
        assert snap.total("cxl_link_bytes") == sum(
            stats.total() for stats in pool.link_stats.values())

    def test_delta_matches_legacy_delta_since(self):
        pool = self._pool_with_traffic()
        reg = MetricsRegistry()
        bindings.bind_pool(reg, pool)
        legacy_before = dict(pool.stats_for("h0").write_bytes)
        snap_before = reg.snapshot()
        pool.dma_write(0, b"z" * 256, host="h0", category="payload")
        legacy_delta = (pool.stats_for("h0").write_bytes["payload"]
                        - legacy_before.get("payload", 0))
        reg_delta = reg.snapshot().delta_since(snap_before)
        assert reg_delta.get("cxl_link_bytes", host="h0", direction="write",
                             category="payload") == legacy_delta


class TestScraper:
    def test_periodic_sampling_under_run(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("ticks")
        sim.every(10 * MSEC, c.inc)
        scraper = TelemetryScraper(sim, reg, period_s=25 * MSEC)
        scraper.start()
        sim.run(until=190 * MSEC)
        assert len(scraper) == 7                    # samples at 25..175 ms
        times, values = scraper.series("ticks")
        assert times == pytest.approx([25 * MSEC * i for i in range(1, 8)])
        # At t=25ms two 10ms ticks fired, at t=175ms seventeen did.
        assert values[0] == 2.0
        assert values[-1] == 17.0

    def test_rates(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        sim.every(10 * MSEC, c.inc, 1000)
        scraper = TelemetryScraper(sim, reg, period_s=100 * MSEC)
        scraper.start()
        sim.run(until=500 * MSEC)
        times, rates = scraper.rates("bytes")
        # 1000 bytes per 10 ms = 100 kB/s, steady state.
        assert rates[-1] == pytest.approx(1e5)

    def test_stop_and_bounded_buffer(self):
        sim = Simulator()
        reg = MetricsRegistry()
        scraper = TelemetryScraper(sim, reg, period_s=MSEC, max_snapshots=5)
        scraper.start()
        sim.run(until=20 * MSEC)
        assert len(scraper) == 5
        assert scraper.dropped > 0
        scraper.stop()
        taken = scraper.samples_taken
        sim.run(until=40 * MSEC)
        assert scraper.samples_taken == taken

    def test_sample_now_respects_buffer_bound(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.counter("ops").inc()
        scraper = TelemetryScraper(sim, reg, period_s=MSEC, max_snapshots=3)
        for _ in range(10):
            snapshot = scraper.sample_now()
        assert len(scraper) == 3
        # Out-of-band sampling still returns a live snapshot past the cap.
        assert snapshot.get("ops") == 1.0

    def test_ring_eviction_keeps_newest(self):
        sim = Simulator()
        reg = MetricsRegistry()
        scraper = TelemetryScraper(sim, reg, period_s=MSEC, max_snapshots=4)
        scraper.start()
        sim.run(until=20 * MSEC)
        # Oldest snapshots were evicted: the ring holds the last 4 samples
        # (at 16..19 ms) in order, and the drop counter accounts for the rest.
        times = [s.time for s in scraper.snapshots]
        assert times == pytest.approx([t * MSEC for t in (16, 17, 18, 19)])
        assert scraper.dropped == scraper.samples_taken - 4

    def test_rates_across_eviction(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        sim.every(MSEC, c.inc, 100)
        scraper = TelemetryScraper(sim, reg, period_s=10 * MSEC,
                                   max_snapshots=3)
        scraper.start()
        sim.run(until=200 * MSEC)
        times, rates = scraper.rates("bytes")
        # Differencing spans only the retained window but stays correct:
        # 100 bytes/ms steady state.
        assert len(rates) == 2
        assert rates == pytest.approx([1e5, 1e5])

    def test_subscribers_see_every_sample(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("ticks")
        sim.every(MSEC, c.inc)
        scraper = TelemetryScraper(sim, reg, period_s=MSEC, max_snapshots=2)
        seen = []
        scraper.subscribe(lambda snap: seen.append(snap.time))
        scraper.start()
        sim.run(until=10 * MSEC)
        # The streaming consumer observed all samples, including the ones
        # the bounded ring has already evicted.
        assert len(seen) == scraper.samples_taken
        assert len(seen) > len(scraper)
        assert seen == sorted(seen)

    def test_asking_a_running_scraper_for_another_period_raises(self):
        from repro.experiments.common import build_echo_pod

        pod, _, _, _ = build_echo_pod("oasis", remote=True)
        pod.start_telemetry(0.1)
        assert pod.start_telemetry(0.1) is pod.scraper      # same: idempotent
        assert pod.start_telemetry() is pod.scraper
        with pytest.raises(ConfigError, match=r"0\.1 s.*0\.002 s"):
            pod.enable_fleet_telemetry(period_s=0.002)
        assert pod.fleet is None and pod.scraper.period_s == 0.1
        pod.scraper.stop()
        fleet = pod.enable_fleet_telemetry(period_s=0.002)
        pod.run(0.3)
        assert fleet.ticks >= 149               # not 2: alerts run on 2 ms

    def test_ring_holds_one_packed_vector_per_scrape(self):
        """<= 16 B x series + a constant per retained scrape."""
        from repro.experiments.common import build_echo_pod

        pod, _, _, _ = build_echo_pod("oasis", remote=True)
        scraper = pod.scraper
        scraper.sample_now()
        series = len(scraper.snapshots[-1])
        assert series > 150
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(200):
                scraper.sample_now()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff
                    for stat in after.compare_to(before, "filename"))
        assert grown / 200 <= 16 * series + 512
        assert len(scraper) == 201 and scraper.dropped == 0
        assert scraper.snapshots[-1].get("scraper_buffered") == 200
        times, values = scraper.series("scraper_buffered")
        assert values == [float(i) for i in range(201)]

    def test_scraper_self_telemetry_binding(self):
        from repro.obs import bindings

        sim = Simulator()
        reg = MetricsRegistry()
        scraper = TelemetryScraper(sim, reg, period_s=MSEC, max_snapshots=3)
        bindings.bind_scraper(reg, scraper)
        scraper.start()
        sim.run(until=10 * MSEC)
        snap = reg.snapshot(time=sim.now)
        assert snap.get("scraper_samples_taken") == scraper.samples_taken
        assert snap.get("scraper_buffered") == 3
        assert snap.get("scraper_dropped") == scraper.dropped > 0


class TestHistogramPercentiles:
    def _hist(self):
        from repro.obs.metrics import Histogram, labels_key

        return Histogram("lat_us", labels_key({}), help="test",
                         buckets=(1.0, 10.0, float("inf")))

    def test_empty_is_nan(self):
        from repro.analysis.stats import percentile

        hist = self._hist()
        for q in (0.0, 50.0, 99.9):
            assert np.isnan(percentile(hist.observations, q))

    def test_single_sample_is_that_sample(self):
        from repro.analysis.stats import percentile

        hist = self._hist()
        hist.observe(4.2)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile(hist.observations, q) == pytest.approx(4.2)

    def test_all_equal_samples_collapse(self):
        from repro.analysis.stats import percentile

        hist = self._hist()
        for _ in range(100):
            hist.observe(7.0)
        for q in (50.0, 99.0, 99.9):
            assert percentile(hist.observations, q) == pytest.approx(7.0)
        assert hist.count == 100
        assert hist.mean == pytest.approx(7.0)


    def test_nan_is_rejected_before_it_poisons_the_sum(self):
        hist = self._hist()
        hist.observe(2.0)
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(float("nan"))
        assert (hist.count, hist.sum, hist.observations) == (
            1, 2.0, array("d", [2.0]))
        assert sum(hist.bucket_counts) == hist.count

    def test_bucket_edges(self):
        """``value == bound`` lands in that bound's bucket, +Inf in the last,
        as the linear scan ``value <= bound`` did."""
        hist = self._hist()                     # bounds 1, 10, +Inf
        for value in (-5.0, 1.0, 1.0000001, 10.0, 10.5, float("inf"),
                      float("-inf")):
            hist.observe(value)
        assert hist.bucket_counts == [3, 2, 2]
        reg = MetricsRegistry()
        registered = reg.histogram("lat_us", buckets=(1.0, 10.0))
        for value in hist.observations:
            registered.observe(value)
        snap = reg.snapshot()
        assert [snap.get("lat_us_bucket", le=le) for le in ("1", "10", "+Inf")
                ] == [3.0, 5.0, 7.0]
        assert snap.get("lat_us_count") == snap.get("lat_us_bucket", le="+Inf")


class TestScrapeCost:
    """Count-based guard: a tick moves numbers, it never rebuilds identity.

    Deterministic on any box (Python-level call counts under
    ``sys.setprofile``, no wall clock).  The parent's dict-of-label-tuples
    snapshot cost ~2,500 calls inside ``repro/obs`` per scrape+ingest tick
    of this pod; the series table costs 188, and keeping statistics only
    for the three dashboard families (the other gauges hold a level) 99.
    """

    CALLS_PER_TICK_CEILING = 124          # measured 99, +25 %

    def test_tick_makes_no_label_keys_no_samples_and_few_calls(
            self, monkeypatch):
        import repro.obs
        from repro.obs import metrics

        from .test_replay import _serve_mix_pod

        pod, _run = _serve_mix_pod(5)
        for client in pod._load_sources:
            client.start(1.0)
        pod.run(0.1)                           # warm: every series interned
        pod.scraper.stop()
        series = len(pod.scraper.snapshots[-1])
        assert series >= 260

        samples = []
        init = metrics.Sample.__init__
        monkeypatch.setattr(metrics.Sample, "__init__", lambda self, *a: (
            samples.append(a), init(self, *a))[1])
        obs_dir = repro.obs.__path__[0]
        counts = {"obs": 0, "labels_key": 0}

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                counts["obs"] += code.co_filename.startswith(obs_dir)
                counts["labels_key"] += code is metrics.labels_key.__code__

        for _ in range(50):
            pod.run(0.002)
            sys.setprofile(profile)
            try:
                pod.scraper._sample()
            finally:
                sys.setprofile(None)
        pod.stop()
        assert pod.fleet.ticks >= 99 and len(pod.scraper.snapshots[-1]) == series
        assert counts["labels_key"] == 0
        assert samples == []
        assert 0 < counts["obs"] / 50 <= self.CALLS_PER_TICK_CEILING


class TestTracer:
    def test_span_and_instant_recording(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.schedule(MSEC, lambda: tracer.instant("tick", category="test"))
        sim.schedule(2 * MSEC, lambda: tracer.begin("work", category="test"))
        sim.schedule(5 * MSEC, lambda: tracer.end("work"))
        sim.run_all()
        (inst,) = [e for e in tracer.events if e.kind == "instant"]
        assert inst.ts == pytest.approx(MSEC)
        (span,) = tracer.spans(category="test")
        assert span.dur == pytest.approx(3 * MSEC)

    def test_category_filter(self):
        sim = Simulator()
        tracer = Tracer(sim, categories={"keep"})
        tracer.instant("a", category="keep")
        tracer.instant("b", category="drop")
        tracer.begin("c", category="drop")
        tracer.end("c")
        assert [e.name for e in tracer.events] == ["a"]

    def test_disabled_tracer_records_nothing(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        tracer.instant("a")
        tracer.span("b", 0.0, 1.0)
        assert tracer.events == []

    def test_chrome_trace_schema(self, tmp_path):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.span("dma", 0.001, 0.0005, category="dma", track="nic0",
                    bytes=512)
        tracer.instant("doorbell", category="channel", track="chan0")
        path = tmp_path / "trace.json"
        count = tracer.export_chrome(str(path))
        records = json.loads(path.read_text())
        assert len(records) == count
        # Metadata: one process_name + one thread_name per track.
        meta = [r for r in records if r["ph"] == "M"]
        assert {r["args"]["name"] for r in meta} == {"oasis-sim", "nic0",
                                                     "chan0"}
        (span,) = [r for r in records if r["ph"] == "X"]
        assert span["ts"] == pytest.approx(1000.0)      # us
        assert span["dur"] == pytest.approx(500.0)
        assert span["args"]["bytes"] == 512
        (inst,) = [r for r in records if r["ph"] == "i"]
        assert inst["s"] == "t"
        for record in records:
            assert {"name", "ph", "pid", "tid"} <= set(record)

    def test_unmatched_end_is_ignored(self):
        tracer = Tracer(Simulator())
        assert tracer.end("never-begun") is None
        assert tracer.events == []


class TestPodIntegration:
    def _echo_pod(self, **client_kwargs):
        from repro.experiments.common import SERVER_IP, build_echo_pod
        from repro.workloads.echo import EchoClient

        pod, inst, client_ep, nic0 = build_echo_pod("oasis", remote=True)
        client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=256,
                            rate_pps=5000.0, metrics=pod.metrics,
                            **client_kwargs)
        return pod, client

    def test_registry_matches_legacy_cxl_traffic(self):
        pod, client = self._echo_pod()
        client.start(0.1)
        pod.run(0.12)
        pod.stop()
        snap = pod.metrics.snapshot(time=pod.sim.now)
        legacy = pod.cxl_traffic_by_category()
        registry = {cat: v for (cat,), v
                    in snap.aggregate("cxl_link_bytes",
                                      by=("category",)).items()}
        assert registry == legacy          # identical, not approximately
        assert legacy                      # and the run did produce traffic

    def test_histogram_observations_equal_legacy_latencies(self):
        pod, client = self._echo_pod()
        client.start(0.1)
        pod.run(0.12)
        pod.stop()
        assert client.stats.latencies_us   # sanity: traffic flowed
        assert client.rtt_hist.observations == client.stats.latencies_us
        assert client.rtt_hist.count == client.stats.received

    def test_scraper_runs_inside_pod(self):
        pod, client = self._echo_pod()
        pod.start_telemetry(period_s=0.02)
        client.start(0.1)
        pod.run(0.12)
        pod.stop()
        assert len(pod.scraper) == 5   # 0.02..0.10 s (until exclusive)
        times, values = pod.scraper.series("cxl_link_bytes")
        assert values[-1] == sum(pod.cxl_traffic_by_category().values())
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_failover_trace_phases_sum_to_interruption(self, tmp_path):
        from repro.experiments import fig13

        path = tmp_path / "failover.json"
        res = fig13.run(duration_s=1.2, rate_pps=3000.0, fail_at_s=0.602,
                        trace_path=str(path))
        assert res["failovers"] == 1
        phases = res["failover_phases_ms"]
        assert set(phases) == {"detect", "report", "process", "reroute"}
        # The traced phases decompose the measured interruption (§3.3.3);
        # the tail of the gap (one client send interval, queue drain) is not
        # a failover phase, hence the ~1 ms tolerance.
        assert res["failover_phase_sum_ms"] == pytest.approx(
            res["interruption_ms"], abs=1.5)
        assert 20.0 <= res["failover_phase_sum_ms"] <= 60.0
        records = json.loads(path.read_text())
        spans = [r for r in records if r.get("ph") == "X"]
        assert len(spans) == 4
        assert sum(s["dur"] for s in spans) / 1e3 == pytest.approx(
            res["failover_phase_sum_ms"])
