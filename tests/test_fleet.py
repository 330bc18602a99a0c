"""Tests for the streaming fleet-health pipeline (repro.obs.fleet).

Covers the fixed-memory primitives (EWMA, P-square sketch, HealthSeries),
the live stranding gauge's exact agreement with the offline Figure 2
integral, the AlertEngine state machine (for-duration gating, hysteresis,
clears, determinism), the FleetHealth ingest path over real registry
snapshots, the FleetHealth query methods, the cut to what something reads
(statistics only for the dashboard families), and the ``python -m repro
top`` CLI.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.fleet import (
    DEFAULT_ALERT_RULES,
    AlertEngine,
    AlertRule,
    Ewma,
    FleetHealth,
    HealthSeries,
    P2Quantile,
    StrandingGauge,
)
from repro.sim.core import Simulator
from repro.workloads.allocation import RESOURCES, generate_allocation_trace
from repro.workloads.stranding import (UsageTimeline, pooled_stranding,
                                       schedule_trace)

from .test_obs import level


def devices_needed(gauge, device_unit):
    """Whole devices covering a stranding gauge's loaded peak (>= 1): the
    device count Figure 2's offline pipeline provisions."""
    peak = gauge.peak_used if gauge.loaded_s > 0 else gauge.peak_any
    return max(1, int(math.ceil(peak / device_unit - 1e-9)))


def live_stranding(trace, n_hosts, resource, device_unit,
                   load_threshold=0.6):
    """Replay a trace's pod-wide usage timeline through the live
    :class:`StrandingGauge`, one update per timeline event -- exactly how
    ``FleetHealth`` feeds it from scraper ticks: once to find the loaded
    peak, then provisioned at the whole-device count covering it (Figure
    2's minimum provisioning).  Returns ``(devices, stranded_fraction)``."""
    timeline = UsageTimeline.build(trace, n_hosts)
    mask = timeline.loaded_mask(trace.host_capacity, load_threshold)
    pod_usage = timeline.usage[:, :, RESOURCES.index(resource)].sum(axis=1)
    probe, gauge = StrandingGauge(), StrandingGauge()
    for t, used, loaded in zip(timeline.times, pod_usage, mask):
        probe.update(float(t), float(used), 0.0, bool(loaded))
    devices = devices_needed(probe, device_unit)
    for t, used, loaded in zip(timeline.times, pod_usage, mask):
        gauge.update(float(t), float(used), devices * device_unit,
                     bool(loaded))
    return devices, gauge.stranded_fraction




class TestEwma:
    def test_first_sample_initialises(self):
        ewma = Ewma(tau_s=0.1)
        assert ewma.update(0.0, 5.0) == 5.0

    def test_converges_to_constant(self):
        ewma = Ewma(tau_s=0.05)
        for i in range(200):
            value = ewma.update(i * 0.01, 3.0)
        assert value == pytest.approx(3.0)

    def test_time_constant_is_dt_aware(self):
        # One big step after tau seconds moves ~63% of the way; the same
        # total time split into many small steps lands in the same place.
        one = Ewma(tau_s=0.1)
        one.update(0.0, 0.0)
        one.update(0.1, 1.0)
        many = Ewma(tau_s=0.1)
        many.update(0.0, 0.0)
        for i in range(1, 11):
            many.update(i * 0.01, 1.0)
        assert one.value == pytest.approx(1 - math.exp(-1))
        assert many.value == pytest.approx(one.value, abs=1e-9)


class TestP2Quantile:
    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(1.5)

    def test_small_sample_exact(self):
        sketch = P2Quantile(0.5)
        for x in (9.0, 1.0, 5.0):
            sketch.observe(x)
        assert sketch.value == pytest.approx(5.0)

    def test_tracks_known_distribution(self):
        rng = np.random.default_rng(7)
        data = rng.normal(100.0, 15.0, 20_000)
        p50 = P2Quantile(0.5)
        p99 = P2Quantile(0.99)
        for x in data:
            p50.observe(float(x))
            p99.observe(float(x))
        assert p50.value == pytest.approx(np.percentile(data, 50), rel=0.02)
        assert p99.value == pytest.approx(np.percentile(data, 99), rel=0.05)

    def test_fixed_memory(self):
        sketch = P2Quantile(0.99)
        for i in range(10_000):
            sketch.observe(float(i % 97))
        assert len(sketch._heights) == 5
        assert sketch.count == 10_000


class TestHealthSeries:
    def test_levels(self):
        series = HealthSeries()
        series.observe(0.0, 0.2)
        series.observe(0.1, 0.8)
        series.observe(0.2, 0.4)
        assert series.last == 0.4
        assert series.peak == 0.8
        assert series.count == 3
        assert 0.2 <= series.as_dict()["p50"] <= 0.8

    def test_counter_differencing(self):
        """The pipeline differences a cumulative counter into a per-second
        rate series; the first scrape only primes it."""
        reg = MetricsRegistry()
        expiries = reg.counter("allocator_events", event="lease_expiry")
        fleet = FleetHealth(nic_bytes_per_sec=1e9, ssd_bytes_per_sec=1e9,
                            link_bytes_per_sec=1e9)
        fleet.ingest(reg.snapshot(time=0.0))
        assert fleet.levels == {}           # the first scrape only primes
        expiries.inc(50)                    # 50/s
        fleet.ingest(reg.snapshot(time=1.0))
        rate = fleet.levels["lease_expiry_rate"]
        assert rate["pod"] == pytest.approx(50.0)
        expiries.inc(100)                   # 100/s
        fleet.ingest(reg.snapshot(time=2.0))
        assert rate["pod"] == pytest.approx(100.0)
        fleet.ingest(reg.snapshot(time=3.0))
        assert rate["pod"] == 0.0           # a zero delta is a level too

    def test_as_dict_shape(self):
        series = HealthSeries()
        series.observe(0.0, 1.0)
        doc = series.as_dict()
        assert set(doc) == {"last", "ewma", "p50", "p99", "peak", "samples"}


class TestStrandingGauge:
    def test_duration_weighted_average(self):
        gauge = StrandingGauge()
        # usage 10 over [0,1), 30 over [1,3), provisioned 40 throughout.
        gauge.update(0.0, 10.0, 40.0)
        gauge.update(1.0, 30.0, 40.0)
        gauge.update(3.0, 0.0, 40.0)
        avg_used = (10.0 * 1 + 30.0 * 2) / 3
        assert gauge.stranded_fraction == pytest.approx(1 - avg_used / 40.0)
        assert gauge.stranded_now == pytest.approx(1.0)

    def test_loaded_mask_gates_integral(self):
        gauge = StrandingGauge()
        gauge.update(0.0, 10.0, 40.0, loaded=False)   # ignored interval
        gauge.update(1.0, 30.0, 40.0, loaded=True)
        gauge.update(2.0, 30.0, 40.0, loaded=True)
        assert gauge.loaded_s == pytest.approx(1.0)
        assert gauge.stranded_fraction == pytest.approx(1 - 30.0 / 40.0)

    def test_devices_needed_is_ceil_of_loaded_peak(self):
        gauge = StrandingGauge()
        gauge.update(0.0, 250.0, 300.0, loaded=True)
        gauge.update(1.0, 420.0, 500.0, loaded=False)  # unloaded spike
        gauge.update(2.0, 100.0, 300.0, loaded=True)
        assert gauge.peak_used == 250.0
        assert gauge.peak_any == 420.0
        assert devices_needed(gauge, 100.0) == 3
        # Exact multiples don't round up past the peak.
        exact = StrandingGauge()
        exact.update(0.0, 200.0, 200.0)
        exact.update(1.0, 0.0, 200.0)
        assert devices_needed(exact, 100.0) == 2

    def test_empty_gauge_is_benign(self):
        gauge = StrandingGauge()
        assert gauge.stranded_fraction == 0.0
        assert devices_needed(gauge, 100.0) == 1


class TestAlertEngine:
    RULE = AlertRule("hot", "device_util", 0.8, for_s=0.1, clear_below=0.7)

    def _tick(self, engine, t, value, entity="nic0"):
        engine.evaluate(t, {"device_util": {entity: value}})

    def test_for_duration_gates_short_spikes(self):
        engine = AlertEngine((self.RULE,))
        self._tick(engine, 0.00, 0.95)
        self._tick(engine, 0.05, 0.95)   # held only 50 ms
        self._tick(engine, 0.10, 0.30)   # back down before for_s
        self._tick(engine, 0.15, 0.95)   # new breach starts fresh
        self._tick(engine, 0.20, 0.95)
        assert engine.fired == 0
        assert not engine.active

    def test_fires_after_sustained_breach(self):
        engine = AlertEngine((self.RULE,))
        for i in range(4):
            self._tick(engine, i * 0.04, 0.9)
        assert engine.fired == 1
        assert [e.kind for e in engine.log] == ["fire"]
        assert ("hot", "nic0") in engine.active

    def test_hysteresis_no_flap_at_threshold(self):
        engine = AlertEngine((self.RULE,))
        for i in range(4):
            self._tick(engine, i * 0.04, 0.9)
        assert engine.fired == 1
        # Hover in the [clear_below, threshold) band: stays firing, no new
        # events in either direction.
        for i in range(4, 10):
            self._tick(engine, i * 0.04, 0.75 if i % 2 else 0.79)
        assert engine.fired == 1
        assert engine.cleared == 0
        assert ("hot", "nic0") in engine.active

    def test_clear_event_below_hysteresis(self):
        engine = AlertEngine((self.RULE,))
        for i in range(4):
            self._tick(engine, i * 0.04, 0.9)
        self._tick(engine, 0.20, 0.65)
        assert [e.kind for e in engine.log] == ["fire", "clear"]
        assert engine.cleared == 1
        assert not engine.active
        # A fresh sustained breach re-fires.
        for i in range(6, 10):
            self._tick(engine, i * 0.04, 0.9)
        assert engine.fired == 2

    def test_entities_evaluated_deterministically(self):
        """The engine reads each family's table as stored; ``FleetHealth``
        stores it in entity order (``TestFleetIngest::
        test_level_tables_stay_in_entity_order``)."""
        def run(table):
            engine = AlertEngine((self.RULE,))
            for i in range(5):
                engine.evaluate(i * 0.04, {"device_util": dict(table)})
            return [e.as_json() for e in engine.log]

        log = run({"nic-a": 0.9, "nic-b": 0.9})
        assert log == run({"nic-a": 0.9, "nic-b": 0.9})
        assert [e[2] for e in log] == ["nic-a", "nic-b"]

    def test_counters_and_tracer_instants(self):
        """The engine counts and logs its transitions; the tracer marks
        them."""
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        engine = AlertEngine((self.RULE,), tracer=tracer)
        for i in range(4):
            self._tick(engine, i * 0.04, 0.9)
        self._tick(engine, 0.2, 0.1)
        assert (engine.fired, engine.cleared) == (1, 1)
        assert [(e.rule, e.kind) for e in engine.log] == [("hot", "fire"),
                                                          ("hot", "clear")]
        instants = [e for e in tracer.events if e.category == "alert"]
        assert [e.name for e in instants] == ["alert.fire:hot",
                                              "alert.clear:hot"]

    def test_log_is_bounded(self):
        rule = AlertRule("hot", "device_util", 0.5, for_s=0.0)
        engine = AlertEngine((rule,), max_events=4)
        for i in range(8):
            # Alternate breach/clear so every tick emits an event.
            self._tick(engine, i * 0.01, 0.9 if i % 2 == 0 else 0.1)
        assert len(engine.log) == 4
        assert engine.dropped == 4

    def test_default_ruleset_families_exist(self):
        families = {rule.family for rule in DEFAULT_ALERT_RULES}
        assert {"device_util", "link_saturation", "queue_saturation",
                "lease_expiry_rate", "tenant_slo_burn"} <= families
        for rule in DEFAULT_ALERT_RULES:
            assert rule.clear_threshold <= rule.threshold


class TestFleetIngest:
    def _fleet(self, **kw):
        defaults = dict(nic_bytes_per_sec=1e9, ssd_bytes_per_sec=2e9,
                        link_bytes_per_sec=4e9, nic_queue_depth=1024,
                        ssd_queue_depth=64)
        defaults.update(kw)
        return FleetHealth(**defaults)

    def test_device_and_link_utilization_from_deltas(self):
        reg = MetricsRegistry()
        tx = reg.counter("nic_bytes", device="nic0", host="h0", direction="tx")
        rx = reg.counter("nic_bytes", device="nic0", host="h0", direction="rx")
        ssd = reg.counter("ssd_bytes", device="ssd0", host="h1", op="read")
        link = reg.counter("cxl_link_bytes", host="h0", direction="read",
                           category="payload")
        fleet = self._fleet()
        fleet.ingest(reg.snapshot(time=0.0))
        tx.inc(5e8)           # 0.5 of 1 GB/s over 1 s
        rx.inc(1e8)           # the quieter direction loses the max()
        ssd.inc(1e9)          # 0.5 of 2 GB/s
        link.inc(2e9)         # 0.5 of 4 GB/s
        fleet.ingest(reg.snapshot(time=1.0))
        assert fleet.levels["device_util"]["nic0"] == pytest.approx(0.5)
        assert fleet.levels["device_util"]["ssd0"] == pytest.approx(0.5)
        assert fleet.levels["link_saturation"]["h0"] == pytest.approx(0.5)
        assert fleet.series[("device_util", "nic0")].last == \
            fleet.levels["device_util"]["nic0"]
        assert fleet.device_kind == {"nic0": "nic", "ssd0": "ssd"}
        assert fleet.device_host == {"nic0": "h0", "ssd0": "h1"}
        # No raw snapshot retention: only the previous snapshot is held.
        assert fleet._prev is not None
        assert fleet.ticks == 2

    def test_queue_saturation_uses_per_kind_depth(self):
        reg = MetricsRegistry()
        nic_b = reg.counter("nic_bytes", device="nic0", host="h0",
                            direction="tx")
        level(reg, "device_queue_depth", device="nic0")[0] = 512
        fleet = self._fleet()
        fleet.ingest(reg.snapshot(time=0.0))
        nic_b.inc(1)          # teaches the pipeline nic0 is a NIC
        fleet.ingest(reg.snapshot(time=1.0))
        assert fleet.queue_saturation("nic0") == \
            pytest.approx(512 / 1024)

    def test_pool_stranding_and_failed_devices(self):
        reg = MetricsRegistry()
        failed = {}
        for name, allocated in (("nic0", 30.0), ("nic1", 10.0)):
            level(reg, "allocator_device_capacity", device=name,
                  kind="nic")[0] = 100.0
            level(reg, "allocator_device_allocated", device=name,
                  kind="nic")[0] = allocated
            failed[name] = level(reg, "allocator_device_failed", device=name,
                                 kind="nic")
        fleet = self._fleet()
        fleet.ingest(reg.snapshot(time=0.0))
        fleet.ingest(reg.snapshot(time=1.0))
        nic_pool = fleet.stranding_gauges["nic"]
        assert nic_pool.stranded_now == pytest.approx(1 - 40.0 / 200.0)
        assert fleet.pools["nic"]["devices"] == 2
        # Fail one device: it drops out of provisioned capacity.
        failed["nic1"][0] = 1
        fleet.ingest(reg.snapshot(time=2.0))
        assert fleet.pools["nic"]["failed"] == 1
        assert fleet.pools["nic"]["provisioned"] == pytest.approx(100.0)
        assert nic_pool.stranded_now == pytest.approx(1 - 30.0 / 100.0)

    def test_lease_expiry_rate_and_alerts(self):
        reg = MetricsRegistry()
        expiries = reg.counter("allocator_events", event="lease_expiry")
        rules = (AlertRule("lease_expiry_storm", "lease_expiry_rate", 10.0,
                           for_s=0.0, clear_below=1.0),)
        fleet = self._fleet(rules=rules)
        fleet.ingest(reg.snapshot(time=0.0))
        expiries.inc(50)      # 50/s over the next second
        fleet.ingest(reg.snapshot(time=1.0))
        assert fleet.levels["lease_expiry_rate"]["pod"] == \
            pytest.approx(50.0)
        assert fleet.alert_engine.fired == 1
        alerts = fleet.alerts()
        assert alerts[0]["rule"] == "lease_expiry_storm"

    def test_level_tables_stay_in_entity_order(self):
        """Every family's level table iterates in entity order: NICs and
        SSDs mixed in ``device_util``, entities that appear after the first
        plan (a re-plan), and a tenant whose level appears with its first
        completion, ticks after its series did."""
        reg = MetricsRegistry()
        reg.counter("nic_bytes", device="nic-b", host="h1", direction="tx")
        ok_b = reg.counter("tenant_requests", tenant="t-b", result="ok")
        ok_a = reg.counter("tenant_requests", tenant="t-a", result="ok")
        fleet = self._fleet()
        fleet.ingest(reg.snapshot(time=0.0))
        ok_b.inc(1)
        fleet.ingest(reg.snapshot(time=1.0))
        reg.counter("ssd_bytes", device="a-ssd", host="h0", op="read")
        reg.counter("nic_bytes", device="nic-a", host="h0", direction="rx")
        ok_a.inc(1)
        fleet.ingest(reg.snapshot(time=2.0))
        assert list(fleet.levels["device_util"]) == ["a-ssd", "nic-a", "nic-b"]
        assert list(fleet.levels["host_util"]) == ["h0", "h1"]
        assert list(fleet.levels["tenant_slo_burn"]) == ["t-a", "t-b"]
        assert all(list(table) == sorted(table)
                   for table in fleet.levels.values())

    def test_as_dict_document(self):
        reg = MetricsRegistry()
        tx = reg.counter("nic_bytes", device="nic0", host="h0", direction="tx")
        fleet = self._fleet()
        fleet.ingest(reg.snapshot(time=0.0))
        tx.inc(1e8)
        fleet.ingest(reg.snapshot(time=1.0))
        doc = fleet.as_dict()
        assert set(doc) >= {"time", "ticks", "hosts", "devices", "pools",
                            "alerts", "lease_expiry_rate", "slo_burn"}
        assert doc["devices"]["nic0"]["kind"] == "nic"
        json.dumps(doc)       # must be JSON-serialisable as-is


class TestOnlyWhatIsRead:
    """Fleet health computes only what something reads: alerts, brownout
    and ``serve`` read latest levels; statistics exist only for the three
    families the ``top`` dashboard renders."""

    def test_serve_mix_keeps_statistics_only_for_dashboard_families(self):
        from .test_replay import _serve_mix_pod

        pod, run = _serve_mix_pod(5)
        run(0.01)
        levels = {(family, entity) for family, table
                  in pod.fleet.levels.items() for entity in table}
        assert {"device_util", "queue_saturation", "tenant_slo_burn",
                "brownout"} <= {family for family, _ in levels}
        assert pod.fleet.series
        assert {family for family, _ in pod.fleet.series} <= {
            "device_util", "host_util", "link_saturation"}
        assert set(pod.fleet.series) <= levels
        assert all(list(table) == sorted(table)     # AlertEngine reads them
                   for table in pod.fleet.levels.values())

    def test_unread_parts_stay_gone(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        gone = re.compile(r"HealthView|pool_stranding|tenant_shed_rate"
                          r"|active_only|fleet_alert_|keep_raw|_US_BUCKETS")
        assert [f"{path.relative_to(src)}:{n}: {line.strip()}"
                for path in sorted(src.rglob("*.py"))
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if gone.search(line)] == []


class TestCrossChecks:
    """Satellite: live stranding gauge vs the offline fig2/table2 pipeline."""

    def test_live_stranding_matches_fig2_offline(self):
        """Live-vs-offline agreement on one pod spanning every host: the
        streaming gauge replayed over Figure 2's timeline reproduces the
        offline integral (the fleet pipeline's contract)."""
        from repro.experiments.fig2 import NIC_DEVICE_UNIT, SSD_DEVICE_UNIT

        n_hosts, seed = 16, 7
        trace = generate_allocation_trace(
            n_instances=800, duration_s=20_000.0, mean_lifetime_s=3000.0,
            rng=np.random.default_rng(seed))
        schedule_trace(trace, n_hosts)
        for resource, unit in (("nic_gbps", NIC_DEVICE_UNIT),
                               ("ssd_tb", SSD_DEVICE_UNIT)):
            offline = pooled_stranding(
                trace, n_hosts, (n_hosts,), resource, unit,
                rng=np.random.default_rng(seed + 3), repeats=1)[0]
            devices, stranded = live_stranding(trace, n_hosts, resource, unit)
            assert abs(devices - offline.devices_needed) <= 1
            assert stranded == pytest.approx(offline.stranded_fraction,
                                             abs=1e-6)

    def test_sketch_p99_matches_table2_exact(self):
        from repro.experiments import table2

        racks = table2.run(crosscheck=True)
        for rack in racks.values():
            check = rack["crosscheck"]
            for sketch, exact, (lo, hi) in zip(check["sketch_p99"],
                                               check["exact_p99"],
                                               check["exact_band"]):
                # These series are 60-98% exact zeros; five markers cannot
                # pin p99 tightly there, so the contract is neighbourhood
                # membership between the exact p98 and p99.9.  (The tight
                # continuous-distribution contract lives in TestP2Quantile.)
                assert lo - 1e-6 <= sketch <= hi + 1e-6
                assert sketch >= exact - 0.05


class TestTopCli:
    def test_pod_integration_reports_utilization_and_stranding(self):
        from repro.obs.cli import top

        data = top(duration_s=0.05, once=True)
        doc = data["doc"]
        assert doc["ticks"] >= 4
        assert "nic-h0" in doc["devices"]
        nic = doc["devices"]["nic-h0"]
        assert nic["util"]["samples"] > 0
        assert nic["util"]["last"] >= 0.0
        assert 0.0 <= doc["pools"]["nic"]["stranded"] <= 1.0
        # Echo load is allocated on the pooled NIC, so some capacity is
        # genuinely in use: stranding must be strictly below 100%.
        assert doc["pools"]["nic"]["stranded"] < 1.0
        assert data["pod"].fleet is data["fleet"]

    def test_doc_is_seed_deterministic(self):
        from repro.obs.cli import top

        docs = [json.dumps(top(duration_s=0.04, once=True)["doc"],
                           sort_keys=True) for _ in range(2)]
        assert docs[0] == docs[1]

    def test_multi_host_pod(self):
        from repro.obs.cli import top

        data = top(duration_s=0.03, once=True, n_hosts=3, rate_pps=5_000.0)
        doc = data["doc"]
        assert len(doc["hosts"]) == 3
        assert len(doc["devices"]) == 3

    def test_main_top_json(self, capsys):
        from repro.obs.cli import main_top

        assert main_top(["--once", "--json", "--duration", "0.03"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "devices" in doc and "alerts" in doc

    def test_render_dashboard_smoke(self):
        from repro.obs.cli import render_bar, render_dashboard, top

        assert render_bar(0.5, width=10).count("#") == 5
        assert render_bar(2.0, width=10) == "#" * 10
        text = render_dashboard(top(duration_s=0.03, once=True)["doc"])
        assert "devices" in text and "pools" in text

    def test_enable_fleet_telemetry_idempotent(self):
        from repro.experiments.common import build_echo_pod

        pod, _, _, _ = build_echo_pod("oasis", remote=True)
        fleet = pod.enable_fleet_telemetry(period_s=0.01)
        assert pod.enable_fleet_telemetry() is fleet
        assert pod.scraper._task is not None    # sampling
