"""Tests for workload generators: traces, allocation, stranding, apps, echo."""

from array import array

import numpy as np
import pytest

from repro.experiments.bands import BANDS
from repro.workloads.allocation import (
    DEFAULT_FAMILIES,
    generate_allocation_trace,
)
from repro.workloads.apps import APP_PROFILES, AppProfile
from repro.workloads.echo import EchoClient, EchoStats
from repro.workloads.stranding import (
    UsageTimeline,
    pooled_stranding,
    schedule_trace,
    stranded_fractions,
)
from repro.workloads.traces import (
    RACK_A_PARAMS,
    RACK_B_PARAMS,
    PacketTrace,
    TraceParams,
    generate_trace,
)


class TestPacketTraces:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(RACK_A_PARAMS[0], np.random.default_rng(1000))

    def test_times_sorted_and_in_range(self, trace):
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.times.min() >= 0
        assert trace.times.max() < trace.duration_s

    def test_burstiness_shape(self, trace):
        """The §2.2 signature: tiny P99, large P99.99."""
        p99 = trace.utilization_percentile(99)
        p9999 = trace.utilization_percentile(99.99)
        assert p99 < 0.05
        assert p9999 > 0.15
        assert p9999 > 5 * p99

    def test_mean_utilization_low(self, trace):
        assert trace.mean_utilization < 0.02

    def test_rack_b_hotter_than_rack_a(self):
        a = generate_trace(RACK_A_PARAMS[1], np.random.default_rng(1))
        b = generate_trace(RACK_B_PARAMS[1], np.random.default_rng(1))
        assert b.utilization_percentile(99.99) > a.utilization_percentile(99.99)

    def test_aggregate_merges_sorted(self):
        traces = [generate_trace(RACK_A_PARAMS[i], np.random.default_rng(i))
                  for i in range(2)]
        agg = PacketTrace.aggregate(traces)
        assert len(agg.times) == sum(len(t.times) for t in traces)
        assert np.all(np.diff(agg.times) >= 0)

    def test_deterministic_given_seed(self):
        a = generate_trace(RACK_A_PARAMS[0], np.random.default_rng(5))
        b = generate_trace(RACK_A_PARAMS[0], np.random.default_rng(5))
        assert np.array_equal(a.times, b.times)

    def test_short_duration_respected(self):
        params = TraceParams(duration_s=0.05)
        trace = generate_trace(params, np.random.default_rng(0))
        assert trace.times.max() < 0.05


class TestAllocationTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_allocation_trace(n_instances=800,
                                         rng=np.random.default_rng(7))

    def test_instances_have_positive_demands(self, trace):
        for inst in trace.instances:
            assert inst.cores > 0
            assert inst.memory_gb > 0
            assert inst.nic_gbps > 0
            assert inst.ssd_tb > 0
            assert inst.depart_s > inst.arrive_s

    def test_family_mix_present(self, trace):
        families = {i.family for i in trace.instances}
        assert families == {f.name for f in DEFAULT_FAMILIES}

    def test_scheduler_respects_capacity(self, trace):
        """At no point may any host exceed any resource dimension."""
        n_hosts = 24
        schedule_trace(trace, n_hosts)
        timeline = UsageTimeline.build(trace, n_hosts)
        peak = timeline.usage.max(axis=0)   # (hosts, resources)
        for h in range(n_hosts):
            assert np.all(peak[h] <= trace.host_capacity + 1e-6)

    def test_unplaceable_instances_left_unassigned(self):
        trace = generate_allocation_trace(n_instances=500,
                                          rng=np.random.default_rng(3))
        placed = schedule_trace(trace, n_hosts=2)   # tiny cluster
        assert placed < 500
        assert any(i.host is None for i in trace.instances)


class TestStranding:
    @pytest.fixture(scope="class")
    def scheduled(self):
        trace = generate_allocation_trace(n_instances=2500,
                                          rng=np.random.default_rng(7))
        schedule_trace(trace, 32)
        return trace

    def test_nic_and_ssd_strand_more_than_cores(self, scheduled):
        """The §2.2 finding that motivates pooling."""
        fractions = stranded_fractions(scheduled, 32)
        assert fractions["nic_gbps"] > fractions["cores"]
        assert fractions["ssd_tb"] > fractions["cores"]

    def test_stranding_in_paper_band(self, scheduled):
        fractions = stranded_fractions(scheduled, 32)
        for key, resource in (("nic", "nic_gbps"), ("ssd", "ssd_tb")):
            band = BANDS[f"fig2.baseline_{key}_stranded"]
            assert band.lo <= fractions[resource] <= band.hi, band.paper

    def test_pooling_reduces_stranding(self, scheduled):
        rows = pooled_stranding(scheduled, 32, [1, 8], "ssd_tb", 4.0,
                                rng=np.random.default_rng(1))
        assert rows[1].stranded_fraction < rows[0].stranded_fraction
        assert rows[1].devices_needed < rows[0].devices_needed

    def test_pod_of_one_is_baseline_config(self, scheduled):
        rows = pooled_stranding(scheduled, 32, [1], "nic_gbps", 100.0,
                                rng=np.random.default_rng(1))
        assert rows[0].devices_needed == 32
        assert rows[0].saved_fraction == pytest.approx(0.0)

    def test_saved_fraction_consistent(self, scheduled):
        rows = pooled_stranding(scheduled, 32, [8], "ssd_tb", 4.0,
                                rng=np.random.default_rng(1))
        row = rows[0]
        assert row.saved_fraction == pytest.approx(
            1.0 - row.devices_needed / row.devices_baseline, abs=0.01
        )


class TestAppProfiles:
    def test_all_paper_apps_present(self):
        assert set(APP_PROFILES) == {
            "python-http", "rocket", "nginx", "tomcat", "memcached",
        }

    def test_python_slowest_nginx_fastest_web_app(self):
        assert APP_PROFILES["python-http"].service_mean_us > \
            APP_PROFILES["tomcat"].service_mean_us > \
            APP_PROFILES["nginx"].service_mean_us

    def test_service_samples_near_mean(self, rng):
        profile = APP_PROFILES["nginx"]
        samples = [profile.sample_service_us(rng) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(profile.service_mean_us,
                                                 rel=0.1)
        assert min(samples) > 0


class TestEchoStats:
    def test_loss_timeline_attributes_by_send_bin(self):
        stats = EchoStats()
        stats.sent = 3
        stats.send_times = array("d", [0.05, 0.15, 0.25])
        stats.outstanding = {1: 0.15}       # seqs 0 and 2 were answered
        timeline = stats.loss_timeline(0.1, 0.3)
        assert list(timeline) == [0, 1, 0]

    def test_loss_timeline_equals_the_set_of_answered_seqs(self):
        """On a lossy run (the Fig 13 NIC failover, shortened, Poisson so
        replies also arrive out of send order) a sent seq is lost exactly
        when it is still outstanding: the timeline equals the count the
        parent made from a set of every answered seq, kept here beside the
        client as the oracle."""
        from repro.experiments.common import SERVER_IP, build_echo_pod
        from repro.faults import FaultPlan, FaultSpec
        from repro.sim.rng import Stream

        class SetClient(EchoClient):
            def _on_reply(self, frame):
                first = frame.seq in self.stats.outstanding
                super()._on_reply(frame)
                if first:
                    answered.add(frame.seq)

        answered = set()
        pod, _inst, endpoint, nic0 = build_echo_pod("oasis", remote=True,
                                                    backup_nic=True)
        client = SetClient(pod.sim, endpoint, SERVER_IP, packet_size=75,
                           rate_pps=4000.0, rng=Stream(3), poisson=True)
        client.start(0.3)
        pod.inject_faults(FaultPlan(
            [FaultSpec(kind="switch.port_down", target=nic0.name, at=0.152)],
            name="port-down"))
        pod.run(0.4)
        pod.stop()
        stats = client.stats
        bins = int(np.ceil(0.3 / 0.05))
        oracle = np.zeros(bins, dtype=int)
        for seq, t in enumerate(stats.send_times):
            if seq not in answered:
                oracle[min(bins - 1, int(t / 0.05))] += 1
        assert stats.lost > 50 and oracle.sum() == stats.lost
        assert list(stats.loss_timeline(0.05, 0.3)) == list(oracle)
        assert len(stats.outstanding) == stats.lost

    def test_percentile_empty_is_nan(self):
        stats = EchoStats()
        assert np.isnan(stats.percentile_us(50))
