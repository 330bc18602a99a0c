"""Smoke tests: every experiment runs at reduced scale and reproduces the
paper's qualitative result (who wins, roughly by what factor)."""

import numpy as np
import pytest

from repro.experiments import (
    fig2,
    fig3,
    fig6,
    fig8,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table1,
    table2,
    table3,
)
from repro.workloads.apps import APP_PROFILES
from repro.experiments.fig8 import run_app


class TestFig2:
    @pytest.fixture(scope="class")
    def results(self):
        return fig2.run(n_instances=1500, n_hosts=24, pod_sizes=(1, 8))

    def test_baseline_stranding_ordering(self, results):
        base = results["baseline_stranded"]
        assert base["ssd_tb"] > base["cores"]
        assert base["nic_gbps"] > base["cores"]

    def test_pooling_reduces_devices(self, results):
        for key in ("nic", "ssd"):
            rows = results[key]
            assert rows[-1].devices_needed <= rows[0].devices_needed
            assert rows[-1].stranded_fraction <= rows[0].stranded_fraction

    def test_rack_scale_beats_2host_pods(self):
        # PR-8 acceptance: 32-host pods under the multi-headed port limit
        # strand less than the 2-host pods PRs 1-7 simulated.
        results = fig2.run(n_instances=1500, n_hosts=32,
                           pod_sizes=(1, 2), rack=True)
        rack = results["rack"]
        assert rack["pod_sizes"][-1] == 32
        for key in ("nic", "ssd"):
            rows = rack[key]
            assert rack[f"{key}_beats_2host"]
            assert rows[-1].stranded_fraction < rows[0].stranded_fraction
            assert rows[-1].devices_needed < rows[0].devices_needed
            # Port limit floor: a 32-host pod needs >= ceil(32/4) devices
            # no matter how low its pooled peak.
            assert rows[-1].devices_needed >= -(-32 // rack["port_limit"])


class TestFig3:
    def test_burstiness(self):
        results = fig3.run()
        host1 = results["hosts"][0]
        assert host1["p99_util"] < 0.05
        assert host1["p9999_util"] > 0.2
        # Host 3 is the near-idle one (paper: 0 %).
        assert results["hosts"][2]["p9999_util"] < 0.1


class TestTable2:
    def test_aggregated_well_below_per_host(self):
        racks = table2.run()
        for rack in ("A", "B"):
            per_host_max = max(racks[rack]["per_host"])
            assert racks[rack]["aggregated"] < per_host_max
        assert 0.05 <= racks["A"]["aggregated"] <= 0.18   # paper: 10 %
        assert 0.12 <= racks["B"]["aggregated"] <= 0.30   # paper: 20 %

    def test_rack_aggregation_beats_pairs(self):
        # PR-8 acceptance: pooling the whole 32-host rack behind shared
        # multi-headed NICs needs fewer devices than pairing hosts two at
        # a time (the 2-host pods earlier PRs simulated).
        racks = table2.run(rack=True)
        rack = racks["rack"]
        assert rack["hosts"] == 32
        assert rack["beats_pairs"]
        assert rack["nics_needed"] < rack["pair_nics_needed"]
        # The port limit floors the rack at ceil(32/4) = 8 shared NICs.
        assert rack["nics_needed"] >= 8
        # Rack-wide P99.99 sits well below the mean pairwise P99.99: the
        # non-coincident bursts that motivate pooling in the first place.
        assert rack["aggregated"] < rack["pair_mean_p9999"]


class TestFig6:
    def test_design_ordering(self):
        results = fig6.run(offered_mops=(2.0,), n_messages=6000, slots=2048)
        sat = {d: r.achieved_mops for d, r in results["saturation"].items()}
        assert sat["bypass-cache"] < sat["naive-prefetch"] \
            < sat["invalidate-consumed"]
        assert sat["invalidate-prefetched"] > 14.0


class TestOverheadExperiments:
    def test_fig8_overhead_band_one_app(self):
        profile = APP_PROFILES["nginx"]
        base = run_app(profile, "local", 0.2, duration_s=0.05)
        oasis = run_app(profile, "oasis", 0.2, duration_s=0.05)
        overhead = oasis["p50"] - base["p50"]
        assert 2.0 <= overhead <= 9.0

    def test_fig10_overhead_independent_of_size(self):
        results = fig10.run(sizes=(75, 1500),
                            loads={"low": 20_000.0}, duration_s=0.05)
        deltas = []
        for size in (75, 1500):
            cell = results[size]["low"]
            deltas.append(cell["oasis"]["p50"] - cell["baseline"]["p50"])
        assert all(2.0 <= d <= 9.0 for d in deltas)
        assert abs(deltas[0] - deltas[1]) < 2.0

    def test_fig11_messaging_dominates(self):
        results = fig11.run(sizes=(75,), loads={"low": 20_000.0},
                            duration_s=0.05)
        cell = results[75]["low"]
        buffer_cost = cell["local-cxl-buffers"]["p50"] - cell["local"]["p50"]
        messaging_cost = cell["oasis"]["p50"] - cell["local-cxl-buffers"]["p50"]
        assert buffer_cost < 1.0           # "almost no additional latency"
        assert messaging_cost > 2 * max(buffer_cost, 0.1)


class TestTable3:
    @pytest.fixture(scope="class")
    def results(self):
        return table3.run(duration_s=0.05)

    def test_idle_bandwidth_near_paper(self, results):
        assert results["idle"]["total_gbps"] == pytest.approx(0.2, abs=0.1)

    def test_payload_dominates_at_1500(self, results):
        row = results["busy_1500"]
        assert row["payload_gbps"] / row["total_gbps"] > 0.7   # paper: 89 %

    def test_message_dominates_at_75(self, results):
        row = results["busy_75"]
        assert row["message_gbps"] > row["payload_gbps"]


class TestFig12:
    def test_multiplexing_doubles_utilization(self):
        results = fig12.run(duration_s=0.08)
        base = results["baseline"]
        mux = results["multiplexed"]
        assert mux.nic_p9999_util > 1.5 * base.nic_p9999_util
        # Interference on host 1 stays small.
        assert mux.per_host[0]["p99"] - base.per_host[0]["p99"] < 15.0


class TestFailoverExperiments:
    def test_fig13_interruption_band(self):
        results = fig13.run(duration_s=1.2, rate_pps=3000, fail_at_s=0.602)
        assert 20.0 <= results["interruption_ms"] <= 60.0   # paper: 38 ms
        assert results["failovers"] == 1
        timeline = results["loss_timeline"]
        assert sum(v > 0 for v in timeline) <= 2    # a single loss burst

    def test_fig14_recovery_band(self):
        results = fig14.run(duration_s=1.6, rate_rps=2500, fail_at_s=0.802)
        assert 50.0 <= results["recovery_ms"] <= 250.0      # paper: 133 ms
        assert results["retransmits"] > 0
        # Recovery is slower than the raw UDP interruption (TCP backlog).
        assert results["recovery_ms"] > 38.0


class TestTable1:
    def test_runs(self):
        results = table1.run()
        assert results["ssd"]["bandwidth_gbs"] == pytest.approx(5.0)


class TestExperimentPlumbing:
    def test_scale_env_parsing(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.experiments.common import scale

        monkeypatch.setenv("OASIS_SCALE", "0.25")
        assert scale() == 0.25
        # A malformed value fails loudly instead of silently running at the
        # default (a "quick" OASIS_SCALE=0,1 pass would run at full scale).
        for bad in ("garbage", "0,1", "-1", "0", "nan", "inf", ""):
            monkeypatch.setenv("OASIS_SCALE", bad)
            with pytest.raises(ConfigError, match=f"OASIS_SCALE.*'{bad}'"):
                scale(2.0)
        monkeypatch.delenv("OASIS_SCALE")
        assert scale() == 1.0
        assert scale(2.0) == 2.0

    @pytest.mark.parametrize("scenario,threshold", [
        ("overload", "0.85"), ("serve", "1.5"), ("rack", "0.5 ms")])
    def test_scenario_help_states_its_thresholds(self, scenario, threshold,
                                                 capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_:
            main([scenario, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert threshold in text and "--out" not in text

    def test_build_echo_pod_variants(self):
        from repro.experiments.common import build_echo_pod

        pod, inst, client, nic = build_echo_pod("oasis", remote=True,
                                                backup_nic=True)
        assert inst.host is not nic.host
        assert any(d.is_backup for d in pod.allocator.devices.values())
        pod.stop()
        pod2, inst2, client2, nic2 = build_echo_pod("local", remote=False)
        assert inst2.host is nic2.host
        pod2.stop()
