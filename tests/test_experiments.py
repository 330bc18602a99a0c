"""Every experiment at small scale: each paper band of
:mod:`repro.experiments.bands` (``test_band``), plus what a band does not
say -- who wins, rack-scale pooling and the plumbing."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from repro.experiments import fig2, table2
from repro.experiments.bands import BANDS
from repro.experiments.runner import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def small_run(module: str) -> dict:
    """``module.run(**small)``, once per module per session (every row of a
    module has the same ``small``)."""
    small = next(row.small for row in BANDS.values() if row.module == module)
    return importlib.import_module(f"repro.experiments.{module}").run(**small)


@pytest.mark.parametrize("key", list(BANDS))
def test_band(key):
    row = BANDS[key]
    values = row.values(small_run(row.module))
    assert row.holds(values), (key, row.paper, (row.lo, row.hi), values)


def test_every_experiment_has_a_band_and_every_band_an_experiment():
    experiments = {module.__name__.rsplit(".", 1)[1]
                   for _, module in ALL_EXPERIMENTS}
    assert {row.module for row in BANDS.values()} == experiments


@pytest.mark.parametrize("path", ["tests/test_experiments.py",
                                  "benchmarks/test_paper_bands.py"])
def test_no_band_is_restated_in_an_assert(path):
    """A float literal inside an ``assert`` is a band written outside
    ``bands.py``."""
    tree = ast.parse((ROOT / path).read_text())
    literals = [node.lineno for check in ast.walk(tree)
                if isinstance(check, ast.Assert) for node in ast.walk(check)
                if isinstance(node, ast.Constant) and type(node.value) is float]
    assert literals == []


class TestFig2:
    def test_baseline_stranding_ordering(self):
        base = small_run("fig2")["baseline_stranded"]
        assert base["ssd_tb"] > base["cores"]
        assert base["nic_gbps"] > base["cores"]

    def test_pooling_reduces_devices(self):
        for key in ("nic", "ssd"):
            rows = small_run("fig2")[key]
            assert rows[-1].devices_needed <= rows[0].devices_needed
            assert rows[-1].stranded_fraction <= rows[0].stranded_fraction

    def test_rack_scale_beats_2host_pods(self):
        # 32-host pods under the multi-headed port limit strand less than
        # 2-host pods.
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
        hosts = small_run("fig3")["hosts"]
        assert all(h["p9999_util"] > h["p99_util"] for h in hosts)
        # Host 3 is the near-idle one (paper: 0 %).
        assert min(hosts, key=lambda h: h["p9999_util"]) is hosts[2]


class TestTable2:
    def test_aggregated_well_below_per_host(self):
        racks = small_run("table2")
        for rack in ("A", "B"):
            assert racks[rack]["aggregated"] < max(racks[rack]["per_host"])

    def test_rack_aggregation_beats_pairs(self):
        # Pooling the whole 32-host rack behind shared multi-headed NICs
        # needs fewer devices than pairing hosts two at a time.
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
        sat = {d: r.achieved_mops
               for d, r in small_run("fig6")["saturation"].items()}
        assert sat["bypass-cache"] < sat["naive-prefetch"] \
            < sat["invalidate-consumed"]


class TestOverheadExperiments:
    def test_fig10_overhead_independent_of_size(self):
        """Oasis adds latency at both sizes, and 20x the payload does not
        add as much again: the overhead is messaging, not bytes moved."""
        d75, d1500 = BANDS["fig10.overhead_p50_us"].values(small_run("fig10"))
        assert d75 > 0 and d1500 > 0
        assert abs(d75 - d1500) < min(d75, d1500)

    def test_fig11_messaging_dominates(self):
        cell = small_run("fig11")[75]["low"]
        buffer_cost = cell["local-cxl-buffers"]["p50"] - cell["local"]["p50"]
        messaging_cost = cell["oasis"]["p50"] - cell["local-cxl-buffers"]["p50"]
        assert messaging_cost > buffer_cost


class TestTable3:
    def test_payload_dominates_at_1500(self):
        row = small_run("table3")["busy_1500"]
        assert row["payload_gbps"] > row["message_gbps"]

    def test_message_dominates_at_75(self):
        row = small_run("table3")["busy_75"]
        assert row["message_gbps"] > row["payload_gbps"]


class TestFig12:
    def test_multiplexing_doubles_utilization(self):
        results = small_run("fig12")
        assert results["multiplexed"].nic_p9999_util \
            > results["baseline"].nic_p9999_util


class TestFailoverExperiments:
    def test_fig13_interruption_band(self):
        timeline = small_run("fig13")["loss_timeline"]
        assert sum(v > 0 for v in timeline) <= 2    # a single loss burst

    def test_fig14_recovery_band(self):
        # P99 spikes at the failure, above the pre-failure baseline.
        results = small_run("fig14")
        assert results["peak_p99_ms"] * 1000 > results["baseline_p99_us"]


class TestTable1:
    def test_runs(self):
        assert set(small_run("table1")) == {"nic", "ssd"}


class TestExperimentPlumbing:
    def test_scale_env_parsing(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.experiments.common import scale

        monkeypatch.setenv("OASIS_SCALE", "0.25")
        assert scale() == 1 / 4
        # A malformed value fails loudly instead of silently running at the
        # default (a "quick" OASIS_SCALE=0,1 pass would run at full scale).
        for bad in ("garbage", "0,1", "-1", "0", "nan", "inf", ""):
            monkeypatch.setenv("OASIS_SCALE", bad)
            with pytest.raises(ConfigError, match=f"OASIS_SCALE.*'{bad}'"):
                scale(2.0)
        monkeypatch.delenv("OASIS_SCALE")
        assert scale() == 1
        assert scale(2) == 2

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
