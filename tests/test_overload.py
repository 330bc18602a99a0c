"""End-to-end overload-control tests (PR 9).

Covers the acceptance criteria of the overload-robustness PR:

* the ``python -m repro overload`` sweep: budgets-on recovers to >= 90% of
  pre-surge goodput after a 1.5x-capacity surge while the budgets-off
  ablation stays collapsed (< 50%), and the whole result is byte-identical
  under a fixed seed;
* overload control is off by default: an unarmed pod pays no sheds, no
  budget denials, no breaker trips;
* the circuit breaker trips on a sick device, sheds while open, and
  re-closes after a healthy half-open probe -- with nothing lost from the
  ``submitted == ok + error + shed + pending`` conservation identity;
* overload control draws only from dedicated RNG substreams: injecting a
  retry into the fig10 echo path leaves the workload's arrival stream
  byte-identical (satellite of the fig10 replay contract);
* the netengine browns out low-priority frames only;
* the ``overload.surge`` chaos fault fires from the default plan, recovers,
  and replays deterministically.
"""

import json
from dataclasses import replace

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.experiments.overload import (RECOVERY_OFF_CEILING,
                                        RECOVERY_ON_FLOOR,
                                        SURGE_GOODPUT_FRAC_FLOOR,
                                        run_overload)
from repro.faults import FaultPlan
from repro.net.packet import Frame, make_ip
from repro.workloads.echo import EchoClient
from repro.workloads.openloop import OpenLoopBlockClient, OpenLoopStats

SWEEP_KW = dict(seed=11, pre_s=0.2, surge_s=0.15, post_s=0.3)


@pytest.fixture(scope="module")
def sweep():
    return run_overload(**SWEEP_KW)


def build_storage_pod(seed=7, bandwidth_gbps=None):
    base = OasisConfig()
    ssd_cfg = (base.ssd if bandwidth_gbps is None
               else replace(base.ssd, bandwidth_gbps=bandwidth_gbps))
    pod = CXLPod(config=base.with_(seed=seed, ssd=ssd_cfg), mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=make_ip(10, 0, 0, 1))
    device = pod.add_block_device(inst, ssd)
    return pod, h1, ssd, device


def conservation_holds(frontend) -> bool:
    return frontend.submitted == (frontend.completed_ok
                                  + frontend.completed_error
                                  + frontend.shed + len(frontend._pending))


class TestOverloadSweep:
    def test_budgets_on_recovers(self, sweep):
        assert sweep["recovery_on"] >= 0.90

    def test_budgets_off_stays_collapsed(self, sweep):
        assert sweep["recovery_off"] < 0.50
        assert sweep["ok"]

    def test_verdict_is_the_conjunction_of_the_module_thresholds(self, sweep):
        assert sweep["ok"] == (
            sweep["recovery_on"] >= RECOVERY_ON_FLOOR
            and sweep["recovery_off"] < RECOVERY_OFF_CEILING
            and sweep["surge_goodput_frac_on"] >= SURGE_GOODPUT_FRAC_FLOOR)

    def test_off_run_is_a_retry_storm(self, sweep):
        off = sweep["off"]["frontend"]
        assert off["shed"] == 0            # nothing protects the device
        assert off["retries"] > 100        # timeouts amplify into retries
        assert off["giveups"] > 0

    def test_on_run_shows_the_control_actions(self, sweep):
        on = sweep["on"]
        frontend = on["frontend"]
        assert frontend["shed"] > 0
        assert frontend["shed_sojourn"] > 0      # CoDel front-drop engaged
        assert frontend["shed_brownout"] > 0     # background work shed
        assert on["brownout"]["entries"] >= 1
        assert on["brownout"]["exits"] >= 1      # ...and it recovered
        fired = {entry[1] for entry in on["alerts"]["log"]}
        assert "overload_shedding" in fired
        assert "overload_brownout" in fired

    def test_same_seed_is_byte_identical(self, sweep):
        again = run_overload(**SWEEP_KW)
        assert (json.dumps(sweep, sort_keys=True)
                == json.dumps(again, sort_keys=True))


class TestDisabledByDefault:
    def test_unarmed_pod_pays_nothing(self):
        pod, h1, _ssd, device = build_storage_pod()
        client = OpenLoopBlockClient(pod.sim, device, rate_iops=3000.0,
                                     rng=pod.rng.get("t/openloop"))
        client.start(0.05)
        pod.run(0.1)
        pod.stop()
        frontend = pod.storage_frontends[h1.name]
        assert frontend._stage is None
        assert frontend.submitted > 0
        assert frontend.shed == 0
        assert frontend.retry_budget_denied == 0
        assert frontend.breaker_trips == 0
        assert client.stats.shed == 0
        assert conservation_holds(frontend)


class TestOpenLoopStatsBinning:
    """Regressions: completions past the run window must not fold into the
    last bin, and windowed goodput must divide by the clamped span."""

    def test_late_completions_do_not_inflate_the_last_bin(self):
        stats = OpenLoopStats(bin_s=0.01, duration_s=0.1)
        stats.on_complete(0.095, 0, 50.0)     # inside the last bin
        stats.on_complete(0.25, 0, 5000.0)    # long after the run window
        assert stats.completed_ok == 2        # totals still count it...
        assert stats.goodput[-1] == 1         # ...the tail bin does not
        assert stats.late_goodput == 1
        # Pre-fix the 5 ms straggler also polluted the bin's mean latency.
        assert stats.mean_latency_us(len(stats.goodput) - 1) == 50.0

    def test_late_shed_and_errors_tracked_separately(self):
        from repro.core.storage.frontend import STATUS_SHED, STATUS_TIMEOUT
        stats = OpenLoopStats(bin_s=0.01, duration_s=0.1)
        stats.on_complete(0.15, STATUS_SHED, 1.0)
        stats.on_complete(0.15, STATUS_TIMEOUT, 1.0)
        assert stats.shed == 1 and stats.errors == 1
        assert sum(stats.shed_bins) == 0 and sum(stats.error_bins) == 0
        assert stats.late_shed == 1 and stats.late_errors == 1

    def test_window_span_is_clamped_at_the_array_edge(self):
        stats = OpenLoopStats(bin_s=0.01, duration_s=0.1)
        stats.on_complete(0.095, 0, 10.0)     # one completion, in bin 9
        # A window reaching past the last bin edge: pre-fix this summed
        # bins [5, 9) -- missing the completion -- yet divided by the
        # unclamped span, reporting 0 IOPS instead of 20.
        assert stats.window_goodput_iops(0.05, 0.2) == pytest.approx(20.0)
        # The experiments' final window [t, duration) includes the last bin.
        assert stats.window_goodput_iops(0.05, 0.1) == pytest.approx(20.0)


class TestOpenLoopRestartReset:
    def test_start_resets_surge_multiplier_and_inflight(self):
        """Regression: a client restarted after an ``overload.surge`` fault
        kept the surged rate (and stale in-flight count) from the prior run."""
        pod, _h1, _ssd, device = build_storage_pod()
        client = OpenLoopBlockClient(pod.sim, device, rate_iops=2000.0,
                                     rng=pod.rng.get("t/openloop"))
        client.start(0.05)
        client.set_rate_multiplier(8.0)       # the overload.surge fault hook
        pod.run(0.02)                         # stop mid-run: work in flight
        assert client.effective_rate == pytest.approx(16000.0)
        client._stop()
        client.start(0.05)                    # restart after the fault
        assert client.rate_mult == 1.0
        assert client.effective_rate == pytest.approx(2000.0)
        assert client.inflight == 0
        pod.run(0.2)
        pod.stop()
        assert client.stats.completed_ok > 0


class TestBreakerOnSickDevice:
    def test_media_error_burst_trips_sheds_and_recloses(self):
        pod, h1, ssd, device = build_storage_pod()
        pod.enable_overload_control()
        client = OpenLoopBlockClient(pod.sim, device, rate_iops=5000.0,
                                     rng=pod.rng.get("t/openloop"))
        # 12 armed errors: enough consecutive failures to trip (threshold
        # 8), few enough that the stragglers drain while the breaker is
        # open, so the first half-open probe finds a healthy device.
        pod.sim.at(0.02, ssd.inject_media_error, 12)
        client.start(0.15)
        pod.run(0.3)
        pod.stop()
        frontend = pod.storage_frontends[h1.name]
        assert frontend.breaker_trips >= 1
        assert frontend.shed_breaker >= 1        # rejected while open
        # The device healed once the armed errors ran out, so the half-open
        # probe succeeded and traffic flowed again.
        breakers = frontend._stage.breakers.values()
        assert all(b.state == "closed" for b in breakers)
        assert sum(b.reclosures for b in breakers) >= 1
        assert client.stats.completed_ok > 0
        assert conservation_holds(frontend)


class TestRetryJitterIsolation:
    """Overload control draws only from dedicated substreams, so an
    injected retry cannot perturb the workload's own RNG stream."""

    def _fig10_run(self, inject_retry: bool):
        config = OasisConfig().with_(seed=5)
        pod, _inst, client_ep, nic0 = build_echo_pod("oasis", remote=True,
                                                     config=config)
        pod.enable_overload_control(replace(
            OasisConfig().overload, enabled=True))
        if inject_retry:
            pod.sim.at(0.01, nic0.inject_dma_abort, 2)
        client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=75,
                            rate_pps=20_000.0,
                            rng=pod.rng.get("echo-client"), poisson=True)
        client.start(0.04)
        pod.run(0.06)
        pod.stop()
        backend = next(iter(pod.backends.values()))
        return client.stats.send_times, backend.tx_retries

    def test_fig10_stream_unchanged_by_injected_retry(self):
        clean_times, clean_retries = self._fig10_run(False)
        faulty_times, faulty_retries = self._fig10_run(True)
        assert clean_retries == 0
        assert faulty_retries >= 1          # the fault really caused retries
        assert faulty_times == clean_times  # ...yet arrivals are untouched


class TestNetengineBrownout:
    def test_only_low_priority_frames_are_shed(self):
        config = OasisConfig().with_(seed=9)
        pod, inst, _client_ep, _nic0 = build_echo_pod("oasis", remote=True,
                                                      config=config)
        pod.enable_overload_control()
        frontend = next(f for f in pod.frontends.values()
                        if inst.ip in f._records)
        frontend._stage.brownout_level = 1

        def send(prio):
            frame = Frame(dst_mac=0, src_mac=0, src_ip=inst.ip,
                          dst_ip=make_ip(10, 0, 9, 1), src_port=1,
                          dst_port=2, payload=b"x" * 32,
                          meta={"prio": prio})
            frontend._instance_tx(inst, frame)

        send(0)                             # background: shed at the vNIC
        assert frontend.tx_shed_brownout == 1
        send(1)                             # foreground: goes through
        assert frontend.tx_shed_brownout == 1
        frontend._stage.brownout_level = 0
        send(0)                             # healthy again: nothing shed
        assert frontend.tx_shed_brownout == 1
        assert frontend.tx_shed == 1


class TestSurgeChaosFault:
    def test_default_plan_surge_fires_and_replays(self):
        from repro.faults.chaos import DEFAULT_PLAN, run_chaos

        def once():
            plan = FaultPlan.from_json(json.dumps(DEFAULT_PLAN))
            return run_chaos(seed=3, plan=plan, duration_s=0.5,
                             verbose=False)

        first, second = once(), once()
        assert first["ok"], first["verdict"].render()
        events = json.dumps(first["events"])
        assert "overload.surge" in events
        assert first["events"] == second["events"]
        assert first["recovery"] == second["recovery"]
