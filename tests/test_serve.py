"""Integration tests for multi-tenant QoS serving (PR 10).

End-to-end checks over the serving stack: per-tenant WFQ at the storage
frontend (isolation, conservation, noisy-neighbour containment), the net
frontend's tenant-tagged TX lanes, the fleet ``tenant_slo_burn`` pipeline,
byte-identical same-seed serve runs, and the off-by-default contract
(pods that never arm serving keep the legacy single-queue paths).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod
from repro.experiments.fig10 import run_echo
from repro.experiments.serve import run_serve, weighted_fair_share
from repro.net.packet import Frame, make_ip
from repro.overload import TenantSpec
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.tenants import SERVE_PROFILES, TenantClient, TenantProfile

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def build_serve_pod(seed=7, launch_window=2):
    """Two-host pod with a derated SSD and the 3-class tenant mix armed."""
    base = OasisConfig()
    config = base.with_(
        seed=seed,
        ssd=replace(base.ssd, bandwidth_gbps=0.04),
        overload=replace(base.overload, enabled=True,
                         launch_window=launch_window))
    pod = CXLPod(config=config, mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=SERVER_IP)
    device = pod.add_block_device(inst, ssd)
    capacity = config.ssd.bytes_per_sec / config.ssd.block_size
    profiles = SERVE_PROFILES(capacity)
    pod.enable_multi_tenant(
        {name: profile.spec() for name, profile in profiles.items()})
    clients = {
        name: TenantClient(pod.sim, device, profile,
                           rng=pod.rng.get(f"serve/{name}"))
        for name, profile in profiles.items()}
    return pod, h1, clients


@pytest.fixture(scope="module")
def mix_run():
    """One 3-tenant run with the bg tenant surging 8x mid-run."""
    pod, h1, clients = build_serve_pod()
    for client in clients.values():
        client.start(0.3)
    pod.sim.at(0.1, clients["bg"].set_rate_multiplier, 8.0)
    pod.sim.at(0.2, clients["bg"].set_rate_multiplier, 1.0)
    pod.run(0.35)
    pod.stop()
    return pod, pod.storage_frontends[h1.name], clients


class TestTenantProfile:
    def test_spec_carries_the_contract(self):
        profile = TenantProfile(name="t", weight=3.0, guarantee_iops=100.0)
        spec = profile.spec()
        assert spec.weight == 3.0
        assert spec.guarantee_rate == 100.0

    def test_from_dict_rejects_unknown_keys(self):
        """A profile read from a dict (``TenantProfile(**data)``) rejects
        keys it does not know."""
        with pytest.raises(TypeError, match="rate_mbps"):
            TenantProfile(**{"name": "t", "rate_mbps": 1.0})

    @pytest.mark.parametrize("bad", [
        {"name": ""},
        {"name": "t", "rate_iops": 0.0},
        {"name": "t", "diurnal_amplitude": 1.5},
        {"name": "t", "slo_us": -1.0},
        {"name": "t", "weight": 0.0},
    ])
    def test_validation_rejects_bad_profiles(self, bad):
        with pytest.raises(ValueError):
            TenantProfile(**bad).validate()

    def test_diurnal_rate_is_a_pure_function_of_time(self):
        pod, _h1, clients = build_serve_pod()
        web = clients["web"]
        assert web.profile.diurnal_amplitude > 0
        base = web.rate_iops
        assert web.effective_rate == pytest.approx(base)      # sin(0) == 0
        pod.sim.run(until=web.profile.diurnal_period_s / 4)
        assert web.effective_rate == pytest.approx(
            base * (1 + web.profile.diurnal_amplitude))
        pod.stop()


class TestServeIsolation:
    def test_per_tenant_conservation(self, mix_run):
        _pod, frontend, _clients = mix_run
        pending = {}
        for state in frontend._pending.values():
            tenant = state.get("tenant")
            pending[tenant] = pending.get(tenant, 0) + 1
        for tenant, stats in frontend.tenant_stats().items():
            assert stats["submitted"] == (
                stats["completed_ok"] + stats["completed_error"]
                + stats["shed"] + pending.get(tenant, 0)), tenant

    def test_noisy_neighbour_sheds_only_its_own_lane(self, mix_run):
        _pod, frontend, clients = mix_run
        stats = frontend.tenant_stats()
        assert stats["bg"]["shed"] > 0
        assert stats["mc"]["shed"] == 0
        assert stats["web"]["shed"] == 0
        assert clients["mc"].stats.completed_ok == clients["mc"].stats.submitted
        assert clients["bg"].stats.shed == stats["bg"]["shed"]

    def test_wfq_books_balance(self, mix_run):
        _pod, frontend, _clients = mix_run
        for tenant, lane in frontend._stage.queue.per_tenant().items():
            assert lane["pushed"] == lane["admitted"] + lane["shed_full"]
            assert lane["admitted"] == (lane["served"] + lane["shed_sojourn"]
                                        + lane["queued"]), tenant

    def test_client_and_frontend_ledgers_agree(self, mix_run):
        _pod, frontend, clients = mix_run
        stats = frontend.tenant_stats()
        for name, client in clients.items():
            assert client.stats.submitted == stats[name]["submitted"]
            assert client.stats.completed_ok == stats[name]["completed_ok"]


class TestServeExperiment:
    def test_same_seed_serve_json_is_byte_identical(self):
        kwargs = dict(seed=5, pre_s=0.05, surge_s=0.05, post_s=0.05)
        one = json.dumps(run_serve(**kwargs), sort_keys=True)
        two = json.dumps(run_serve(**kwargs), sort_keys=True)
        assert one == two

    def test_weighted_fair_share_water_fills(self):
        shares = weighted_fair_share(
            demands={"a": 100.0, "b": 1000.0, "c": 1000.0},
            weights={"a": 1.0, "b": 2.0, "c": 1.0},
            capacity=700.0)
        # a is demand-capped; the remaining 600 splits 2:1 between b and c.
        assert shares["a"] == pytest.approx(100.0)
        assert shares["b"] == pytest.approx(400.0)
        assert shares["c"] == pytest.approx(200.0)
        assert sum(shares.values()) == pytest.approx(700.0)

    def test_weighted_fair_share_with_slack_caps_at_demand(self):
        shares = weighted_fair_share(
            demands={"a": 10.0, "b": 20.0},
            weights={"a": 1.0, "b": 1.0},
            capacity=1000.0)
        assert shares == {"a": 10.0, "b": 20.0}


class TestOffByDefault:
    def test_pods_without_serving_keep_the_single_queue(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.add_block_device(inst, ssd)
        frontend = pod.storage_frontends[h1.name]
        assert frontend._stage is None
        assert frontend.tenant_stats() == {}
        net = pod.frontends[h1.name]
        assert net._stage is None
        assert net.tenant_stats() == {}
        assert all(b._stage is None for b in pod.backends.values())
        pod.stop()

    def test_default_pod_exports_the_same_metric_keys(self):
        """The registry's sample set (family + labels) of a default pod is
        the one captured before the admission-stage refactor: every legacy
        counter name is still exported, none was added."""
        def keys(document):
            return {(s["name"], tuple(sorted(s["labels"].items())))
                    for s in document["samples"]}

        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_fig10.json").read_text())
        report = run_echo("oasis", packet_size=256, rate_pps=20_000.0,
                          duration_s=0.05, seed=17)["report_json"]
        assert keys(json.loads(report)) == keys(golden)

    def test_multi_tenant_requires_overload_control_and_arms_it(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        for driver in (*pod.frontends.values(), *pod.backends.values()):
            assert "t" in driver._stage.tenants
        pod.stop()

    def test_late_joining_frontends_inherit_the_tenant_set(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        h1 = pod.add_host()             # added after serving was armed
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.add_block_device(inst, ssd)
        assert "t" in pod.frontends[h1.name]._stage.tenants
        assert "t" in pod.storage_frontends[h1.name]._stage.tenants
        pod.stop()


class TestArmingMidRun:
    """Regressions: arming a live pod must strand nothing.  Registering
    tenants used to swap in a fresh scheduler (orphaning every queued
    request) and left frames in the unarmed TX queue undrained."""

    def test_registering_tenants_keeps_queued_requests(self):
        base = OasisConfig()
        pod = CXLPod(config=base.with_(
            seed=7, ssd=replace(base.ssd, bandwidth_gbps=0.04)), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_overload_control(replace(base.overload, launch_window=1))
        frontend = pod.storage_frontends[h1.name]
        done = []
        for i in range(5):
            device.read(i, 1, lambda status, data: done.append(status),
                        tenant="mc" if i % 2 else None)
        pod.run(20e-6)          # past the IPC hop: 1 launched, 4 queued
        assert len(frontend._stage.queue) == 4
        pod.enable_multi_tenant({"mc": TenantSpec(weight=2.0)})
        pod.run(0.05)
        pod.stop()
        assert done == [0] * 5
        assert frontend.submitted == 5 == (frontend.completed_ok
                                           + frontend.completed_error
                                           + frontend.shed)
        assert frontend.inflight == 0
        # The books balance per tenant too, for requests queued before
        # their tenant was registered.
        for row in frontend.tenant_stats().values():
            assert row["submitted"] == row["completed_ok"]

    def test_arming_moves_queued_tx_frames_into_the_stage(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        frontend = pod.frontends[h1.name]
        tx_area = frontend.record_of(inst.ip).tx_area
        free_before = tx_area.free_bytes
        pod.run(1e-6)
        frontend.stop()         # a stalled core: frames pile up unserved
        for _ in range(4):
            inst._vnic.transmit(Frame(
                dst_mac=0, src_mac=0, src_ip=inst.ip, dst_ip=CLIENT_IP,
                src_port=1, dst_port=2, payload=b"x" * 64))
        pod.run(20e-6)          # past the IPC hop: all four are queued
        assert len(frontend._tx_queue) == 4
        pod.enable_multi_tenant({"edge": TenantSpec(weight=2.0)})
        frontend.start()
        pod.run(0.01)
        pod.stop()
        assert frontend.tx_forwarded == 4
        assert frontend.tx_shed == 0
        assert tx_area.free_bytes == free_before

    def test_arming_twice_is_a_no_op(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        cfg = pod.enable_overload_control()
        stages = [driver._stage for driver in pod._drivers()]
        assert None not in stages
        assert pod.enable_overload_control(
            replace(cfg, admission_depth=1)) is cfg
        assert [driver._stage for driver in pod._drivers()] == stages
        pod.stop()

    def test_config_enabled_arms_the_pod(self):
        base = OasisConfig()
        pod = CXLPod(config=base.with_(
            overload=replace(base.overload, enabled=True)), mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        assert all(driver._stage is not None for driver in pod._drivers())
        pod.stop()


class TestNetTxWfq:
    def test_tenant_tagged_echo_flows_through_the_tx_wfq(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.enable_multi_tenant({"edge": TenantSpec(weight=2.0)})
        EchoServer(pod.sim, inst, tenant="edge")
        endpoint = pod.add_external_client(ip=CLIENT_IP)
        client = EchoClient(pod.sim, endpoint, SERVER_IP, rate_pps=2000.0,
                            rng=pod.rng.get("serve/echo"), poisson=True,
                            tenant="edge")
        client.start(0.05)
        pod.run(0.08)
        pod.stop()
        assert client.stats.received > 0
        net = pod.frontends[h1.name]
        lanes = net.tenant_stats()
        # Every echoed reply rode the tagged tenant's TX lane.
        assert lanes["edge"]["served"] == client.stats.received
        assert net.tx_forwarded == lanes["edge"]["served"]

    def test_untagged_frames_share_the_default_lane(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.enable_multi_tenant({"edge": TenantSpec(weight=2.0)})
        EchoServer(pod.sim, inst)               # no tenant tag
        endpoint = pod.add_external_client(ip=CLIENT_IP)
        client = EchoClient(pod.sim, endpoint, SERVER_IP, rate_pps=2000.0,
                            rng=pod.rng.get("serve/echo"), poisson=True)
        client.start(0.05)
        pod.run(0.08)
        pod.stop()
        assert client.stats.received > 0
        lanes = pod.frontends[h1.name].tenant_stats()
        assert lanes["-"]["served"] == client.stats.received


class TestTenantSloBurnAlert:
    def test_burning_tenant_fires_the_alert(self):
        base = OasisConfig()
        config = base.with_(
            seed=3, ssd=replace(base.ssd, bandwidth_gbps=0.04))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_fleet_telemetry(period_s=0.002)
        # An SLO no completion can meet: every ok completion is a violation.
        profile = TenantProfile(name="mc", rate_iops=2000.0, slo_us=1.0)
        pod.enable_multi_tenant({"mc": profile.spec()})
        client = TenantClient(pod.sim, device, profile,
                              rng=pod.rng.get("serve/mc"))
        pod.register_tenant_client(client)
        client.start(0.2)
        pod.run(0.25)
        pod.stop()
        assert client.slo_violations == client.stats.completed_ok > 0
        assert pod.fleet.tenant_slo_burn("mc") > 0.5
        fired = {event.rule for event in pod.fleet.alert_engine.log
                 if event.kind == "fire"}
        assert "tenant_slo_burn" in fired

    def test_healthy_tenant_stays_silent(self):
        base = OasisConfig()
        config = base.with_(
            seed=3, ssd=replace(base.ssd, bandwidth_gbps=0.04))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_fleet_telemetry(period_s=0.002)
        profile = TenantProfile(name="mc", rate_iops=2000.0, slo_us=50_000.0)
        pod.enable_multi_tenant({"mc": profile.spec()})
        client = TenantClient(pod.sim, device, rng=pod.rng.get("serve/mc"),
                              profile=profile)
        pod.register_tenant_client(client)
        client.start(0.2)
        pod.run(0.25)
        pod.stop()
        assert client.slo_violations == 0
        assert pod.fleet.tenant_slo_burn("mc") == 0.0
        fired = {event.rule for event in pod.fleet.alert_engine.log
                 if event.kind == "fire"}
        assert "tenant_slo_burn" not in fired
