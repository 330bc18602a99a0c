"""Deterministic fault injection: plans, replay identity, recovery paths.

Covers the repro.faults subsystem end to end: FaultPlan JSON round-trip and
seeded window resolution, replay-identical fault sequences and invariant
verdicts from the same root seed, the storage frontend's retry/timeout path,
the net backend's DMA-abort repost path (asserted through the observability
counters), and flow-latency conservation under injected faults.
"""

import json

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod, RackBuilder
from repro.errors import ConfigError, MemoryFault
from repro.faults import (FAULT_KINDS, FaultPlan, FaultSpec, InvariantChecker)
from repro.faults.chaos import DEFAULT_PLAN, run_chaos
from repro.net.packet import make_ip
from repro.sim.rng import RngFactory
from repro.workloads.blockio import BlockWorkload
from repro.workloads.echo import EchoClient, EchoServer

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def build_pod(seed=11):
    """NIC+SSD on h0, instance on h1, backup NIC on h2 (remote datapath)."""
    pod = CXLPod(config=OasisConfig().with_(seed=seed), mode="oasis")
    h0, h1, h2 = pod.add_host(), pod.add_host(), pod.add_host()
    nic0 = pod.add_nic(h0)
    pod.add_nic(h2, is_backup=True)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=SERVER_IP)
    EchoServer(pod.sim, inst)
    device = pod.add_block_device(inst, ssd)
    client = pod.add_external_client(ip=CLIENT_IP)
    return pod, inst, nic0, ssd, device, client


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan.from_json(json.dumps(DEFAULT_PLAN))
        again = FaultPlan.from_json(plan.to_json())
        assert again.name == plan.name
        assert [s.to_dict() for s in again.faults] == \
               [s.to_dict() for s in plan.faults]

    def test_bare_list_accepted(self):
        plan = FaultPlan.from_json('[{"kind": "switch.drop", "at": 0.1}]')
        assert len(plan.faults) == 1 and plan.faults[0].kind == "switch.drop"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="gpu.meltdown", at=0.1).validate()

    def test_at_and_window_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="switch.drop", at=0.1, window=(0.0, 1.0)).validate()
        with pytest.raises(ConfigError):
            FaultSpec(kind="switch.drop").validate()

    def test_duration_rejected_for_one_shot_kinds(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="ssd.media_error", at=0.1, duration=0.5).validate()

    def test_every_advertised_kind_validates(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind=kind, at=0.1).validate()

    def test_window_resolution_is_seed_deterministic(self):
        plan = FaultPlan([
            FaultSpec(kind="switch.drop", window=(0.0, 1.0)),
            FaultSpec(kind="ssd.media_error", window=(0.0, 1.0)),
        ], name="p")
        t1 = [rf.time for rf in sorted(plan.resolve(RngFactory(3)),
                                       key=lambda rf: rf.index)]
        t2 = [rf.time for rf in sorted(plan.resolve(RngFactory(3)),
                                       key=lambda rf: rf.index)]
        t3 = [rf.time for rf in sorted(plan.resolve(RngFactory(4)),
                                       key=lambda rf: rf.index)]
        assert t1 == t2
        assert t1 != t3
        # Each spec has its own substream: the draws differ from each other.
        assert t1[0] != t1[1]
        for t in t1:
            assert 0.0 <= t < 1.0

    def test_resolved_order_is_time_sorted(self):
        plan = FaultPlan([
            FaultSpec(kind="switch.drop", at=0.5),
            FaultSpec(kind="switch.duplicate", at=0.1),
        ])
        resolved = plan.resolve(RngFactory(1))
        assert [rf.time for rf in resolved] == [0.1, 0.5]


class TestReplayIdentity:
    def test_same_seed_reproduces_fault_sequence_and_verdict(self):
        results = [run_chaos(seed=13, duration_s=0.25, settle_s=0.2,
                             verbose=False) for _ in range(2)]
        a, b = results
        assert a["events"] == b["events"] and a["events"]
        assert a["verdict"].checks == b["verdict"].checks
        assert ([repr(v) for v in a["verdict"].violations]
                == [repr(v) for v in b["verdict"].violations])
        assert a["echo"] == b["echo"]
        assert a["blockio"] == b["blockio"]
        assert a["recovery"] == b["recovery"]

    def test_different_seed_changes_fault_times(self):
        a = run_chaos(seed=13, duration_s=0.25, settle_s=0.2, verbose=False)
        b = run_chaos(seed=14, duration_s=0.25, settle_s=0.2, verbose=False)
        assert a["events"] != b["events"]

    def test_default_chaos_run_holds_invariants(self):
        result = run_chaos(seed=7, duration_s=0.3, verbose=False)
        assert result["ok"], result["verdict"].render()
        # The run must actually have exercised faults and recoveries.
        assert result["injector"].injected
        recovery = result["recovery"]
        assert sum(v for k, v in recovery.items()
                   if k.endswith((".tx_retries", ".retries"))) > 0
        assert recovery["allocator.failovers"] >= 1


class TestStorageRetryPath:
    def test_media_errors_are_retried_not_surfaced(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        statuses = []
        pod.run(0.01)
        ssd.inject_media_error(2)
        for i in range(4):
            device.write(16 + i, b"\xbb" * device.block_size,
                         lambda status: statuses.append(status))
        pod.run(0.2)
        frontend = pod.storage_frontends[inst.host.name]
        assert statuses == [0, 0, 0, 0]
        assert ssd.media_errors == 2
        assert frontend.retries >= 2
        assert frontend.giveups == 0
        assert frontend.inflight == 0
        pod.stop()

    def test_retry_exhaustion_surfaces_error(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        statuses = []
        pod.run(0.01)
        max_retries = pod.config.retry.storage_max_retries
        ssd.inject_media_error(max_retries + 1)   # outlives every attempt
        device.read(0, 1, lambda status, data: statuses.append(status))
        pod.run(0.3)
        frontend = pod.storage_frontends[inst.host.name]
        assert statuses and statuses[0] != 0
        assert frontend.giveups == 1
        assert frontend.inflight == 0
        pod.stop()

    def test_ssd_outage_times_out_and_gives_up(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        statuses = []
        pod.run(0.01)
        plan = FaultPlan([FaultSpec(kind="ssd.fail", target=ssd.name,
                                    at=pod.sim.now + 0.001)])
        pod.inject_faults(plan)
        pod.run(0.002)
        device.read(0, 1, lambda status, data: statuses.append(status))
        # Enough time for every per-attempt deadline to expire.
        retry = pod.config.retry
        budget = ((retry.storage_max_retries + 1)
                  * retry.storage_timeout_ms * 1e-3 + 0.1)
        pod.run(budget)
        frontend = pod.storage_frontends[inst.host.name]
        assert statuses and statuses[0] != 0
        assert frontend.inflight == 0
        assert frontend.giveups >= 1
        pod.stop()

    def test_writeback_loss_heals_through_storage_retry(self):
        # Drop the writeback of a write buffer: the SSD stores stale bytes,
        # but the echoed write itself still completes and the pool accounting
        # conserves -- the damage is confined to the armed line count.
        pod, inst, nic0, ssd, device, client = build_pod()
        pod.run(0.01)
        cache = inst.host.shared.cache
        lost = []
        cache.inject_writeback_fault(count=1, mode="drop",
                                     on_fault=lambda i, c, m: lost.append(i))
        statuses = []
        device.write(64, b"\xab" * device.block_size,
                     lambda status: statuses.append(status))
        pod.run(0.1)
        assert statuses == [0]
        assert lost and cache.stats.writebacks_lost == 1
        pod.stop()


class TestNetRetryPath:
    def test_dma_abort_retries_via_obs_counters(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=2000.0,
                          metrics=pod.metrics)
        echo.start(0.1)
        pod.run(0.05)
        nic0.inject_dma_abort(2)
        pod.run(0.15)
        pod.stop()
        backend = pod.backends[nic0.name]
        # The retry path demonstrably fired, visible through the registry.
        assert pod.metrics.value("driver_ops", driver=backend.name,
                                 op="tx_retries") >= 2
        assert pod.metrics.value("nic_dma_aborts", device=nic0.name,
                                 host="h0") == 2
        assert backend.tx_giveups == 0
        # ... and the aborted packets were retransparently delivered.
        assert echo.stats.received == echo.stats.sent

    def test_tx_completions_conserved_under_aborts(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        checker = InvariantChecker(pod).install()
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=2000.0)
        echo.start(0.1)
        pod.run(0.05)
        nic0.inject_dma_abort(3)
        pod.run(0.2)
        pod.stop()
        verdict = checker.finish()
        assert verdict.ok, verdict.render()


class TestFlowConservationUnderFaults:
    def test_retried_flows_still_telescope(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        pod.enable_flow_tracing()
        workload = BlockWorkload(pod.sim, device, rate_iops=2000.0,
                                 rng=pod.rng.get("blockio"), flows=pod.flows)
        workload.start(0.1)
        pod.run(0.02)
        ssd.inject_media_error(3)
        pod.run(0.25)
        pod.stop()
        frontend = pod.storage_frontends[inst.host.name]
        assert frontend.retries >= 3
        assert workload.stats.errors == 0
        assert workload.stats.completed == workload.stats.submitted
        # Every completed flow record telescopes, including the retried ones.
        assert pod.flows.check_conservation() == []
        retried = [r for r in pod.flows.records
                   if any(seg.name == "sfe.retry" for seg in r.segments)]
        assert retried, "no flow recorded its retry stage"


class TestInjectorLinkFaults:
    def test_throttle_slows_and_recovers(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        base = pod.pool.transfer_time_s(4096, host="h0")
        plan = FaultPlan([FaultSpec(kind="cxl.throttle", at=0.01,
                                    duration=0.02,
                                    params={"factor": 10.0})])
        injector = pod.inject_faults(plan)
        pod.run(0.015)
        assert pod.pool.transfer_time_s(4096, host="h0") == \
            pytest.approx(10.0 * base)
        pod.run(0.03)
        assert pod.pool.transfer_time_s(4096, host="h0") == pytest.approx(base)
        assert [e.phase for e in injector.events] == ["inject", "recover"]
        pod.stop()

    def test_host_scoped_spike_only_hits_that_host(self):
        pod, inst, nic0, ssd, device, client = build_pod()
        plan = FaultPlan([FaultSpec(kind="cxl.latency_spike", target="h0",
                                    at=0.01, duration=0.05,
                                    params={"extra_us": 5.0})])
        pod.inject_faults(plan)
        pod.run(0.02)
        base = 4096 / pod.config.cxl.link_bytes_per_sec
        assert pod.pool.transfer_time_s(4096, host="h0") == \
            pytest.approx(base + 5e-6)
        assert pod.pool.transfer_time_s(4096, host="h1") == pytest.approx(base)
        pod.stop()

    @pytest.mark.parametrize("target", ["h5", None])
    def test_spike_reaches_a_host_outside_group_zero(self, target):
        """A host's CXL link is on its own group's pool: a spike aimed at a
        pool1 host, or at every link, delays that host's DMA by ``extra_us``
        and its recovery takes the delay away again."""
        pod = RackBuilder(hosts=8, pools=2).build()
        host = pod.hosts[5]
        assert host.group is pod.groups[1]
        pod.inject_faults(FaultPlan([FaultSpec(
            kind="cxl.latency_spike", target=target, at=0.01, duration=0.02,
            params={"extra_us": 5.0})]))
        delays = []
        for until in (0.005, 0.015, 0.04):     # before, during, after
            pod.run(until - pod.sim.now)
            delays.append(host.link_transfer_delay(4096, direction="read"))
        pod.stop()
        base = 4096 / pod.config.cxl.link_bytes_per_sec
        assert delays == pytest.approx([base, base + 5e-6, base])

    @pytest.mark.parametrize("target", ["h5", None])
    def test_negative_spike_is_refused_and_no_pool_keeps_it(self, target):
        """``extra_us: -5`` used to be installed on every targeted pool and
        reach the kernel as a negative delay.  The pool refuses it at the
        injection, before any pool changes: no link anywhere is degraded and
        the injector logs nothing."""
        pod = RackBuilder(hosts=8, pools=2).build()
        injector = pod.inject_faults(FaultPlan([FaultSpec(
            kind="cxl.latency_spike", target=target, at=0.01, duration=0.02,
            params={"extra_us": -5.0})]))
        with pytest.raises(MemoryFault, match="extra latency"):
            pod.run(0.015)
        assert not any(group.pool.link_fault_active(host.name)
                       for group in pod.groups for host in pod.hosts)
        assert injector.events == []
        pod.stop()
