"""Chaos testing: random control- and data-plane operation sequences.

Hypothesis drives random interleavings of instance launches, NIC failures,
migrations, rebalances, data-plane faults (CXL link spikes, lost cacheline
writebacks, SSD media errors, switch frame drops) and time advancement
against a live pod, then checks the control plane's global invariants:
every live instance has a healthy NIC and a valid lease, allocated
bandwidth accounting is non-negative and conserved, and the datapath still
moves packets afterwards.

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly
chaos CI job).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.pod import CXLPod
from repro.errors import AllocationError
from repro.faults import FaultPlan
from repro.net.packet import make_ip
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.openloop import OpenLoopBlockClient

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "25"))

Op = st.one_of(
    st.tuples(st.just("launch"), st.integers(0, 3)),       # host index
    st.tuples(st.just("fail_nic"), st.integers(0, 2)),     # nic index
    st.tuples(st.just("migrate"), st.integers(0, 15)),     # instance index
    st.tuples(st.just("rebalance"), st.just(0)),
    st.tuples(st.just("link_spike"), st.integers(0, 3)),   # host index
    st.tuples(st.just("wb_loss"), st.integers(0, 3)),      # host index
    st.tuples(st.just("ssd_media"), st.integers(1, 2)),    # armed count
    st.tuples(st.just("switch_drop"), st.integers(1, 2)),  # armed count
    st.tuples(st.just("overload_surge"), st.integers(12, 20)),  # x0.1 factor
    st.tuples(st.just("advance"), st.integers(1, 30)),     # x10 ms
    # Control-plane faults: crash the allocator leader (it restarts 200 ms
    # later), delay one host's notifications, renew leases, or re-deliver a
    # failure report (possibly a false positive).
    st.tuples(st.just("leader_crash"), st.just(0)),
    st.tuples(st.just("notify_delay"), st.integers(0, 3)),  # host index
    st.tuples(st.just("renew"), st.integers(0, 3)),         # host index
    st.tuples(st.just("dup_report"), st.integers(0, 2)),    # nic index
)

CONTROL_OPS = ("leader_crash", "notify_delay", "renew", "dup_report")


def build_pod():
    pod = CXLPod(mode="oasis")
    hosts = [pod.add_host() for _ in range(4)]
    nics = [pod.add_nic(hosts[i]) for i in range(3)]
    pod.add_nic(hosts[3], is_backup=True)
    ssd = pod.add_ssd(hosts[0])
    pod.enable_raft(replicas=3)
    pod.allocator.start_lease_sweeper()
    return pod, hosts, nics, ssd


def apply_control_plane_fault(pod, hosts, nics, op, arg):
    """Shared handler for the control-plane ops in the alphabet."""
    allocator = pod.allocator
    if op == "leader_crash":
        leader = allocator.leader_node()
        if leader is not None:
            leader.crash()
            pod.sim.schedule(0.2, leader.restart)
    elif op == "notify_delay":
        host = hosts[arg]
        allocator.notify.delay_extra(host.name, 0.05)
        pod.sim.schedule(0.1, allocator.notify.clear_delay, host.name)
    elif op == "renew":
        ips = [ip for ip, host in allocator.tables["nic"].hosts.items()
               if host == hosts[arg].name]
        allocator.on_frontend_telemetry(
            {"host": hosts[arg].name, "ips": ips, "time": pod.sim.now})
    elif op == "dup_report":
        nic = nics[arg]
        healthy = [d for d in allocator.devices.values() if not d.failed]
        # A report against a healthy NIC is a false positive (still a
        # legitimate failover); keep one healthy device as a target.
        if allocator.devices[nic.name].failed or len(healthy) > 1:
            allocator.on_failure_report(nic.name)


def rebalance(pod):
    """Migrate one instance from the hottest to the coldest healthy NIC."""
    allocator = pod.allocator
    nics = [d for d in allocator.devices.values()
            if not d.failed and not d.is_backup]
    if len(nics) < 2:
        return
    hottest = max(nics, key=lambda d: d.measured_load)
    coldest = min(nics, key=lambda d: d.measured_load)
    victims = [ip for ip, nic in allocator.assignments.items()
               if nic == hottest.name]
    if victims and hottest is not coldest:
        allocator.migrate(victims[0], coldest.name)


def settle(pod, rounds=12):
    """Run until the replicated allocator has an elected leader and no
    queued commands (bounded; only deterministic sim time advances)."""
    for _ in range(rounds):
        if (pod.allocator.leader_node() is not None
                and pod.allocator.pending_commands == 0):
            return
        pod.run(0.25)


def apply_overload_surge(pod, hosts, ssd, arg):
    """``overload.surge`` from the chaos alphabet: lazily attach an
    open-loop block client to the pooled SSD on first use, then multiply
    its offered rate by ``arg / 10`` for 50 ms (the fault's shape)."""
    client = getattr(pod, "_chaos_openloop", None)
    if client is None:
        try:
            inst = pod.add_instance(hosts[0], ip=make_ip(10, 0, 7, 7))
        except AllocationError:
            return   # no healthy NIC to place the instance: surge is moot
        device = pod.add_block_device(inst, ssd)
        client = OpenLoopBlockClient(
            pod.sim, device, rate_iops=2000.0,
            rng=pod.rng.get("chaos/openloop"), name="chaos-openloop")
        pod.register_load_source(client)
        client.start(10.0)
        pod._chaos_openloop = client
    factor = arg / 10.0
    for source in pod._load_sources:
        source.set_rate_multiplier(factor)

    def recover():
        for source in pod._load_sources:
            source.set_rate_multiplier(1.0)

    pod.sim.schedule(0.05, recover)


def assert_shed_conservation(pod):
    """Nothing vanishes at a storage frontend: every submission is an ok
    completion, an error completion, a shed, or still pending."""
    for frontend in pod.storage_frontends.values():
        accounted = (frontend.completed_ok + frontend.completed_error
                     + frontend.shed + len(frontend._pending))
        assert frontend.submitted == accounted, frontend.name


def apply_data_plane_fault(pod, hosts, ssd, op, arg):
    """Shared handler for the data-plane ops in the alphabet."""
    if op == "link_spike":
        host = hosts[arg]
        pod.pool.set_link_fault(host.name, derate=4.0)
        pod.sim.schedule(0.01, pod.pool.clear_link_fault, host.name)
    elif op == "wb_loss":
        hosts[arg].shared.cache.inject_writeback_fault(count=1)
    elif op == "ssd_media":
        ssd.inject_media_error(arg)
    elif op == "switch_drop":
        pod.switch.inject_drop(arg)


class TestControlPlaneChaos:
    @given(st.lists(Op, min_size=1, max_size=25))
    # A failover decided before the first leader exists waits in the queue; a
    # migrate decided meanwhile applies at once.  The failover must then move
    # only what is still on the failed NIC (it used to drag the migrated
    # instance to the backup while its frontend stayed on the new NIC).
    @example([("launch", 0), ("dup_report", 0), ("advance", 1),
              ("migrate", 0)])
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold_under_random_operations(self, ops):
        pod, hosts, nics, ssd = build_pod()
        launched = []
        next_ip = 1
        for op, arg in ops:
            if op == "launch":
                ip = make_ip(10, 0, 0, next_ip)
                next_ip += 1
                try:
                    pod.add_instance(hosts[arg], ip=ip)
                    launched.append(ip)
                except AllocationError:
                    pass   # no healthy device left: acceptable refusal
            elif op == "fail_nic":
                nic = nics[arg]
                healthy = [d for d in pod.allocator.devices.values()
                           if not d.failed]
                # Keep at least one healthy device so failover can succeed.
                if not nic.failed and len(healthy) > 1:
                    nic.fail()
            elif op == "migrate" and launched:
                ip = launched[arg % len(launched)]
                targets = [d.name for d in pod.allocator.devices.values()
                           if not d.failed and not d.is_backup]
                if targets:
                    target = targets[arg % len(targets)]
                    if pod.allocator.assignments.get(ip) != target:
                        pod.allocator.migrate(ip, target)
            elif op == "rebalance":
                rebalance(pod)
            elif op in ("link_spike", "wb_loss", "ssd_media", "switch_drop"):
                apply_data_plane_fault(pod, hosts, ssd, op, arg)
            elif op == "overload_surge":
                apply_overload_surge(pod, hosts, ssd, arg)
            elif op in CONTROL_OPS:
                apply_control_plane_fault(pod, hosts, nics, op, arg)
            elif op == "advance":
                pod.run(arg * 0.01)
        pod.run(0.3)   # let any in-flight failover settle
        settle(pod)    # ...and the replicated command queue drain
        assert_shed_conservation(pod)

        allocator = pod.allocator
        # 1. Every launched instance is assigned to a non-failed device
        #    with a valid lease.
        for ip in launched:
            nic_name = allocator.assignments.get(ip)
            assert nic_name is not None
            assert not allocator.devices[nic_name].failed
            lease = allocator.leases.get(ip, nic_name)
            assert lease is not None and not lease.revoked
        # 2. No leases on failed devices.
        for device in allocator.devices.values():
            if device.failed:
                assert allocator.leases.leases_on(device.name) == []
        # 3. Bandwidth accounting stayed sane.
        for device in allocator.devices.values():
            assert device.allocated >= -1e-9
        # 4. Frontend records agree with the allocator's map.
        for ip in launched:
            for frontend in pod.frontends.values():
                if ip in frontend._records:
                    record = frontend.record_of(ip)
                    assert record.primary.name == allocator.assignments[ip]
        pod.stop()

    @given(st.lists(Op, min_size=1, max_size=15), st.integers(0, 1000))
    @settings(max_examples=max(10, MAX_EXAMPLES // 2), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_datapath_still_works_after_chaos(self, ops, seed):
        pod, hosts, nics, ssd = build_pod()
        ip = make_ip(10, 0, 0, 200)
        inst = pod.add_instance(hosts[0], ip=ip)
        EchoServer(pod.sim, inst)
        for op, arg in ops:
            if op == "fail_nic":
                nic = nics[arg]
                healthy = [d for d in pod.allocator.devices.values()
                           if not d.failed]
                if not nic.failed and len(healthy) > 1:
                    nic.fail()
            elif op in ("link_spike", "wb_loss", "ssd_media", "switch_drop"):
                apply_data_plane_fault(pod, hosts, ssd, op, arg)
            elif op == "overload_surge":
                apply_overload_surge(pod, hosts, ssd, arg)
            elif op == "advance":
                pod.run(arg * 0.01)
            elif op == "rebalance":
                rebalance(pod)
        pod.run(0.3)
        settle(pod)   # drain any commit-gated failover before measuring
        assert_shed_conservation(pod)
        client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
        echo = EchoClient(pod.sim, client, ip, rate_pps=2000)
        # Faults armed during the op phase but not yet consumed will eat
        # echo frames -- budget for them instead of hiding them.
        armed = pod.switch._drop_next
        for host in hosts:
            armed += host.shared.cache.armed_writeback_faults
        echo.start(0.05)
        pod.run(0.1)
        assert echo.stats.received >= 0.9 * echo.stats.sent - armed
        pod.stop()

    @given(st.lists(Op, min_size=1, max_size=20))
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_valid_holder_under_interleavings(self, ops):
        """Property: however failovers, migrations, renewals, expiries,
        leader crashes and duplicate reports interleave, no instance ever
        ends up holding more than one valid NIC lease -- and any valid
        lease it holds is on its currently assigned device."""
        pod, hosts, nics, ssd = build_pod()
        launched = []
        next_ip = 1
        for op, arg in ops:
            if op == "launch":
                ip = make_ip(10, 0, 0, next_ip)
                next_ip += 1
                try:
                    pod.add_instance(hosts[arg], ip=ip)
                    launched.append(ip)
                except AllocationError:
                    pass
            elif op == "fail_nic":
                nic = nics[arg]
                healthy = [d for d in pod.allocator.devices.values()
                           if not d.failed]
                if not nic.failed and len(healthy) > 1:
                    nic.fail()
            elif op == "migrate" and launched:
                ip = launched[arg % len(launched)]
                targets = [d.name for d in pod.allocator.devices.values()
                           if not d.failed and not d.is_backup]
                if targets:
                    target = targets[arg % len(targets)]
                    if pod.allocator.assignments.get(ip) != target:
                        pod.allocator.migrate(ip, target)
            elif op in CONTROL_OPS:
                apply_control_plane_fault(pod, hosts, nics, op, arg)
            elif op == "advance":
                pod.run(arg * 0.01)
        pod.run(0.3)
        settle(pod)

        allocator = pod.allocator
        now = pod.sim.now
        for ip in launched:
            holders = [dev for (lip, dev), lease
                       in allocator.leases._by_key.items()
                       if lip == ip and dev in allocator.devices
                       and lease.valid(now)]
            assert len(holders) <= 1
            assigned = allocator.assignments.get(ip)
            assert set(holders) <= {assigned}
        pod.stop()


class TestControlFailoverPlan:
    def test_control_plan_is_deterministic_and_exactly_once(self):
        """Acceptance: the built-in ``control-failover`` plan (leader crash
        mid-failover + delayed victim notifications + duplicate reports)
        completes the failover exactly once, fences every stale post and
        replays byte-identically from the same root seed."""
        import json

        from repro.faults.chaos import CONTROL_PLAN, run_chaos

        def once():
            plan = FaultPlan.from_json(json.dumps(CONTROL_PLAN))
            return run_chaos(seed=11, plan=plan, duration_s=0.9,
                             verbose=False)

        first, second = once(), once()
        for result in (first, second):
            assert result["ok"], result["verdict"].render()
            assert result["recovery"]["allocator.failovers"] == 1
            assert result["recovery"]["allocator.pending_commands"] == 0
            fence_rejects = sum(v for k, v in result["recovery"].items()
                                if k.endswith(".fence_rejects"))
            stale = sum(v for k, v in result["recovery"].items()
                        if k.endswith(".stale_accepted"))
            assert fence_rejects >= 1
            assert stale == 0
            assert result["recovery"]["allocator.duplicate_reports"] >= 1
        assert first["events"] == second["events"]
        assert first["recovery"] == second["recovery"]
        # ... and across builds: the digest of the run as schedule version 2
        # produced it.  Lazy election timers (version 3) move no election,
        # no commit and no fence; re-pin only with an observable change.
        import hashlib
        document = json.dumps({key: first[key] for key in
                               ("events", "echo", "blockio", "recovery")},
                              sort_keys=True)
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "d966c1b9a2d9f07ed8d3739072b4d5192fa34d1f7b37efc6afbe426c1fe00f5c")


class TestEveryKindPlan:
    def test_every_kind_plan_names_every_fault_kind(self):
        """A data check: a new injector kind cannot skip the CI chaos runs."""
        from repro.faults import FAULT_KINDS
        from repro.faults.chaos import BUILTIN_PLANS

        kinds = {fault["kind"] for fault in BUILTIN_PLANS["every-kind"]["faults"]}
        assert kinds == set(FAULT_KINDS)

    def test_every_kind_injects_and_recovers_each_kind(self):
        """Each kind leaves an inject record and each kind given a duration
        a recover record; the verdict is OK and the failover, its dropped
        notification (fenced, then resynced), its delayed one and the
        second failure with no backup left all ran."""
        import json

        from repro.faults.chaos import EVERY_KIND_PLAN, run_chaos

        plan = FaultPlan.from_json(json.dumps(EVERY_KIND_PLAN))
        result = run_chaos(seed=11, plan=plan, verbose=False)
        assert result["ok"], result["verdict"].render()
        events = result["events"]
        assert {kind for _, kind, _, phase, _ in events if phase == "inject"} \
            == {spec.kind for spec in plan.faults}
        assert {kind for _, kind, _, phase, _ in events if phase == "recover"} \
            == {spec.kind for spec in plan.faults if spec.duration is not None}
        recovery = result["recovery"]
        assert recovery["allocator.failovers"] == 1
        assert recovery["allocator.failover_no_backup"] == 1
        assert recovery["notify.dropped"] == 1
        assert recovery["notify.delayed"] == 2
        assert recovery["fe-h1.resyncs"] >= 1
        assert sum(v for k, v in recovery.items()
                   if k.endswith(".stale_accepted")) == 0
        assert result["injector"].lost_writeback_lines
