"""Integration tests for NIC failover and graceful migration (§3.3.3-§3.3.4)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.allocator import LoadBalancer
from repro.core.allocator.allocator import PodAllocator
from repro.core.netengine.backend import NetBackend
from repro.core.pod import CXLPod, RackBuilder
from repro.net.packet import make_ip
from repro.sim.core import MSEC
from repro.workloads.echo import EchoClient, EchoServer

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def build_failover_pod():
    pod = CXLPod(mode="oasis")
    h0, h1 = pod.add_host(), pod.add_host()
    nic0 = pod.add_nic(h0)
    nic1 = pod.add_nic(h1, is_backup=True)
    inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
    client = pod.add_external_client(ip=CLIENT_IP)
    return pod, inst, client, nic0, nic1


class TestFailover:
    def test_instance_registered_with_backup_at_launch(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        backend1 = pod.backends[nic1.name]
        assert SERVER_IP in backend1._registry   # §3.3.3: at launch

    def test_switch_port_failure_detected_and_failed_over(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        pod.fail_switch_port(nic0)
        pod.run(0.2)
        assert pod.allocator.failovers_executed == 1
        assert pod.allocator.devices[nic0.name].failed
        record = pod.frontends["h1"].record_of(SERVER_IP)
        assert record.primary.name == nic1.name

    def test_nic_hardware_failure_also_detected(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        nic0.fail()
        pod.run(0.2)
        assert pod.allocator.failovers_executed == 1

    def test_mac_borrowed_by_backup(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        # Traffic taught the switch nic0's port.
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=5000)
        ec.start(0.05)
        pod.run(0.06)
        old_port = pod.switch.port_of_mac(nic0.mac)
        pod.fail_switch_port(nic0)
        pod.run(0.2)
        assert pod.switch.port_of_mac(nic0.mac) != old_port

    def test_traffic_resumes_after_failover(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=5000)
        ec.start(1.0)
        pod.run(0.5)
        received_before = ec.stats.received
        pod.fail_switch_port(nic0)
        pod.run(0.7)
        assert ec.stats.received > received_before + 1000

    def test_interruption_lands_near_38ms(self):
        """Figure 13: detection + allocator + notify + MAC borrow ~38 ms."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=4000)
        ec.start(1.2)
        # Inject just after a 25 ms monitor tick for worst-case detection.
        pod.run(0.502)
        pod.fail_switch_port(nic0)
        pod.run(0.9)
        gaps = np.diff(np.asarray(ec.stats.recv_times))
        interruption_ms = gaps.max() * 1000
        assert 20.0 <= interruption_ms <= 60.0

    def test_leases_moved_to_backup(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        assert pod.allocator.leases.get(SERVER_IP, nic0.name) is not None
        pod.fail_switch_port(nic0)
        pod.run(0.2)
        assert pod.allocator.leases.get(SERVER_IP, nic1.name) is not None
        assert pod.allocator.assignments[SERVER_IP] == nic1.name

    def test_failure_reported_only_once(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        pod.fail_switch_port(nic0)
        pod.run(0.5)   # many monitor ticks while down
        assert pod.allocator.failovers_executed == 1

    def test_host_failure_inferred_from_missing_telemetry(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.allocator.start_host_monitor()
        pod.run(0.3)
        # Silence h0's backend entirely (host crash).
        backend0 = pod.backends[nic0.name]
        backend0.stop_monitors()
        backend0.stop()
        pod.run(0.6)
        assert pod.allocator.failovers_executed == 1
        assert pod.allocator.devices[nic0.name].failed


def _record_reports(pod, backend) -> list:
    """The instants at which ``backend``'s link monitor reports a failure."""
    reports = []
    client = backend.control
    report = client.report_failure

    def recording(be):
        reports.append(pod.sim.now)
        report(be)

    client.report_failure = recording
    return reports


class TestLinkMonitor:
    """Schedule version 4 (DESIGN §3e): the monitor ticks only while a tick
    can act, and reports exactly what the always-on monitor reported."""

    @staticmethod
    def _interval(pod) -> float:
        return pod.config.failover.link_monitor_interval_ms * MSEC

    def test_flap_inside_one_interval_is_reported_once(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        reports = _record_reports(pod, pod.backends[nic0.name])
        pod.run(0.1)            # ends on a tick float: that tick saw the link up
        t_down = pod.sim.now
        pod.fail_switch_port(nic0)
        pod.run(0.03)
        assert len(reports) == 1
        assert t_down < reports[0] <= t_down + self._interval(pod)
        # up and down again between two ticks: the reported flag clears only
        # at a tick that sees the link up, so this is the same failure
        first, interval = reports[0], self._interval(pod)
        pod.sim.at(first + 1.2 * interval, nic0.port.set_enabled, True)
        pod.sim.at(first + 1.6 * interval, nic0.port.set_enabled, False)
        pod.run(0.2)
        assert reports == [first]
        assert pod.allocator.failovers_executed == 1

    def test_failure_without_control_is_reported_once_control_attaches(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        backend0 = pod.backends[nic0.name]
        control = backend0.control
        reports = _record_reports(pod, backend0)
        pod.run(0.1)
        backend0.stop_monitors()
        backend0.control = None
        backend0.start_monitors()           # the link monitor only
        pod.fail_switch_port(nic0)
        pod.run(0.1)                        # four ticks with nobody to tell
        assert reports == []
        backend0.control = control
        t_attach = pod.sim.now
        pod.run(0.05)
        assert len(reports) == 1
        assert t_attach < reports[0] <= t_attach + self._interval(pod)

    def test_restore_then_second_failure_is_reported_again(self):
        pod, inst, client, nic0, nic1 = build_failover_pod()
        reports = _record_reports(pod, pod.backends[nic0.name])
        pod.run(0.1)
        pod.fail_switch_port(nic0)
        pod.run(0.05)
        assert len(reports) == 1
        nic0.port.set_enabled(True)
        pod.run(0.05)                       # a tick sees the link up
        t_down = pod.sim.now
        pod.fail_switch_port(nic0)
        pod.run(0.05)
        assert len(reports) == 2
        assert t_down < reports[1] <= t_down + self._interval(pod)

    def test_idle_rack_dispatches_no_monitor_or_retry_tick(self, monkeypatch):
        """ROADMAP item 4(a)'s rack: 2,788 of its 5,935 events per simulated
        second were link checks that found the link up and 200 were commit
        retries with nothing pending."""
        ticks = Counter()
        for cls, name in ((NetBackend, "_check_link"),
                          (PodAllocator, "_retry_pending")):
            def counted(self, method=getattr(cls, name), name=name):
                ticks[name] += 1
                return method(self)
            monkeypatch.setattr(cls, name, counted)
        pod = RackBuilder(hosts=32, pools=4).build()
        pod.enable_raft(3)
        pod.run(0.5)
        ticks.clear()
        pod.run(1.0)
        assert ticks == Counter()
        # the counters do count: a failed link is checked (and reported)
        pod.fail_switch_port(next(iter(pod.nics.values())))
        pod.run(0.05)
        assert ticks["_check_link"] == 1
        pod.stop()


class TestMigration:
    def test_graceful_migration_updates_mac_and_garp(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        pod.run(0.01)
        garps_before = pod.arp.garp_count
        pod.allocator.migrate(SERVER_IP, nic1.name)
        pod.run(0.01)
        record = pod.frontends["h1"].record_of(SERVER_IP)
        assert record.primary.name == nic1.name
        assert record.current_mac == nic1.mac
        assert pod.arp.garp_count == garps_before + 1
        assert pod.arp.lookup(SERVER_IP) == nic1.mac

    def test_grace_period_keeps_old_registration(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        pod.run(0.01)
        pod.allocator.migrate(SERVER_IP, nic1.name)
        pod.run(1.0)   # still inside the 5 s grace period
        assert SERVER_IP in pod.backends[nic0.name]._registry
        pod.run(5.0)   # grace period over
        assert SERVER_IP not in pod.backends[nic0.name]._registry

    def test_traffic_flows_after_migration(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        client = pod.add_external_client(ip=CLIENT_IP)
        EchoServer(pod.sim, inst)
        ec = EchoClient(pod.sim, client, SERVER_IP, rate_pps=5000)
        ec.start(0.2)
        pod.run(0.05)
        pod.allocator.migrate(SERVER_IP, nic1.name)
        pod.run(0.25)
        assert ec.stats.lost <= ec.stats.sent * 0.01   # ~no loss (§3.3.4)
        assert nic1.tx_frames > 0

    def test_rebalance_moves_instance_off_hottest_nic(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0, nic1 = pod.add_nic(h0), pod.add_nic(h1)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        pod.run(0.01)
        pod.allocator.devices[nic0.name].measured_load = 10e9
        pod.allocator.devices[nic1.name].measured_load = 1e9
        balancer = LoadBalancer(pod.sim, pod.allocator)
        balancer._tick()
        pod.run(0.01)
        assert balancer.migrations == 1
        assert pod.allocator.assignments[SERVER_IP] == nic1.name


class TestControlPlaneRaces:
    def test_primary_and_backup_fail_same_window_parks_then_reacquires(self):
        """Both the primary and its backup die within one detection window:
        the failover re-validates the backup at apply time, finds it dead,
        parks the instance (``failover.no_backup``) and re-acquires as soon
        as a fresh backend registers."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        nic0.fail()
        nic1.fail()
        pod.run(0.3)
        allocator = pod.allocator
        assert allocator.failover_no_backup >= 1
        assert SERVER_IP in allocator.state.tables["nic"].parked
        assert allocator.assignments.get(SERVER_IP) is None
        # Capacity returns: a new NIC registers and the parked instance
        # re-acquires onto it with a fresh lease and epoch.
        h2 = pod.add_host()
        nic2 = pod.add_nic(h2)
        pod.run(0.2)
        assert allocator.state.tables["nic"].parked == {}
        assert allocator.assignments[SERVER_IP] == nic2.name
        lease = allocator.leases.get(SERVER_IP, nic2.name)
        assert lease is not None and lease.valid(pod.sim.now)
        assert pod.frontends["h1"].record_of(SERVER_IP).primary.name == nic2.name

    def test_duplicate_reports_race_scheduled_commit(self):
        """Repeated failure reports landing before (and after) the scheduled
        ``_commit_failover`` are absorbed by the in-flight latch: one
        failover, every extra report counted."""
        pod, inst, client, nic0, nic1 = build_failover_pod()
        pod.run(0.1)
        allocator = pod.allocator
        allocator.on_failure_report(nic0.name)
        allocator.on_failure_report(nic0.name)   # before the 10 ms commit
        pod.run(0.005)                           # still inside the window
        allocator.on_failure_report(nic0.name)
        pod.run(0.3)
        allocator.on_failure_report(nic0.name)   # after the failover applied
        assert allocator.failovers_executed == 1
        assert allocator.failover_log[nic0.name] == 1
        assert allocator.duplicate_reports == 3
        assert allocator.assignments[SERVER_IP] == nic1.name

    def test_failovers_match_failed_devices(self):
        """Each failed device produces exactly one failover entry even when
        two devices fail back to back."""
        pod = CXLPod(mode="oasis")
        hosts = [pod.add_host() for _ in range(3)]
        nic0 = pod.add_nic(hosts[0])
        nic1 = pod.add_nic(hosts[1])
        pod.add_nic(hosts[2], is_backup=True)
        pod.add_instance(hosts[2], ip=SERVER_IP, nic=nic0)
        pod.run(0.1)
        nic0.fail()
        nic1.fail()
        pod.run(0.4)
        log = pod.allocator.failover_log
        assert log.get(nic0.name) == 1
        assert log.get(nic1.name) == 1
        assert pod.allocator.failovers_executed == 2


class TestFailoverRaces:
    def test_migration_onto_undetected_failed_nic_recovers(self):
        """Regression (found by the chaos suite): an instance migrated onto a
        NIC that has already failed -- but whose failure is not yet detected
        -- must be rerouted to the allocator's replacement, never back to its
        stale per-instance backup (which may be the failed NIC itself)."""
        pod = CXLPod(mode="oasis")
        hosts = [pod.add_host() for _ in range(4)]
        nic0 = pod.add_nic(hosts[0])
        nic1 = pod.add_nic(hosts[1])
        nic2 = pod.add_nic(hosts[2])
        backup = pod.add_nic(hosts[3], is_backup=True)
        inst = pod.add_instance(hosts[3], ip=SERVER_IP)   # lands on backup
        nic0.fail()                                       # not yet detected
        pod.allocator.migrate(SERVER_IP, nic0.name)       # race: onto dead NIC
        pod.run(0.3)                                      # detection + failover
        record = pod.frontends[hosts[3].name].record_of(SERVER_IP)
        assigned = pod.allocator.assignments[SERVER_IP]
        assert assigned == record.primary.name            # views agree
        assert not pod.allocator.devices[assigned].failed
        lease = pod.allocator.leases.get(SERVER_IP, assigned)
        assert lease is not None and not lease.revoked
