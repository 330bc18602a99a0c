"""One pod shape (DESIGN §3f): pool groups are data on the pod.

* **per-group checker** -- the end-of-run control-plane checks run once per
  pool group against that group's leader and Raft nodes, so every group's
  replicas are compared (the parent compared all of them with the *first*
  shard's leader and skipped the rest);
* **sharp edges** -- an out-of-range ``add_host(pool=k)``, a second
  ``enable_raft()`` and a cross-pool pin fail loudly;
* **topology equivalence** -- the fig10 cell on a default pod and on a
  one-pool rack is the same simulation, event for event;
* **rack telemetry** -- every group's pool and allocator is exported.

``CHAOS_MAX_EXAMPLES`` (raised in the nightly sweep) scales how many seeds
the checker and equivalence cases replay under.
"""

import json
import os

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod, RackBuilder, RackPod
from repro.errors import ConfigError
from repro.experiments.common import CLIENT_IP, SERVER_IP
from repro.net.packet import make_ip
from repro.workloads.echo import EchoClient, EchoServer

SEEDS = range(17, 17 + max(1, int(os.environ.get("CHAOS_MAX_EXAMPLES", 25))
                           // 25))


def replicated_rack(seed=11):
    """8 hosts / 2 pools, 3 replicas per group, 3 placements in pool0 and 1
    in pool1 -- so the two groups' logs have different lengths."""
    pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=0,
                      config=OasisConfig().with_(seed=seed)).build()
    pod.enable_raft(3)
    pod.run(0.25)           # both groups elect their leaders
    checker = pod.check_invariants()
    for k, host in enumerate((0, 1, 2, 4)):
        pod.allocator.place_instance(make_ip(10, 5, 0, k + 1),
                                     pod.hosts[host].name, 0.25)
    pod.run(0.3)
    return pod, checker


@pytest.mark.parametrize("seed", SEEDS)
class TestPerGroupChecker:
    def test_every_groups_replicas_are_compared(self, seed):
        pod, checker = replicated_rack(seed)
        applied = [[node.last_applied for node in pod.raft_nodes
                    if node.node_id in shard.replicas]
                   for shard in pod.allocator.shards.values()]
        assert applied[0] != applied[1]     # what hid pool1 at the parent
        verdict = checker.finish()
        pod.stop()
        assert verdict.ok, verdict.render()
        assert verdict.checks["replica-convergence"] == 6
        assert verdict.checks["control-quiesce"] == 2

    def test_tampered_pool1_replica_is_reported(self, seed):
        pod, checker = replicated_rack(seed)
        replica = pod.allocator.shards["pool1"].replicas["alloc-pool1-2"]
        replica.state.tables["nic"].assignments[make_ip(10, 5, 9, 9)] = "nic-h4"
        verdict = checker.finish()
        pod.stop()
        assert [v.invariant for v in verdict.violations] == [
            "replica-convergence"]
        assert "alloc-pool1-2" in verdict.violations[0].detail

    def test_failed_device_checked_against_its_own_group(self, seed):
        """A failover in pool1 is counted once there, whatever pool0's
        leader is doing."""
        pod, checker = replicated_rack(seed)
        shards = pod.allocator.shards
        pod.allocator.on_failure_report(
            shards["pool1"].assignments[make_ip(10, 5, 0, 4)])
        shards["pool0"].leader_node().crash()
        pod.run(0.1)
        verdict = checker.finish()
        pod.stop()
        assert verdict.ok, verdict.render()
        # pool1: one log entry + one failed device; pool0 is leaderless, so
        # only its quiesce probe is counted.
        assert verdict.checks["failover-exactly-once"] == 2
        assert verdict.checks["control-quiesce"] == 2
        assert verdict.checks["replica-convergence"] == 3


class TestSharpEdges:
    @pytest.mark.parametrize("pool", [7, -1, 2])
    def test_add_host_pool_out_of_range(self, pool):
        pod = RackPod(pools=2)
        with pytest.raises(ConfigError, match="pool must be in range"):
            pod.add_host(pool=pool)
        assert pod.hosts == [] and all(not g.hosts for g in pod.groups)

    def test_default_pod_has_one_group(self):
        pod = CXLPod()
        with pytest.raises(ConfigError):
            pod.add_host(pool=1)
        host = pod.add_host()
        (group,) = pod.groups
        assert host.group is group and group.hosts == [host]
        assert (group.pool, group.regions, group.allocator) == (
            pod.pool, pod.regions, pod.allocator)

    @pytest.mark.parametrize("build", [
        lambda: CXLPod(),
        lambda: RackPod(pools=2)], ids=["pod", "rack"])
    def test_second_enable_raft_is_refused(self, build):
        pod = build()
        for _ in range(3):
            pod.add_nic(pod.add_host())
        pod.enable_raft(3)
        nodes = list(pod.raft_nodes)
        with pytest.raises(ConfigError, match="already"):
            pod.enable_raft(3)
        assert pod.raft_nodes == nodes
        pod.run(0.3)
        for group in pod.groups:
            leaders = [n for n in pod.raft_nodes if n.is_leader
                       and n.node_id in group.allocator.replicas]
            assert len(leaders) == 1
        snapshot = pod.metrics.snapshot()
        assert snapshot.total("raft_is_leader") == len(pod.groups)
        pod.stop()

    @pytest.mark.parametrize("kwargs", [
        dict(ssds_per_host=-1), dict(backup_nics_per_pool=-2),
        dict(port_limit=0), dict(port_limit=-3)])
    def test_rack_builder_refuses_negative_counts_and_port_limits(self, kwargs):
        """A negative device count used to build a rack whose
        ``device_count()`` disagreed with it (8 devices against 0), and
        ``port_limit=0`` silently meant one head per device where the CLI
        documents 0 as "no limit" (it maps 0 to ``None``)."""
        with pytest.raises(ConfigError):
            RackBuilder(hosts=4, pools=2, **kwargs)
        builder = RackBuilder(hosts=4, pools=2, ssds_per_host=0,
                              backup_nics_per_pool=0, port_limit=None)
        assert builder.device_count() == 8
        pod = builder.build()
        assert len(pod.nics) + len(pod.storage_backends) == 8
        pod.stop()

    def test_cross_pool_pin_is_refused(self):
        pod = RackBuilder(hosts=4, pools=2, ssds_per_host=1).build()
        h0, h2 = pod.groups[0].hosts[0], pod.groups[1].hosts[0]
        with pytest.raises(ConfigError, match="share a CXL pool"):
            pod.add_instance(h0, ip=SERVER_IP, nic=pod.nics[f"nic-{h2.name}"])
        inst = pod.add_instance(h0, ip=make_ip(10, 0, 0, 2))
        ssd = next(b.ssd for b in pod.storage_backends.values()
                   if b.host is h2)
        with pytest.raises(ConfigError, match="share a CXL pool"):
            pod.add_block_device(inst, ssd=ssd)
        pod.stop()


def _fig10_cell(pod):
    """2 hosts, NIC on h0, backup on h1, instance on h1, 20 kpps Poisson."""
    h0, h1 = pod.add_host(), pod.add_host()
    nic0 = pod.add_nic(h0)
    pod.add_nic(h1, is_backup=True)
    EchoServer(pod.sim, pod.add_instance(h1, ip=SERVER_IP, nic=nic0))
    client = EchoClient(pod.sim, pod.add_external_client(ip=CLIENT_IP),
                        SERVER_IP, packet_size=256, rate_pps=20_000.0,
                        rng=pod.rng.get("echo-client"), poisson=True)
    client.start(0.05)
    pod.run(0.06)
    pod.stop()
    return pod.sim.processed_events, list(client.stats.latencies_us)


@pytest.mark.parametrize("seed", SEEDS)
class TestTopologyEquivalence:
    def test_default_pod_equals_one_pool_rack(self, seed):
        config = OasisConfig().with_(seed=seed)
        events, latencies = _fig10_cell(CXLPod(config=config))
        rack_events, rack_latencies = _fig10_cell(
            RackPod(config=config, pools=1))
        assert events == rack_events
        assert latencies == rack_latencies
        assert len(latencies) > 900
        if seed == 17:
            assert events == 13_829        # schedule version 3

    def test_idle_sibling_group_changes_nothing(self, seed):
        """A second, empty pool group is data, not behaviour."""
        config = OasisConfig().with_(seed=seed)
        assert (_fig10_cell(RackPod(config=config, pools=2))
                == _fig10_cell(CXLPod(config=config)))


class TestRackTelemetry:
    def test_every_groups_pool_and_allocator_is_exported(self):
        pod = RackBuilder(hosts=4, pools=2, ssds_per_host=0).build()
        for k, host in enumerate(pod.hosts):
            ip = make_ip(10, 0, 0, k + 1)
            EchoServer(pod.sim, pod.add_instance(host, ip=ip))
            EchoClient(pod.sim, pod.add_external_client(
                ip=make_ip(10, 0, 9, k + 1)), ip, rate_pps=5_000.0).start(0.01)
        pod.run(0.2)        # telemetry records reach every group's allocator
        snapshot = pod.metrics.snapshot()
        pod.stop()
        by_category = snapshot.aggregate("cxl_link_bytes", by=("category",))
        assert ({c: int(v) for (c,), v in by_category.items()}
                == pod.cxl_traffic_by_category())
        linked = {host for (host, _d), v in snapshot.aggregate(
            "cxl_link_bytes", by=("host", "direction")).items() if v}
        assert linked == {h.name for h in pod.hosts}
        shards = pod.allocator.shards.values()
        assert all(s.epochs.grants == 2 for s in shards)
        assert snapshot.total("fence_epoch_grants") == 4
        assert snapshot.total("allocator_telemetry_records") == sum(
            s.telemetry_store.records_ingested for s in shards) > 0
        devices = {d for (d, _k), _v in snapshot.aggregate(
            "allocator_device_capacity", by=("device", "kind")).items()}
        assert devices == set(pod.nics)


class TestRackCheckCli:
    ARGS = ["--hosts", "4", "--pools", "2", "--churn", "8",
            "--duration", "0.01", "--check", "--json"]

    def test_check_runs_the_per_group_checker(self, capsys):
        from repro.experiments.rack import main_rack

        assert main_rack(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "verdict" not in doc and doc["converged"] is True
        assert doc["commits_dropped"] == 0

    def test_violated_verdict_exits_1(self, capsys, monkeypatch):
        from repro.experiments.rack import main_rack
        from repro.faults.invariants import InvariantChecker

        groups = []

        def tampered(self, allocator):
            groups.append(allocator)
            self.violate("replica-convergence", "forced by the test")

        monkeypatch.setattr(InvariantChecker, "_finish_control_plane",
                            tampered)
        assert main_rack(self.ARGS) == 1
        assert len(groups) == 2             # once per pool group
        out = capsys.readouterr().out
        assert "rack: FAIL" in out and "forced by the test" in out

    def test_commit_latency_cap_fails_loudly(self, capsys, monkeypatch):
        """Past the cap the p99 would read a prefix of the run: the dropped
        samples are counted and ``--check`` exits 1 naming the cap."""
        from repro.core.pod import RackBuilder
        from repro.experiments.rack import main_rack

        build = RackBuilder.build
        shards = []

        def capped_build(self):
            pod = build(self)
            for group in pod.groups:
                group.allocator._commit_latency_cap = 3
                shards.append(group.allocator)
            return pod

        monkeypatch.setattr(RackBuilder, "build", capped_build)
        assert main_rack(self.ARGS) == 1
        out = capsys.readouterr().out
        doc = json.loads(out[:out.index("rack: FAIL")])
        assert doc["commits"] == sum(len(s.commit_latencies) for s in shards)
        assert all(len(s.commit_latencies) <= 3 for s in shards)
        assert doc["commits_dropped"] == sum(
            s.commit_latencies_dropped for s in shards) > 0
        assert "_commit_latency_cap" in out[out.index("rack: FAIL"):]
