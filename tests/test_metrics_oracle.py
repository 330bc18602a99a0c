"""Differential oracle for the telemetry series table.

Every snapshot a pod's registry takes is compared, on the spot, with the
snapshot ``tests/reference_metrics.py`` -- the parent commit's ``collect()``
-> ``Sample`` -> dict implementation, collectors included -- takes of the same
live counter objects: ``values``, ``len``, ``names()``, ``get`` of every series
and of an absent one, ``total`` of every family, ``aggregate(name, by)`` for
every ``by`` the source tree uses, and ``delta_since`` the previous snapshot
(where a series first seen mid-run must read as 0 before it appeared).

Five scenarios: the echo cell, the three-tenant serve pod, an 8-host /
2-pool rack slice, the ``chaos --seed 7`` plan (injector kinds and link
categories appear mid-run) and a pod that gains a NIC, an SSD and a tenant
client after its first scrape.  ``CHAOS_MAX_EXAMPLES`` (nightly CI raises it)
scales how many seeds each scenario is replayed under.
"""

import os

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod, RackBuilder
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.faults import chaos
from repro.net.packet import make_ip
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.tenants import SERVE_PROFILES, TenantClient

from .reference_metrics import shadow_bindings
from .test_replay import _serve_mix_pod

#: (family, by) of every ``aggregate`` call under ``src/repro``
AGGREGATES = (
    ("nic_bytes", ("device", "host", "direction")),
    ("nic_bytes", ("device", "direction")),
    ("nic_frames", ("device", "direction")),
    ("ssd_bytes", ("device", "host", "op")),
    ("cxl_link_bytes", ("host", "direction")),
    ("cxl_link_bytes", ("category",)),
    ("device_queue_depth", ("device",)),
    ("allocator_device_allocated", ("device", "kind")),
    ("allocator_device_capacity", ("device", "kind")),
    ("allocator_device_failed", ("device", "kind")),
    ("allocator_events", ("event",)),
    ("driver_ops", ("driver", "op")),
    ("tenant_requests", ("tenant", "result")),
    ("channel_ops", ("op",)),
    ("cache_ops", ("op",)),
    ("fault_injected", ("kind",)),
    ("switch_port_tx_frames", ("port", "missing_label")),
)

SEEDS = range(17, 17 + max(1, int(os.environ.get("CHAOS_MAX_EXAMPLES", 25))
                           // 25))


class Oracle:
    """Checks every ``registry.snapshot()`` against the reference's."""

    def __init__(self, registry, reference):
        self.registry = registry
        self.reference = reference
        self.previous = None
        self.snapshots = 0
        self.grown = 0            # snapshots that saw series appear
        self._snapshot = registry.snapshot
        registry.snapshot = self.snapshot

    def snapshot(self, time: float = 0.0):
        # Reference first: both must read the same state, and the scraper
        # appends to its ring (``scraper_buffered``) right after this call.
        expected = self.reference.snapshot(time)
        got = self._snapshot(time)
        self.compare(got, expected)
        if self.previous is not None:
            before, before_expected = self.previous
            self.compare(got.delta_since(before),
                         expected.delta_since(before_expected))
            self.grown += len(got) > len(before)
            # The earlier, shorter vector still reads later series as absent.
            self.compare(before, before_expected)
        self.previous = (got, expected)
        self.snapshots += 1
        return got

    def compare(self, got, expected) -> None:
        assert got.time == expected.time
        assert got.values == expected.values
        assert len(got) == len(expected)
        assert got.names() == expected.names()
        for (name, labels), value in expected.values.items():
            assert got.get(name, -7.0, **dict(labels)) == value
        assert got.get("no_such_series", -7.0, host="h0") == -7.0
        for name in expected.names() + ["no_such_family"]:
            assert got.total(name) == expected.total(name)
        for name, by in AGGREGATES:
            assert got.aggregate(name, by=by) == expected.aggregate(name, by=by)


@pytest.fixture
def oracle(monkeypatch):
    """``watch(pod) -> Oracle``; bindings are shadowed before any pod exists."""
    reference_of = shadow_bindings(monkeypatch)
    return lambda pod: Oracle(pod.metrics, reference_of(pod.metrics))


@pytest.mark.parametrize("seed", SEEDS)
class TestSeriesTableOracle:
    def test_echo_cell(self, oracle, seed):
        pod, _inst, client_ep, _nic = build_echo_pod(
            "oasis", remote=True, config=OasisConfig().with_(seed=seed))
        watch = oracle(pod)
        client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=256,
                            rate_pps=20_000.0, rng=pod.rng.get("echo-client"),
                            poisson=True, metrics=pod.metrics)
        pod.start_telemetry(period_s=0.005)
        client.start(0.05)
        pod.run(0.07)
        pod.stop()
        assert watch.snapshots >= 13
        assert pod.metrics.value("echo_rtt_us_count",
                                 client=client.name) == client.stats.received

    def test_serve_pod_three_tenants(self, oracle, seed):
        pod, run = _serve_mix_pod(seed)
        watch = oracle(pod)
        run(third_s=0.02)
        assert watch.snapshots >= 50
        assert pod.fleet.ticks == watch.snapshots
        assert len(pod.scraper.snapshots[-1]) >= 260

    def test_rack_slice(self, oracle, seed):
        pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=1,
                          port_limit=4,
                          config=OasisConfig().with_(seed=seed)).build()
        watch = oracle(pod)
        pod.enable_raft(replicas=3)
        pod.enable_fleet_telemetry(period_s=0.01)
        pod.run(0.12)
        clients = []
        for group in pod.groups:
            for gi, host in enumerate(group.hosts):
                server_ip = make_ip(10, 0, 0, host.index + 1)
                neighbour = group.hosts[(gi + 1) % len(group.hosts)]
                EchoServer(pod.sim, pod.add_instance(
                    host, ip=server_ip, nic=pod.nics[f"nic-{neighbour.name}"]))
                endpoint = pod.add_external_client(
                    ip=make_ip(10, 0, 9, host.index + 1))
                clients.append(EchoClient(
                    pod.sim, endpoint, server_ip, packet_size=256,
                    rate_pps=20_000.0, metrics=pod.metrics,
                    rng=pod.rng.get(f"rack-client-{host.index}"),
                    poisson=True))
        for client in clients:
            client.start(0.02)
        pod.run(0.04)
        pod.stop()
        assert watch.snapshots >= 15
        assert watch.grown >= 1          # instances and clients joined mid-run
        assert len(pod.scraper.snapshots[-1]) > 2_000

    def test_chaos_plan(self, oracle, seed, monkeypatch):
        watched = []

        def build(pod_seed):
            pod, echo, blockio = build_pod(pod_seed)
            watched.append(oracle(pod))
            pod.start_telemetry(period_s=0.01)
            return pod, echo, blockio

        build_pod = chaos.build_chaos_pod
        monkeypatch.setattr(chaos, "build_chaos_pod", build)
        result = chaos.run_chaos(seed=seed - 10, duration_s=0.3, verbose=False)
        assert result["ok"]
        (watch,) = watched
        assert watch.snapshots >= 55
        assert watch.grown >= 3          # fault kinds, categories, failover
        latest = result["pod"].scraper.snapshots[-1]
        assert latest.total("fault_injected") == len(
            [e for e in result["injector"].events if e.phase == "inject"])

    def test_late_joiners(self, oracle, seed):
        """A NIC, an SSD and a tenant client bound after the first scrape."""
        pod = CXLPod(config=OasisConfig().with_(seed=seed), mode="oasis")
        watch = oracle(pod)
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        instance = pod.add_instance(h1, ip=SERVER_IP)
        pod.enable_fleet_telemetry(period_s=0.002)
        pod.run(0.005)
        first = pod.scraper.snapshots[-1]
        assert watch.snapshots == 2

        pod.add_nic(h1, name="nic-late")
        ssd = pod.add_ssd(h0)
        device = pod.add_block_device(instance, ssd)
        profiles = SERVE_PROFILES(
            pod.config.ssd.bytes_per_sec / pod.config.ssd.block_size)
        pod.enable_multi_tenant(
            {name: p.spec() for name, p in profiles.items()})
        client = TenantClient(pod.sim, device, profiles["web"],
                              rng=pod.rng.get("late/web"))
        pod.register_tenant_client(client)
        client.start(0.02)
        pod.run(0.03)
        pod.stop()

        last = pod.scraper.snapshots[-1]
        assert len(last) > len(first)
        labels = dict(tenant="web", result="ok")
        assert last.get("tenant_requests", **labels) > 0
        # Before it appeared the series is absent: default, 0 in a delta.
        assert first.get("tenant_requests", -1.0, **labels) == -1.0
        assert "tenant_requests" not in first.names()
        assert last.delta_since(first).get("tenant_requests", **labels) == \
            last.get("tenant_requests", **labels)
        assert first.delta_since(last).get("tenant_requests", -1.0,
                                           **labels) == -1.0
        levels = pod.fleet.levels
        assert set(levels["device_util"]) == {"nic-h0", "nic-late", ssd.name}
        assert "web" in levels["tenant_slo_burn"]
