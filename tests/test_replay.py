"""Deterministic replay: one root seed pins down the whole simulation.

Runs the fig10 echo cell twice with the same root seed and asserts the
metrics report snapshots are byte-identical JSON -- every packet arrival,
cache miss, channel poll and scraped counter replays exactly.  A different
seed must produce a different snapshot (the seed actually reaches the
workload's arrival process).

The chaos-plan tests extend the contract to the fault injector: a (seed,
plan) pair replays the exact fault schedule, workload counters and recovery
counters, which is what makes the artifacts dumped by a failing chaos run
actionable.

The fleet-alert tests extend it to the streaming health pipeline: same
seed, same scrape cadence, same rules -- byte-identical alert sequence
(every fire and clear at the same sim time with the same value).

The golden tests are the cross-build pin: ``tests/data/golden_*.json`` were
captured from the tree *before* the admission-stage refactor, and every
later build must reproduce them byte for byte (overload sweep with budgets
on and off, the serve solo+mix run, the fig10 metrics report) -- and
``golden_fleet.json`` from the tree before the telemetry series table (alert
log, health document and ``top --once --json`` of the seeded echo cell, and
the same for the three-tenant serve mix).  Regenerate
with ``PYTHONPATH=src python tests/test_replay.py`` only in a PR that says
it changes an observable.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.fig10 import run_echo
from repro.faults.chaos import run_chaos

GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def _snapshot(seed: int) -> dict:
    return run_echo("oasis", packet_size=256, rate_pps=20_000.0,
                    duration_s=0.05, seed=seed)


class TestDeterministicReplay:
    def test_same_seed_byte_identical_report(self):
        a = _snapshot(17)
        b = _snapshot(17)
        assert a["report_json"] == b["report_json"]
        assert a["p50"] == b["p50"] and a["p99"] == b["p99"]

    def test_different_seed_differs(self):
        a = _snapshot(17)
        b = _snapshot(18)
        assert a["report_json"] != b["report_json"]


def _chaos_snapshot(seed: int) -> str:
    """The deterministic slice of a chaos run, as canonical JSON bytes."""
    result = run_chaos(seed=seed, duration_s=0.4, settle_s=0.2,
                       verbose=False)
    return json.dumps({
        "seed": result["seed"],
        "plan": result["plan"],
        "ok": result["ok"],
        "events": result["events"],
        "echo": result["echo"],
        "blockio": result["blockio"],
        "recovery": result["recovery"],
    }, sort_keys=True)


class TestChaosPlanReplay:
    """Same seed + same plan == same fault schedule, byte for byte."""

    def test_same_seed_chaos_run_byte_identical(self):
        a = _chaos_snapshot(5)
        b = _chaos_snapshot(5)
        assert a == b

    def test_different_seed_chaos_run_differs(self):
        a = _chaos_snapshot(5)
        b = _chaos_snapshot(6)
        # Fault windows are drawn from the root seed, so the injected event
        # schedule itself must move.
        assert (json.loads(a)["events"] != json.loads(b)["events"]
                or a != b)


def _fleet_snapshot(seed: int) -> tuple:
    """(alert log, health document) of a seeded echo run, canonical JSON.

    The rule thresholds sit just under the echo workload's steady-state
    device utilization so the run both fires (under load) and clears (after
    the client stops), exercising the full alert state machine.
    """
    from repro.config import OasisConfig
    from repro.experiments.common import SERVER_IP, build_echo_pod
    from repro.obs.fleet import AlertRule
    from repro.workloads.echo import EchoClient

    rules = (AlertRule("hot_device", "device_util", 1e-4, for_s=0.01,
                       clear_below=5e-5),)
    pod, inst, client_ep, _ = build_echo_pod(
        "oasis", remote=True, config=OasisConfig().with_(seed=seed))
    fleet = pod.enable_fleet_telemetry(period_s=0.005, rules=rules)
    client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=256,
                        rate_pps=20_000.0, rng=pod.rng.get("echo-client"),
                        poisson=True, metrics=pod.metrics)
    client.start(0.05)
    pod.run(0.08)
    pod.stop()
    return (json.dumps(fleet.alert_engine.log_json(), sort_keys=True),
            json.dumps(fleet.as_dict(), sort_keys=True))


def _serve_mix_pod(seed: int):
    """``(pod, run)``: the three-tenant serve mix on a derated SSD with fleet
    telemetry at 2 ms; ``run()`` drives the 8x bg surge and stops the pod."""
    from dataclasses import replace

    from repro.config import OasisConfig
    from repro.core.pod import CXLPod
    from repro.experiments.common import SERVER_IP
    from repro.workloads.tenants import SERVE_PROFILES, TenantClient

    base = OasisConfig()
    config = base.with_(
        seed=seed, ssd=replace(base.ssd, bandwidth_gbps=0.04),
        overload=replace(base.overload, enabled=True, launch_window=2,
                         brownout_high=0.15, brownout_low=0.05))
    pod = CXLPod(config=config, mode="oasis")
    h0, h1 = pod.add_host(), pod.add_host()
    pod.add_nic(h0)
    device = pod.add_block_device(pod.add_instance(h1, ip=SERVER_IP),
                                  pod.add_ssd(h0))
    pod.enable_fleet_telemetry(period_s=0.002)
    profiles = SERVE_PROFILES(config.ssd.bytes_per_sec / config.ssd.block_size)
    pod.enable_multi_tenant({name: p.spec() for name, p in profiles.items()})
    clients = {}
    for name, profile in profiles.items():
        clients[name] = TenantClient(pod.sim, device, profile,
                                     rng=pod.rng.get(f"serve/{name}"))
        pod.register_tenant_client(clients[name])

    def run(third_s: float = 0.05) -> None:
        for client in clients.values():
            client.start(3 * third_s)
        pod.sim.at(third_s, clients["bg"].set_rate_multiplier, 8.0)
        pod.sim.at(2 * third_s, clients["bg"].set_rate_multiplier, 1.0)
        pod.run(3 * third_s + 0.05)
        pod.stop()

    return pod, run


class TestFleetAlertReplay:
    """Same seed == the same alert sequence, byte for byte."""

    def test_same_seed_alert_log_byte_identical(self):
        log_a, doc_a = _fleet_snapshot(17)
        log_b, doc_b = _fleet_snapshot(17)
        assert log_a == log_b
        assert doc_a == doc_b
        # The sequence is non-trivial: the workload drove a fire AND a clear.
        kinds = {event[3] for event in json.loads(log_a)}
        assert kinds == {"fire", "clear"}

    def test_different_seed_differs(self):
        _, doc_a = _fleet_snapshot(17)
        _, doc_b = _fleet_snapshot(18)
        # Poisson arrivals move with the root seed, so the measured
        # utilization document cannot be identical.
        assert doc_a != doc_b


def _rack_churn_outcome(batch_window_ms: float) -> tuple:
    """One seeded rack run: 24 placements, 8 releases, one failover.

    Returns (final canonical signature, converged, batches, pending).  The
    failure is injected after the churn settles so placement decisions never
    race the failover commit -- batching may only change *when* commands
    replicate, never what the final state is.
    """
    from dataclasses import replace

    from repro.config import OasisConfig
    from repro.core.pod import RackBuilder
    from repro.net.packet import make_ip

    base = OasisConfig()
    config = base.with_(seed=29, failover=replace(
        base.failover, commit_batch_window_ms=batch_window_ms))
    pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=0,
                      config=config).build()
    pod.enable_raft(replicas=3)
    pod.run(0.25)
    alloc = pod.allocator
    ips = [make_ip(10, 4, 0, i + 1) for i in range(24)]
    for k, ip in enumerate(ips):
        host = pod.hosts[k % len(pod.hosts)]
        pod.sim.schedule(0.002 * (k + 1), alloc.place_instance,
                         ip, host.name, 0.25)
    for k, ip in enumerate(ips[::3]):
        pod.sim.schedule(0.06 + 0.002 * k, alloc.release_instance, ip, 0.25)

    def _fail_first_device():
        for shard in alloc.shards.values():
            device = shard.assignments.get(ips[1])
            if device is not None:
                alloc.on_failure_report(device)

    pod.sim.schedule(0.12, _fail_first_device)
    pod.run(0.8)
    outcome = (alloc.signature(), alloc.convergence_ok(),
               alloc.batches_proposed, alloc.pending_commands)
    pod.stop()
    return outcome


class TestBatchedCommitReplay:
    """Group commit is a replication transport detail: it must never change
    what the control plane decides, only how the log entries are packed."""

    def test_batching_on_vs_off_identical_final_state(self):
        sig_off, ok_off, batches_off, pending_off = _rack_churn_outcome(0.0)
        sig_on, ok_on, batches_on, pending_on = _rack_churn_outcome(0.3)
        assert sig_on == sig_off
        assert ok_off and ok_on
        assert pending_off == 0 and pending_on == 0
        assert batches_off == 0      # batching disabled: per-command path
        assert batches_on >= 1       # batching enabled: grouped proposals

    def test_batching_replays_byte_identical(self):
        a = _rack_churn_outcome(0.3)
        b = _rack_churn_outcome(0.3)
        assert a == b

    def test_leader_crash_inside_flush_window_converges(self):
        """Flush-window timer regression: commands buffered when their
        shard's leader dies inside the window must survive in the pending
        queue and replicate after re-election (the one-shot timer re-arms;
        nothing is stranded in the batch buffer)."""
        from dataclasses import replace

        from repro.config import OasisConfig
        from repro.core.pod import RackBuilder
        from repro.net.packet import make_ip

        base = OasisConfig()
        config = base.with_(seed=31, failover=replace(
            base.failover, commit_batch_window_ms=5.0))
        pod = RackBuilder(hosts=8, pools=2, nics_per_host=2, ssds_per_host=0,
                          config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.25)
        alloc = pod.allocator
        shard = alloc.shards["pool0"]
        leader = shard.leader_node()
        assert leader is not None
        ip_a = make_ip(10, 4, 1, 1)
        ip_b = make_ip(10, 4, 1, 2)
        # Place inside the 5 ms window, then crash the leader before the
        # flush timer fires: the flush finds no leader and must leave the
        # command for the retry loop.
        pod.sim.schedule(0.001, alloc.place_instance,
                         ip_a, pod.hosts[0].name, 0.25)
        pod.sim.schedule(0.003, leader.crash)
        pod.run(0.9)   # election timeout + retry windows
        assert shard.pending_commands == 0
        assert shard.assignments[ip_a] is not None
        # Second wave after the first flush: the one-shot timer re-arms.
        alloc.place_instance(ip_b, pod.hosts[1].name, 0.25)
        pod.run(0.3)
        assert shard.pending_commands == 0
        assert shard.batches_proposed >= 1
        leader.restart()
        pod.run(0.4)
        assert alloc.convergence_ok()
        pod.stop()


def _golden_overload() -> dict:
    from repro.experiments.overload import run_overload

    return run_overload(seed=11, pre_s=0.2, surge_s=0.15, post_s=0.3)


def _golden_serve() -> dict:
    from repro.experiments.serve import run_serve

    return run_serve(seed=5, pre_s=0.05, surge_s=0.05, post_s=0.05)


def _golden_fig10() -> dict:
    return json.loads(_snapshot(17)["report_json"])


def _golden_fleet() -> dict:
    from repro.obs.cli import top

    log, doc = _fleet_snapshot(17)
    pod, run = _serve_mix_pod(5)
    run()
    return {
        "echo": {"log": json.loads(log), "doc": json.loads(doc)},
        "top": top(duration_s=0.05, once=True)["doc"],
        "serve_mix": {"log": pod.fleet.alert_engine.log_json(),
                      "doc": pod.fleet.as_dict()},
    }


GOLDENS = {"overload": _golden_overload, "serve": _golden_serve,
           "fig10": _golden_fig10, "fleet": _golden_fleet}


def _golden_bytes(name: str) -> str:
    return json.dumps(GOLDENS[name](), indent=1, sort_keys=True) + "\n"


class TestGoldenReplay:
    """This build reproduces the documents an earlier build committed."""

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_matches_committed_golden(self, name):
        golden = (GOLDEN_DIR / f"golden_{name}.json").read_text()
        assert _golden_bytes(name) == golden


if __name__ == "__main__":   # pragma: no cover - regenerates the goldens
    GOLDEN_DIR.mkdir(exist_ok=True)
    for _name in sorted(GOLDENS):
        (GOLDEN_DIR / f"golden_{_name}.json").write_text(_golden_bytes(_name))
        print(f"wrote {GOLDEN_DIR / f'golden_{_name}.json'}")
