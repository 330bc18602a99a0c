"""Rack-scale scenario: the fig10 workload on every host simultaneously.

``python -m repro rack`` builds a :class:`~repro.core.pod.RackBuilder`
topology (default: the ROADMAP's 32 hosts / 4 pools / ~100 pooled devices,
port limit 4), runs the paper's UDP echo on **every** host at once -- each
instance pinned to a *different* host's NIC inside its pool, so all traffic
crosses the pool -- and drives a synthetic place/release churn through the
sharded, batch-committed control plane while the datapath is under load.

Headline numbers:

* ``wall_per_sim_sec`` -- wall-clock seconds per simulated second at rack
  scale (``events_per_sec`` beside it falls when a change removes events);
* ``commit_p50_ms`` / ``commit_p99_ms`` -- decide-to-leader-applied latency
  of replicated control commands under group commit;
* ``control_commits_per_sec`` -- control-plane decision throughput;
* ``converged`` -- every Raft replica of every shard matches its shard's
  canonical state at the end of the run.

``--check`` exits 1 unless the shards converged, the proposal queue drained,
every commit latency was kept (none fell past the allocator's sample cap, so
the p99 is of the whole run) and ``commit_p99_ms`` <=
``COMMIT_P99_CEILING_MS`` (simulated time, exact on any machine).  It also
installs the chaos invariant probes
(:meth:`~repro.core.pod.CXLPod.check_invariants`, no periodic task, so the
event count does not move) and fails on a violated verdict: the per-group
control-plane checks of DESIGN §3f run against every pool group here.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from ..config import OasisConfig
from ..core.pod import RackBuilder
from ..net.packet import make_ip
from ..workloads.echo import EchoClient, EchoServer
from .common import scale

__all__ = ["run_rack", "main_rack"]

#: 0.2 ms group-commit window plus replication transport.
COMMIT_P99_CEILING_MS = 0.5


def run_rack(
    hosts: int = 32,
    pools: int = 4,
    nics_per_host: int = 2,
    ssds_per_host: int = 1,
    port_limit: Optional[int] = 4,
    packet_size: int = 256,
    rate_pps: float = 20_000.0,
    duration_s: Optional[float] = None,
    seed: int = 21,
    churn: int = 256,
    batch_window_ms: float = 0.2,
    replicas: int = 3,
    check: bool = False,
) -> dict:
    """Sustain the fig10 echo on every host; return the headline metrics
    (plus the invariant checker's ``"verdict"`` when ``check``)."""
    if duration_s is None:
        duration_s = max(0.02, 0.08 * scale())
    base = OasisConfig()
    config = base.with_(
        seed=seed,
        failover=replace(base.failover,
                         commit_batch_window_ms=batch_window_ms))
    builder = RackBuilder(hosts=hosts, pools=pools,
                          nics_per_host=nics_per_host,
                          ssds_per_host=ssds_per_host,
                          port_limit=port_limit, config=config)
    pod = builder.build()
    if replicas > 0:
        pod.enable_raft(replicas=replicas)
        # Let every shard elect its leader before admitting load.
        pod.run(0.12)
    pod.allocator.start_lease_sweeper()

    # One echo server per host, pinned to the *next* host's NIC inside the
    # same pool so every request crosses the pool; one seeded open client.
    clients = []
    for group in pod.groups:
        for gi, host in enumerate(group.hosts):
            i = host.index
            server_ip = make_ip(10, 0, 0, i + 1)
            next_host = group.hosts[(gi + 1) % len(group.hosts)]
            nic = pod.nics[f"nic-{next_host.name}"]
            inst = pod.add_instance(host, ip=server_ip, nic=nic)
            EchoServer(pod.sim, inst)
            endpoint = pod.add_external_client(ip=make_ip(10, 0, 9, i + 1))
            clients.append(EchoClient(
                pod.sim, endpoint, server_ip, packet_size=packet_size,
                rate_pps=rate_pps, rng=pod.rng.get(f"rack-client-{i}"),
                poisson=True, metrics=pod.metrics))

    # Control-plane churn: synthetic leases placed/released while the
    # datapath is hot, so commit latency is measured under load.
    churn_stats = {"placed": 0, "released": 0}
    if churn > 0:
        interval = duration_s / (churn + 1)
        hold = 2.0 * interval

        def _place(ip: int, host_name: str) -> None:
            pod.allocator.place_instance(ip, host_name, 0.2)
            churn_stats["placed"] += 1

        def _release(ip: int) -> None:
            pod.allocator.release_instance(ip, 0.2)
            churn_stats["released"] += 1

        for j in range(churn):
            ip = make_ip(10, 1, j >> 8, (j & 0xFF) + 1)
            host = pod.hosts[j % len(pod.hosts)]
            pod.sim.schedule((j + 1) * interval, _place, ip, host.name)
            pod.sim.schedule((j + 1) * interval + hold, _release, ip)

    for client in clients:
        client.start(duration_s)
    checker = pod.check_invariants() if check else None

    before = pod.sim.processed_events
    t0 = time.perf_counter()
    pod.run(duration_s + 0.005)
    wall = time.perf_counter() - t0
    events = pod.sim.processed_events - before
    queued, tombstones = pod.sim.pending, pod.sim.tombstones

    # Settle: let the last group-commit windows flush and replicate.
    pod.run(0.1)
    pod.stop()

    latencies = np.concatenate(
        [np.asarray(c.stats.latencies_us, dtype=float) for c in clients
         if c.stats.latencies_us] or [np.zeros(1)])
    commits = np.asarray(pod.allocator.commit_latencies, dtype=float)
    converged = pod.allocator.convergence_ok()
    result = {
        "hosts": hosts,
        "pools": pools,
        "devices": builder.device_count(),
        "port_limit": port_limit,
        "batch_window_ms": batch_window_ms,
        "replicas": replicas,
        "seed": seed,
        "duration_s": duration_s,
        "rate_pps": rate_pps,
        "packet_size": packet_size,
        "events": int(events),
        "queued": queued,           # live entries as the window closes
        "tombstones": tombstones,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "wall_per_sim_sec": wall / duration_s,
        "rtt_p50_us": float(np.percentile(latencies, 50)),
        "rtt_p99_us": float(np.percentile(latencies, 99)),
        "echo_replies": int(sum(len(c.stats.latencies_us) for c in clients)),
        "commits": int(commits.size),
        # samples past the allocator's cap: percentiles then read a prefix
        "commits_dropped": pod.allocator.commit_latencies_dropped,
        "commit_p50_ms": (float(np.percentile(commits, 50)) * 1e3
                          if commits.size else 0.0),
        "commit_p99_ms": (float(np.percentile(commits, 99)) * 1e3
                          if commits.size else 0.0),
        "control_commits_per_sec": (commits.size / duration_s
                                    if duration_s > 0 else 0.0),
        "batches_proposed": pod.allocator.batches_proposed,
        "churn_placed": churn_stats["placed"],
        "churn_released": churn_stats["released"],
        "pending_after": pod.allocator.pending_commands,
        "converged": converged,
        # per shard; history kept again shows here first (DESIGN §3b)
        "retained": {group.name: group.allocator.retained()
                     for group in pod.groups},
        # per pool: lines held; recycled RX buffers leave it (DESIGN §3h)
        "pool_lines": {group.name: group.pool.footprint()[0]
                       for group in pod.groups},
    }
    if checker is not None:
        result["verdict"] = checker.finish()
    return result


def main_rack(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro rack",
        description="fig10 echo on every host of a sharded, batch-committed "
                    "rack (headline: events/sec + commit latency)")
    parser.add_argument("--hosts", type=int, default=32)
    parser.add_argument("--pools", type=int, default=4)
    parser.add_argument("--nics", type=int, default=2,
                        help="pooled NICs per host (default 2)")
    parser.add_argument("--ssds", type=int, default=1,
                        help="pooled SSDs per host (default 1)")
    parser.add_argument("--port-limit", type=int, default=4,
                        help="multi-headed device head count (default 4; "
                             "0 disables the limit)")
    parser.add_argument("--rate", type=float, default=20_000.0,
                        help="per-host echo rate in pps (default 20k)")
    parser.add_argument("--packet-size", type=int, default=256)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default 0.08 * OASIS_SCALE)")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--churn", type=int, default=256,
                        help="synthetic place/release pairs during the run")
    parser.add_argument("--batch-window-ms", type=float, default=0.2,
                        help="group-commit flush window (0 disables batching)")
    parser.add_argument("--replicas", type=int, default=3,
                        help="Raft replicas per pool shard (0 disables Raft)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless replicas converged, the "
                             "command queue drained, no commit latency "
                             "fell past the sample cap, commit p99 stayed "
                             f"within {COMMIT_P99_CEILING_MS} ms and the "
                             "invariant checker's verdict is OK")
    args = parser.parse_args(argv)

    result = run_rack(
        hosts=args.hosts, pools=args.pools, nics_per_host=args.nics,
        ssds_per_host=args.ssds,
        port_limit=(args.port_limit or None), packet_size=args.packet_size,
        rate_pps=args.rate, duration_s=args.duration, seed=args.seed,
        churn=args.churn, batch_window_ms=args.batch_window_ms,
        replicas=args.replicas, check=args.check,
    )
    verdict = result.pop("verdict", None)
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        print(f"rack: {result['hosts']} hosts / {result['pools']} pools / "
              f"{result['devices']} pooled devices "
              f"(port limit {result['port_limit']})")
        print(f"  echo     {result['echo_replies']} replies, "
              f"RTT p50 {result['rtt_p50_us']:.2f} us, "
              f"p99 {result['rtt_p99_us']:.2f} us")
        print(f"  kernel   {result['wall_per_sim_sec']:.2f} wall-s per sim-s "
              f"over {result['events']:,} events "
              f"({result['events_per_sec']:,.0f} events/s), "
              f"queued {result['queued']} tombstones {result['tombstones']}"
              "; retained "
              "log/dedup " + " ".join(
                  f"{name}={kept['log_entries']}/{kept['dedup_window']}"
                  for name, kept in result["retained"].items())
              + "; pool lines " + " ".join(
                  f"{name}={lines}"
                  for name, lines in result["pool_lines"].items()))
        print(f"  control  {result['commits']} replicated commits in "
              f"{result['batches_proposed']} batches, "
              f"p50 {result['commit_p50_ms']:.3f} ms, "
              f"p99 {result['commit_p99_ms']:.3f} ms, "
              f"{result['control_commits_per_sec']:,.0f} commits/s")
        print(f"  churn    {result['churn_placed']} placed / "
              f"{result['churn_released']} released")
        print(f"  verdict  converged={result['converged']} "
              f"pending={result['pending_after']}")
        if verdict is not None:
            print(f"  {verdict.render().splitlines()[0]}")
    if args.check and not (result["converged"]
                           and result["pending_after"] == 0):
        print("rack: FAIL -- control plane did not converge", flush=True)
        return 1
    if args.check and result["commits_dropped"]:
        print(f"rack: FAIL -- {result['commits_dropped']:,} commit latencies "
              f"fell past the allocator's sample cap "
              f"(PodAllocator._commit_latency_cap, {result['commits']:,} kept): "
              f"commit p99 would gate only a prefix of the run", flush=True)
        return 1
    if args.check and result["commit_p99_ms"] > COMMIT_P99_CEILING_MS:
        print(f"rack: FAIL -- commit p99 {result['commit_p99_ms']:.3f} ms "
              f"above the {COMMIT_P99_CEILING_MS} ms ceiling", flush=True)
        return 1
    if verdict is not None and not verdict.ok:
        print(f"rack: FAIL -- {verdict.render()}", flush=True)
        return 1
    return 0
