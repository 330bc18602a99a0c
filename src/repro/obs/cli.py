"""``python -m repro report`` / ``python -m repro trace`` / ``python -m repro flows``.

``report`` runs a short echo workload on a two-host pod with telemetry
scraping enabled and prints registry-backed summaries: pod-wide CXL link
traffic by category, NIC/channel/cache activity, and the scraped bandwidth
time series.  ``report --json`` emits the full registry snapshot as
machine-readable JSON instead, so benchmarks and CI can diff runs.

``trace`` runs the Figure 13 failover scenario with the tracer recording the
failover phases, exports Chrome-trace JSON (loadable in ``chrome://tracing``
or Perfetto) and prints the phase breakdown plus a plain-text timeline.

``flows`` runs the UDP echo workload with end-to-end flow tracing enabled and
prints the bottleneck profile: the per-stage attribution table (p50/p99/p999,
queue share), the critical path per latency percentile bucket, a waterfall of
the slowest request, and the top-N slowest flows.  ``flows <out.json>``
additionally exports a Chrome trace whose flow arrows follow each request
across components in Perfetto.

``top`` runs a seeded echo workload with the fleet-health pipeline enabled
and renders a live rack dashboard (per-host/per-device utilization bars,
pool stranding, firing alerts); ``top --once --json`` emits the final
:meth:`~repro.obs.fleet.FleetHealth.as_dict` document for CI artifacts.
"""

from __future__ import annotations

import json
import sys
import time as _time
from typing import Optional

from ..analysis.report import render_series, render_table
from ..analysis.stats import percentile

__all__ = ["report", "trace", "flows", "top", "render_bar",
           "render_dashboard", "main_report", "main_trace", "main_flows",
           "main_top"]


def report(duration_s: float = 0.3, rate_pps: float = 20_000.0,
           packet_size: int = 256, scrape_period_s: float = 0.01,
           sim_gauges: bool = False) -> dict:
    """Run an echo pod with telemetry scraping; return the summary data.

    ``sim_gauges=True`` additionally binds the event kernel's own gauges
    (:func:`~repro.obs.bindings.bind_sim`) into the registry before the run,
    so the snapshot carries ``sim_processed_events``/``sim_pending_events``/
    ``sim_now_seconds``.  Off by default: the extra samples would change the
    report bytes the replay suite pins.
    """
    from ..experiments.common import SERVER_IP, build_echo_pod
    from ..workloads.echo import EchoClient

    pod, inst, client_ep, nic0 = build_echo_pod("oasis", remote=True)
    if sim_gauges:
        from . import bindings

        bindings.bind_sim(pod.metrics, pod.sim)
    pod.start_telemetry(period_s=scrape_period_s)
    client = EchoClient(pod.sim, client_ep, SERVER_IP,
                        packet_size=packet_size, rate_pps=rate_pps,
                        metrics=pod.metrics)
    client.start(duration_s)
    pod.run(duration_s + 0.02)
    pod.stop()

    snapshot = pod.scraper.sample_now()
    times, rates = pod.scraper.rates("cxl_link_bytes")
    return {
        "pod": pod,
        "snapshot": snapshot,
        "rtt_hist": client.rtt_hist,
        "bw_times": times,
        "bw_rates": rates,
    }


def snapshot_json(snapshot) -> dict:
    """A machine-readable rendering of a :class:`MetricsSnapshot`."""
    return {
        "time": snapshot.time,
        "samples": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(snapshot.values.items())
        ],
    }


def main_report(as_json: bool = False, sim_gauges: bool = False) -> dict:
    data = report(sim_gauges=sim_gauges)
    snapshot = data["snapshot"]

    if as_json:
        print(json.dumps(snapshot_json(snapshot), indent=1))
        return data

    by_cat = snapshot.aggregate("cxl_link_bytes", by=("category",))
    print(render_table(
        ["category", "bytes"],
        sorted(((cat, int(v)) for (cat,), v in by_cat.items()),
               key=lambda r: -r[1]),
        title="CXL link traffic by category (registry: cxl_link_bytes)",
    ))
    print()

    by_host_dir = snapshot.aggregate("cxl_link_bytes", by=("host", "direction"))
    print(render_table(
        ["host", "direction", "bytes"],
        sorted((h, d, int(v)) for (h, d), v in by_host_dir.items()),
        title="CXL link traffic by host link",
    ))
    print()

    nic_rows = []
    for (device, direction), frames in sorted(
            snapshot.aggregate("nic_frames", by=("device", "direction")).items()):
        nbytes = snapshot.aggregate("nic_bytes", by=("device", "direction"))
        nic_rows.append((device, direction, int(frames),
                         int(nbytes.get((device, direction), 0))))
    print(render_table(["nic", "dir", "frames", "bytes"], nic_rows,
                       title="NIC activity (registry: nic_frames/nic_bytes)"))
    print()

    chan = snapshot.aggregate("channel_ops", by=("op",))
    print(render_table(
        ["channel op", "count"],
        [(op, int(v)) for (op,), v in sorted(chan.items())],
        title="Message-channel operations, all channels "
              "(registry: channel_ops)",
    ))
    print()

    cache = snapshot.aggregate("cache_ops", by=("op",))
    print(render_table(
        ["cache op", "count"],
        [(op, int(v)) for (op,), v in sorted(cache.items()) if v],
        title="Host-cache operations, all hosts (registry: cache_ops)",
    ))
    print()

    hist = data["rtt_hist"]
    if hist is not None and hist.count:
        p50, p99 = percentile(hist.observations, (50, 99))
        print(render_table(
            ["metric", "value"],
            [("echo RTT p50 (us)", round(p50, 2)),
             ("echo RTT p99 (us)", round(p99, 2)),
             ("echo RTT mean (us)", round(hist.mean, 2)),
             ("echoes", hist.count)],
            title="Echo RTT (registry: echo_rtt_us histogram)",
        ))
        print()

    if data["bw_rates"]:
        print(render_series(
            "Scraped CXL bandwidth per scrape interval",
            [round(t, 3) for t in data["bw_times"]],
            [r / 1e9 for r in data["bw_rates"]],
            x_label="time s", y_label="GB/s", digits=3,
        ))
    scraper = data["pod"].scraper
    print(f"\n{len(scraper)} snapshots scraped "
          f"({scraper.dropped} evicted from the ring), "
          f"{len(snapshot)} series in the last snapshot")
    tracer = data["pod"].tracer
    recorded = int(snapshot.get("tracer_events_recorded"))
    dropped = int(snapshot.get("tracer_events_dropped"))
    line = f"tracer: {recorded} events recorded, {dropped} dropped"
    if dropped:
        line += (f" -- max_events={tracer.max_events} reached; raise it or "
                 f"restrict categories to keep the tail")
    print(line)
    return data


def trace(out_path: Optional[str] = "oasis-failover-trace.json") -> dict:
    """Run the Fig 13 failover with tracing; export Chrome-trace JSON."""
    from ..experiments import fig13

    return fig13.run(duration_s=1.2, rate_pps=3000.0, fail_at_s=0.602,
                     trace_path=out_path)


def flows(duration_s: float = 0.1, rate_pps: float = 20_000.0,
          packet_size: int = 256, mode: str = "oasis",
          trace_path: Optional[str] = None) -> dict:
    """Run the UDP echo workload with flow tracing; return the registry."""
    from ..experiments.common import SERVER_IP, build_echo_pod
    from ..workloads.echo import EchoClient

    pod, inst, client_ep, nic0 = build_echo_pod(mode, remote=True)
    pod.enable_flow_tracing()
    if trace_path:
        # Record only flow spans so the export stays small and arrow-dense.
        pod.enable_tracing(categories={"flow"})
    client = EchoClient(pod.sim, client_ep, SERVER_IP,
                        packet_size=packet_size, rate_pps=rate_pps,
                        metrics=pod.metrics, flows=pod.flows)
    client.start(duration_s)
    pod.run(duration_s + 0.02)
    pod.stop()
    trace_events = pod.tracer.export_chrome(trace_path) if trace_path else 0
    return {
        "pod": pod,
        "flows": pod.flows,
        "client": client,
        "trace_events": trace_events,
    }


def main_flows(trace_path: Optional[str] = None, top_n: int = 5) -> dict:
    from .attribution import critical_path, render_waterfall

    data = flows(trace_path=trace_path)
    registry = data["flows"]
    attribution = registry.attribution

    print(f"{registry.completed} flows completed "
          f"({registry.started - registry.completed} still open), "
          f"{len(registry.check_conservation())} conservation violations\n")

    print(render_table(
        ["stage", "flows", "p50 us", "p99 us", "p99.9 us", "avg depth",
         "queue share"],
        attribution.table(),
        title="Per-stage latency attribution (UDP echo, oasis mode)",
    ))
    print()

    print(render_table(
        ["bucket", "flows", "mean total us", "dominant stage", "share"],
        [(row["bucket"], row["flows"], round(row["mean_total_us"], 3),
          row["dominant_stage"], round(row["dominant_share"], 3))
         for row in critical_path(registry.records)],
        title="Critical path by latency percentile bucket",
    ))
    print()

    slowest = registry.top_slowest(top_n)
    if slowest:
        print("Slowest request waterfall:")
        print(render_waterfall(slowest[0]))
        print()
        rows = []
        for r in slowest:
            stage, dur = max(r.by_stage().items(), key=lambda kv: kv[1])
            rows.append((r.flow_id, r.kind, round(r.total_us, 3), stage,
                         round(dur * 1e6, 3)))
        print(render_table(
            ["flow", "kind", "total us", "slowest stage", "stage us"],
            rows, title=f"Top {len(slowest)} slowest flows",
        ))
    if trace_path:
        print(f"\n{data['trace_events']} Chrome-trace records (with flow "
              f"arrows) written to {trace_path} -- open in Perfetto and "
              f"enable flow events to follow requests across tracks")
    return data


# -- fleet dashboard ----------------------------------------------------------


def _build_top_pod(n_hosts: int, seed: int, packet_size: int,
                   rate_pps: float):
    """A seeded pod sized for the dashboard.

    ``n_hosts <= 2`` reproduces the paper's two-host fig10 echo testbed
    (remote instance, pooled NIC); larger values build an ``n_hosts``-host
    rack slice with one pooled NIC + echo instance + seeded client per host.
    Returns ``(pod, clients)``.
    """
    from ..config import OasisConfig
    from ..experiments.common import SERVER_IP, build_echo_pod
    from ..net.packet import make_ip
    from ..workloads.echo import EchoClient, EchoServer

    config = OasisConfig().with_(seed=seed)
    if n_hosts <= 2:
        pod, inst, client_ep, _ = build_echo_pod("oasis", remote=True,
                                                 config=config)
        client = EchoClient(pod.sim, client_ep, SERVER_IP,
                            packet_size=packet_size, rate_pps=rate_pps,
                            rng=pod.rng.get("echo-client"), poisson=True,
                            metrics=pod.metrics, flows=pod.flows)
        return pod, [client]

    from ..core.pod import CXLPod

    pod = CXLPod(config=config, mode="oasis")
    hosts = [pod.add_host() for _ in range(n_hosts)]
    nics = [pod.add_nic(host) for host in hosts]
    clients = []
    for i, host in enumerate(hosts):
        server_ip = make_ip(10, 0, 0, i + 1)
        # Pin each instance to the *next* host's NIC so every echo crosses
        # the pool (the interesting case for link/device gauges).
        inst = pod.add_instance(host, ip=server_ip,
                                nic=nics[(i + 1) % n_hosts])
        EchoServer(pod.sim, inst)
        client_ep = pod.add_external_client(ip=make_ip(10, 0, 9, i + 1))
        clients.append(EchoClient(
            pod.sim, client_ep, server_ip, packet_size=packet_size,
            rate_pps=rate_pps, rng=pod.rng.get(f"echo-client-{i}"),
            poisson=True, metrics=pod.metrics))
    return pod, clients


def render_bar(fraction: float, width: int = 24) -> str:
    """``[#####....]``-style utilization bar, clamped to [0, 1]."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_dashboard(doc: dict) -> str:
    """Render a :meth:`FleetHealth.as_dict` document as the rack dashboard."""
    lines = [f"oasis top -- sim t={doc['time'] * 1e3:8.1f} ms, "
             f"{doc['ticks']} scrape ticks"]
    lines.append("")
    lines.append("hosts")
    for host, info in sorted(doc["hosts"].items()):
        util = info.get("util", {}).get("last", 0.0)
        link = info.get("link_saturation", {}).get("last", 0.0)
        lines.append(f"  {host:<10} util [{render_bar(util)}] {util:6.1%}   "
                     f"cxl [{render_bar(link)}] {link:6.1%}")
    lines.append("")
    lines.append("devices")
    for device, info in sorted(doc["devices"].items()):
        util = info["util"]
        lines.append(
            f"  {device:<14} {info['kind']:<4} @{info['host']:<8} "
            f"[{render_bar(util['last'])}] {util['last']:6.1%}  "
            f"p99 {util['p99']:6.1%}  peak {util['peak']:6.1%}  "
            f"q {info['queue_saturation']:5.1%}")
    if doc["pools"]:
        lines.append("")
        lines.append("pools")
        for kind, info in sorted(doc["pools"].items()):
            lines.append(
                f"  {kind:<4} stranded [{render_bar(info['stranded'])}] "
                f"{info['stranded']:6.1%} (now {info['stranded_now']:6.1%})  "
                f"{info.get('devices', 0)} devices, "
                f"{info.get('failed', 0)} failed")
    lines.append("")
    lines.append(f"lease expiries {doc['lease_expiry_rate']:.1f}/s   "
                 f"slo burn {doc['slo_burn']:.2f}   "
                 f"alerts fired {doc['alerts']['fired']} "
                 f"cleared {doc['alerts']['cleared']}")
    active = doc["alerts"]["active"]
    if active:
        lines.append("firing:")
        for alert in active:
            lines.append(f"  !! {alert['rule']:<20} {alert['entity']:<14} "
                         f"value {alert['value']:.3f} "
                         f"since {alert['since'] * 1e3:.1f} ms")
    else:
        lines.append("no alerts firing")
    return "\n".join(lines)


def top(duration_s: float = 0.3, rate_pps: float = 20_000.0,
        packet_size: int = 256, n_hosts: int = 2,
        scrape_period_s: float = 0.01, seed: int = 17,
        once: bool = False, refresh_s: float = 0.05,
        stream=None) -> dict:
    """Run a seeded echo workload with fleet telemetry; return the view doc.

    Live mode advances the sim ``refresh_s`` of virtual time per frame and
    redraws the dashboard in place; ``once=True`` runs to completion
    silently and leaves rendering to the caller.  Same seed, same document.
    """
    pod, clients = _build_top_pod(n_hosts, seed, packet_size, rate_pps)
    fleet = pod.enable_fleet_telemetry(period_s=scrape_period_s)
    for client in clients:
        client.start(duration_s)
    if once:
        pod.run(duration_s + 0.02)
    else:
        stream = stream or sys.stdout
        now = pod.sim.now
        end = now + duration_s + 0.02
        while now < end:
            pod.run(min(refresh_s, end - now))
            now = pod.sim.now
            stream.write("\x1b[2J\x1b[H"
                         + render_dashboard(fleet.as_dict()) + "\n")
            stream.flush()
            _time.sleep(0.02)
    pod.stop()
    return {"pod": pod, "fleet": fleet, "doc": fleet.as_dict()}


def main_top(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="live fleet-health dashboard over a seeded echo run")
    parser.add_argument("--once", action="store_true",
                        help="run to completion and print one final frame")
    parser.add_argument("--json", action="store_true",
                        help="with --once: emit the fleet-health JSON document")
    parser.add_argument("--hosts", type=int, default=2,
                        help="pod size (2 = the paper's testbed; more builds "
                             "a rack slice with one NIC+instance per host)")
    parser.add_argument("--duration", type=float, default=0.3,
                        help="simulated seconds of load (default 0.3)")
    parser.add_argument("--rate", type=float, default=20_000.0,
                        help="per-client echo load in pps (default 20000)")
    parser.add_argument("--size", type=int, default=256,
                        help="echo packet size in bytes (default 256)")
    parser.add_argument("--seed", type=int, default=17,
                        help="root seed (default 17, the replay suite's)")
    parser.add_argument("--period", type=float, default=0.01,
                        help="scrape period in sim seconds (default 0.01)")
    args = parser.parse_args(argv)

    data = top(duration_s=args.duration, rate_pps=args.rate,
               packet_size=args.size, n_hosts=args.hosts,
               scrape_period_s=args.period, seed=args.seed,
               once=args.once or args.json)
    if args.json:
        print(json.dumps(data["doc"], indent=1, sort_keys=True))
    else:
        print(render_dashboard(data["doc"]))
    return 0


def main_trace(out_path: Optional[str] = "oasis-failover-trace.json") -> dict:
    results = trace(out_path)
    print(render_table(
        ["phase", "ms"],
        [(name, round(ms, 3))
         for name, ms in results["failover_phases_ms"].items()]
        + [("sum of phases", round(results["failover_phase_sum_ms"], 3)),
           ("measured interruption", round(results["interruption_ms"], 3))],
        title="Failover phases (traced, §3.3.3)",
    ))
    print("\nTimeline:")
    print(results["trace_timeline"])
    if out_path:
        print(f"\n{results['trace_events']} Chrome-trace records written to "
              f"{out_path} (open in chrome://tracing or Perfetto)")
    return results
