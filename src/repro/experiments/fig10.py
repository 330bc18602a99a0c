"""Figure 10: UDP echo round-trip latency, 75 B vs 1500 B packets.

Paper result: Oasis adds 4-7 us regardless of packet size -- the overhead is
message passing, not payload movement.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.stats import summarize_latencies
from ..analysis.report import render_table
from ..workloads.echo import EchoClient
from .common import CLIENT_IP, SERVER_IP, build_echo_pod, scale

__all__ = ["run", "run_echo", "main", "PACKET_SIZES", "ECHO_LOADS_PPS"]

PACKET_SIZES = (75, 1500)
ECHO_LOADS_PPS = {"low": 20_000.0, "moderate": 100_000.0}


def run_echo(mode: str, packet_size: int, rate_pps: float,
             duration_s: float = 0.2, seed: Optional[int] = None) -> dict:
    """One echo cell; returns RTT percentiles in us.

    With ``seed`` the run is fully deterministic from that one root seed
    (Poisson arrivals drawn from the pod's RNG tree) and the summary gains a
    ``report_json`` field -- the canonical metrics snapshot serialised with
    sorted keys -- so replay tests can assert byte-identical output.
    """
    remote = mode == "oasis"
    config = None
    if seed is not None:
        from ..config import OasisConfig

        config = OasisConfig().with_(seed=seed)
    pod, inst, client_ep, _ = build_echo_pod(mode, remote=remote,
                                             config=config)
    # The pod's flow registry is wired in but stays disabled, so this path
    # doubles as the benchmark for flow tracing's off-mode overhead.
    client = EchoClient(pod.sim, client_ep, SERVER_IP,
                        packet_size=packet_size, rate_pps=rate_pps,
                        rng=pod.rng.get("echo-client") if seed is not None
                        else None,
                        poisson=seed is not None,
                        metrics=pod.metrics, flows=pod.flows)
    client.start(duration_s)
    pod.run(duration_s + 0.02)
    pod.stop()
    # Percentiles come from the registry's echo_rtt_us histogram (it keeps
    # every observation, so this is numerically identical to the
    # legacy client.stats.latencies_us path it replaced).
    summary = summarize_latencies(client.rtt_hist.observations)
    summary["lost"] = (client.stats.sent
                       - int(pod.metrics.value("echo_rtt_us_count",
                                               client=client.name)))
    if seed is not None:
        import json

        from ..obs.cli import snapshot_json

        summary["report_json"] = json.dumps(
            snapshot_json(pod.metrics.snapshot(pod.sim.now)), sort_keys=True)
    return summary


def run(
    sizes: Sequence[int] = PACKET_SIZES,
    loads: Optional[Dict[str, float]] = None,
    duration_s: Optional[float] = None,
) -> dict:
    loads = loads or ECHO_LOADS_PPS
    duration = duration_s if duration_s is not None else 0.2 * scale()
    results: Dict = {}
    for size in sizes:
        results[size] = {}
        for load_name, pps in loads.items():
            results[size][load_name] = {
                "baseline": run_echo("local", size, pps, duration),
                "oasis": run_echo("oasis", size, pps, duration),
            }
    return results


def main() -> dict:
    results = run()
    rows = []
    for size, loads in results.items():
        for load_name, cell in loads.items():
            b, o = cell["baseline"], cell["oasis"]
            rows.append((
                size, load_name,
                b["p50"], o["p50"], o["p50"] - b["p50"],
                b["p99"], o["p99"], o["p99"] - b["p99"],
            ))
    print(render_table(
        ["size B", "load", "base p50", "oasis p50", "d(p50)",
         "base p99", "oasis p99", "d(p99)"],
        rows,
        title="Figure 10: UDP echo RTT, us "
              "(paper: +4-7 us, independent of packet size)",
        digits=1,
    ))
    return results


if __name__ == "__main__":
    main()
