"""Figure 14: memcached (reliable transport) P99 latency through a failover.

Paper result: P99 spikes at the moment of NIC failure and recovers within
~133 ms -- longer than UDP's 38 ms because the reliable transport
retransmits the packets lost during the interruption and delivers them late,
temporarily inflating client-observed latency.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.report import render_table
from ..analysis.stats import percentile
from ..faults import FaultPlan, FaultSpec
from ..sim.rng import Stream
from ..workloads.apps import APP_PROFILES, AppClient, AppServer
from .common import SERVER_IP, build_echo_pod, scale

__all__ = ["run", "main"]


def run(
    duration_s: Optional[float] = None,
    rate_rps: float = 3000.0,
    fail_at_s: Optional[float] = None,
    bin_s: float = 0.1,
    seed: int = 5,
) -> dict:
    duration = duration_s if duration_s is not None else 10.0 * scale()
    fail_at = fail_at_s if fail_at_s is not None else duration / 2 + 0.002

    pod, inst, client_ep, nic0 = build_echo_pod("oasis", remote=True,
                                                backup_nic=True)
    pod.enable_raft()
    profile = APP_PROFILES["memcached"]
    rng = Stream(seed)
    AppServer(pod.sim, inst, profile, rng, port=11211)
    client = AppClient(pod.sim, client_ep, SERVER_IP, profile, rate_rps,
                       Stream(seed + 1), server_port=11211)
    client.start(duration)
    injector = pod.inject_faults(FaultPlan(
        [FaultSpec(kind="switch.port_down", target=nic0.name, at=fail_at)],
        name="fig14-port-down",
    ))
    pod.run(duration + 1.5)
    pod.stop()

    timeline = client.p99_timeline(bin_s, duration)
    # Baseline P99: bins well before the failure.
    pre = timeline[: max(1, int(fail_at / bin_s) - 2)]
    baseline_p99 = percentile([v for v in pre if v == v], 50)
    # Recovery: last bin whose P99 exceeds 3x the pre-failure baseline.
    threshold = 3.0 * baseline_p99
    spike_bins = [i for i, v in enumerate(timeline)
                  if v == v and v > threshold and i * bin_s >= fail_at - bin_s]
    if spike_bins:
        recovery_ms = (spike_bins[-1] + 1) * bin_s * 1000 - fail_at * 1000
        peak_ms = max(timeline[i] for i in spike_bins) / 1000
    else:
        recovery_ms = 0.0
        peak_ms = 0.0
    return {
        "timeline_p99_us": timeline,
        "baseline_p99_us": baseline_p99,
        "recovery_ms": float(recovery_ms),
        "peak_p99_ms": peak_ms,
        "retransmits": client.sock.retransmits,
        "fault_events": [event.signature() for event in injector.events],
        "sent": client.sent,
        "completed": len(client.latencies_us),
        "fail_at_s": fail_at,
        "bin_s": bin_s,
    }


def main() -> dict:
    results = run()
    timeline = results["timeline_p99_us"]
    bin_s = results["bin_s"]
    window = [
        (f"{i * bin_s:.1f}", round(v, 1) if v == v else "-")
        for i, v in enumerate(timeline)
        if abs(i * bin_s - results["fail_at_s"]) < 0.5
    ]
    print(render_table(
        ["time s", "P99 us"], window,
        title="Figure 14b: memcached P99 around the failure",
    ))
    print()
    print(render_table(
        ["metric", "value"],
        [("baseline P99 (us)", round(results["baseline_p99_us"], 1)),
         ("peak P99 (ms)", round(results["peak_p99_ms"], 1)),
         ("recovery time (ms)", round(results["recovery_ms"], 1)),
         ("paper recovery (ms)", 133),
         ("retransmits", results["retransmits"])],
        title="Figure 14: P99 recovery after NIC failover",
    ))
    return results


if __name__ == "__main__":
    main()
