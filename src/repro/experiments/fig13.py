"""Figure 13: UDP packet loss during a NIC failure and Oasis failover.

Paper result: a 10 s UDP echo run with the NIC's switch port disabled at
~5 s shows a single burst of packet loss lasting roughly 38 ms, after which
traffic flows through the backup NIC (MAC borrowing) with no application
involvement.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.report import render_table
from ..faults import FaultPlan, FaultSpec
from ..sim.rng import Stream
from ..workloads.echo import EchoClient
from .common import SERVER_IP, build_echo_pod, scale

__all__ = ["run", "main"]


def run(
    duration_s: Optional[float] = None,
    rate_pps: float = 2000.0,
    fail_at_s: Optional[float] = None,
    seed: int = 3,
    trace_path: Optional[str] = None,
) -> dict:
    duration = duration_s if duration_s is not None else 10.0 * scale()
    # Inject just after a 25 ms link-monitor tick so detection takes nearly a
    # full interval, like the paper's observed (single-run) 38 ms.
    fail_at = fail_at_s if fail_at_s is not None else duration / 2 + 0.002

    pod, inst, client_ep, nic0 = build_echo_pod("oasis", remote=True,
                                                backup_nic=True)
    # The failover measured is the full replicated control plane's: the
    # command commits through Raft before its effects run (§3.5).
    pod.enable_raft()
    # Record just the failover phases; the per-packet channel/DMA events of a
    # multi-second run would be noise here.
    pod.enable_tracing(categories={"failover"})
    client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=75,
                        rate_pps=rate_pps,
                        rng=Stream(seed), poisson=False)
    client.start(duration)
    # The paper's injection ("we disable the switch port connected to the
    # NIC"), scheduled through the deterministic fault injector.
    injector = pod.inject_faults(FaultPlan(
        [FaultSpec(kind="switch.port_down", target=nic0.name, at=fail_at)],
        name="fig13-port-down",
    ))
    pod.run(duration + 1.0)
    pod.stop()

    stats = client.stats
    # Interruption: the longest gap between consecutive received packets.
    recv = stats.recv_times
    gaps = [b - a for a, b in zip(recv, recv[1:])]
    worst = gaps.index(max(gaps)) if gaps else 0
    interruption_ms = gaps[worst] * 1000 if gaps else float("nan")
    # The traced failover phases (detect -> report -> process -> reroute)
    # decompose the interruption the paper narrates in §3.3.3.
    phases = {e.name.split(".", 1)[1]: e.dur * 1e3
              for e in pod.tracer.spans(category="failover")}
    trace_events = 0
    if trace_path is not None:
        trace_events = pod.tracer.export_chrome(trace_path)
    return {
        "sent": stats.sent,
        "received": stats.received,
        "lost": stats.lost,
        "interruption_ms": interruption_ms,
        "interruption_at_s": recv[worst] if gaps else float("nan"),
        "loss_timeline": stats.loss_timeline(0.1, duration),
        "failovers": pod.allocator.failovers_executed,
        "fail_at_s": fail_at,
        "fault_events": [event.signature() for event in injector.events],
        "failover_phases_ms": phases,
        "failover_phase_sum_ms": float(sum(phases.values())),
        "trace_events": trace_events,
        "trace_timeline": pod.tracer.timeline(category="failover"),
    }


def main() -> dict:
    results = run()
    timeline = results["loss_timeline"]
    xs = [f"{0.1 * i:.1f}" for i in range(len(timeline))]
    nonzero = [(x, int(v)) for x, v in zip(xs, timeline) if v]
    print(render_table(
        ["time s", "lost packets"], nonzero or [("-", 0)],
        title="Figure 13a: lost packets per 100 ms bin",
    ))
    print()
    print(render_table(
        ["metric", "value"],
        [("packets sent", results["sent"]),
         ("packets lost", results["lost"]),
         ("interruption (ms)", round(results["interruption_ms"], 1)),
         ("paper interruption (ms)", 38),
         ("failovers executed", results["failovers"])],
        title="Figure 13b: failover interruption",
    ))
    print()
    print(render_table(
        ["phase", "ms"],
        [(name, round(ms, 3))
         for name, ms in results["failover_phases_ms"].items()]
        + [("total", round(results["failover_phase_sum_ms"], 3))],
        title="Failover phases (traced, §3.3.3)",
    ))
    return results


if __name__ == "__main__":
    main()
