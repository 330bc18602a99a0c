"""Chaos runner: a mixed workload under a fault plan, invariant-checked.

``python -m repro chaos --seed N [--plan plan.json]`` builds a two-host pod
(pooled NIC + backup, pooled SSD), runs an echo workload and a block-I/O
workload through it, applies the fault plan (the built-in
:data:`DEFAULT_PLAN` when none is given), and evaluates the invariant suite
continuously plus at the end.  Everything -- workload arrivals, fault times,
failover -- derives from the one root seed, so a failing (seed, plan) pair
printed by the run (and dumped via
:func:`~repro.faults.plan.dump_failure_artifact`) replays exactly.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from ..config import OasisConfig
from ..errors import ConfigError
from ..core.pod import CXLPod
from ..net.packet import make_ip
from ..workloads.blockio import BlockWorkload
from ..workloads.echo import EchoClient, EchoServer
from .plan import FaultPlan, dump_failure_artifact

__all__ = ["DEFAULT_PLAN", "CONTROL_PLAN", "EVERY_KIND_PLAN", "BUILTIN_PLANS",
           "run_chaos", "main_chaos"]

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)

#: A representative all-recoverable schedule exercising every layer: CXL
#: link degradation, device-level transient faults, fabric misbehaviour and
#: a full switch-port failover.  Windowed times are drawn from the root seed.
DEFAULT_PLAN = {
    "name": "default-chaos",
    "faults": [
        {"kind": "cxl.throttle", "window": [0.04, 0.10], "duration": 0.03,
         "params": {"factor": 4.0}},
        {"kind": "cxl.latency_spike", "window": [0.15, 0.25],
         "duration": 0.02, "params": {"extra_us": 1.5}},
        {"kind": "nic.dma_abort", "target": "nic-h0",
         "window": [0.05, 0.30], "params": {"count": 2}},
        {"kind": "ssd.media_error", "window": [0.05, 0.30],
         "params": {"count": 2}},
        {"kind": "switch.drop", "window": [0.05, 0.35],
         "params": {"count": 2}},
        {"kind": "switch.duplicate", "window": [0.05, 0.35],
         "params": {"count": 1}},
        {"kind": "switch.port_down", "target": "nic-h0", "at": 0.30,
         "duration": 0.10},
        {"kind": "overload.surge", "window": [0.10, 0.20],
         "duration": 0.08, "params": {"factor": 1.6}},
    ],
}

#: The control-plane failover gauntlet: the victim frontend's notifications
#: are delayed *before* the NIC's switch port goes down, the allocator
#: leader is crashed between the failure report and the commit of the
#: failover command, and the failure report is delivered twice more.  The
#: run must still execute the failover exactly once (post re-election),
#: fence every stale-epoch post from the lagging frontend, and converge all
#: replicas.  Timeline (link monitor ticks every 25 ms, detection at 0.325,
#: failover commit scheduled at ~0.335): the leader crash at 0.331 lands in
#: between.
CONTROL_PLAN = {
    "name": "control-failover",
    "faults": [
        {"kind": "notify.delay", "target": "h1", "at": 0.29,
         "duration": 0.50, "params": {"extra_s": 0.08}},
        {"kind": "switch.port_down", "target": "nic-h0", "at": 0.301},
        {"kind": "raft.leader_crash", "at": 0.331, "duration": 0.25},
        {"kind": "report.duplicate", "target": "nic-h0", "at": 0.34,
         "params": {"count": 2}},
    ],
}

#: Every injector kind at least once, so each fault arm and the recovery
#: behind it runs on the chaos pod.  The data path is degraded first (link,
#: cache, device and fabric faults, a surge, the backup NIC's host crashing
#: and the SSD failing, each recovered), then the leader crashes and is back
#: well before the NIC fails over at 0.40: h2's failover notification lags,
#: h1's is lost (its next post to the old NIC is fenced and it resyncs) and
#: the failure report is re-delivered.  Then the backup it moved to
#: hard-fails with no backup left: the instance parks, and the allocator
#: retries its re-acquire.
EVERY_KIND_PLAN = {
    "name": "every-kind",
    "faults": [
        {"kind": "cxl.throttle", "window": [0.02, 0.06], "duration": 0.02,
         "params": {"factor": 4.0}},
        {"kind": "cache.writeback_loss", "target": "h1",
         "window": [0.05, 0.10], "params": {"count": 1, "mode": "partial"}},
        {"kind": "cxl.latency_spike", "target": "h1", "window": [0.08, 0.12],
         "duration": 0.02, "params": {"extra_us": 1.5}},
        {"kind": "nic.dma_abort", "target": "nic-h0",
         "window": [0.05, 0.20], "params": {"count": 2}},
        {"kind": "ssd.media_error", "window": [0.05, 0.20],
         "params": {"count": 2}},
        {"kind": "switch.drop", "window": [0.05, 0.25],
         "params": {"count": 2}},
        {"kind": "switch.duplicate", "window": [0.05, 0.25],
         "params": {"count": 1}},
        {"kind": "overload.surge", "window": [0.10, 0.20],
         "duration": 0.08, "params": {"factor": 1.6}},
        {"kind": "host.crash", "target": "h2", "at": 0.12, "duration": 0.05},
        {"kind": "ssd.fail", "at": 0.16, "duration": 0.03},
        {"kind": "raft.leader_crash", "at": 0.20, "duration": 0.05},
        {"kind": "notify.delay", "target": "h2", "at": 0.39,
         "duration": 0.10, "params": {"extra_s": 0.05}},
        {"kind": "switch.port_down", "target": "nic-h0", "at": 0.40,
         "duration": 0.05},
        {"kind": "notify.drop", "target": "h1", "at": 0.41,
         "params": {"count": 1}},
        {"kind": "report.duplicate", "target": "nic-h0", "at": 0.44,
         "params": {"count": 2}},
        {"kind": "nic.fail", "target": "nic-h2", "at": 0.47, "duration": 0.05},
    ],
}

BUILTIN_PLANS = {
    "default-chaos": DEFAULT_PLAN,
    "control-failover": CONTROL_PLAN,
    "every-kind": EVERY_KIND_PLAN,
}


def build_chaos_pod(seed: int):
    """Three hosts: NIC+SSD on h0, the instance on (NIC-less) h1, backup NIC
    on h2 -- so the datapath crosses hosts and failover has somewhere to go."""
    config = OasisConfig().with_(seed=seed)
    pod = CXLPod(config=config, mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    h2 = pod.add_host()
    pod.add_nic(h0)                      # nic-h0: primary
    pod.add_nic(h2, is_backup=True)      # nic-h2: failover target
    ssd = pod.add_ssd(h0)
    instance = pod.add_instance(h1, ip=SERVER_IP)
    EchoServer(pod.sim, instance)
    device = pod.add_block_device(instance, ssd)
    client = pod.add_external_client(ip=CLIENT_IP)
    echo = EchoClient(pod.sim, client, SERVER_IP, packet_size=256,
                      rate_pps=2000.0, rng=pod.rng.get("chaos/echo"),
                      poisson=True, metrics=pod.metrics, flows=pod.flows)
    blockio = BlockWorkload(pod.sim, device, rate_iops=1500.0,
                            rng=pod.rng.get("chaos/blockio"), flows=pod.flows)
    # The block workload doubles as the overload.surge fault's target.
    pod.register_load_source(blockio)
    # Control plane under test too: replicated allocator + lease sweeping.
    pod.enable_raft(replicas=3)
    pod.allocator.start_lease_sweeper()
    return pod, echo, blockio


def run_chaos(
    seed: int = 42,
    plan: Optional[FaultPlan] = None,
    duration_s: float = 0.5,
    settle_s: float = 0.3,
    check_interval_s: float = 0.005,
    verbose: bool = True,
) -> dict:
    """One deterministic chaos run; returns the full result bundle."""
    if plan is None:
        plan = FaultPlan.from_json(json.dumps(DEFAULT_PLAN))
    pod, echo, blockio = build_chaos_pod(seed)
    pod.enable_flow_tracing()
    injector = pod.inject_faults(plan)
    checker = pod.check_invariants(interval_s=check_interval_s)
    echo.start(duration_s)
    blockio.start(duration_s)
    pod.run(duration_s + settle_s)
    pod.stop()
    verdict = checker.finish()

    result = {
        "seed": seed,
        "plan": plan.name,
        "ok": verdict.ok,
        "verdict": verdict,
        "injector": injector,
        "events": [event.signature() for event in injector.events],
        "echo": {"sent": echo.stats.sent, "received": echo.stats.received,
                 "lost": echo.stats.lost},
        "blockio": {"submitted": blockio.stats.submitted,
                    "completed": blockio.stats.completed,
                    "errors": blockio.stats.errors},
        "recovery": _recovery_counters(pod),
        "pod": pod,
    }

    if verbose:
        print(f"chaos run: seed={seed} plan={plan.name!r} "
              f"duration={duration_s}s (+{settle_s}s settle)")
        print(f"\nfault events ({len(injector.events)}):")
        for event in injector.events:
            print(f"  {event!r}")
        print(f"\nworkloads:")
        print(f"  echo    sent={echo.stats.sent} "
              f"received={echo.stats.received} lost={echo.stats.lost}")
        print(f"  blockio submitted={blockio.stats.submitted} "
              f"completed={blockio.stats.completed} "
              f"errors={blockio.stats.errors}")
        print(f"\nrecovery counters:")
        for name, value in sorted(result["recovery"].items()):
            print(f"  {name}: {value}")
        print()
        print(verdict.render())

    if not verdict.ok:
        path = dump_failure_artifact(
            f"chaos-seed{seed}-{plan.name}",
            {"seed": seed, "plan": json.loads(plan.to_json()),
             "violations": [repr(v) for v in verdict.violations],
             "events": [repr(e) for e in injector.events]},
        )
        if verbose:
            print(f"\nfailing schedule written to {path}")
    return result


def _recovery_counters(pod) -> dict:
    counters = {}
    for backend in pod.backends.values():
        counters[f"{backend.name}.tx_retries"] = backend.tx_retries
        counters[f"{backend.name}.tx_giveups"] = backend.tx_giveups
    for frontend in pod.storage_frontends.values():
        counters[f"{frontend.name}.retries"] = frontend.retries
        counters[f"{frontend.name}.timeouts"] = frontend.timeouts
        counters[f"{frontend.name}.giveups"] = frontend.giveups
    for nic in pod.nics.values():
        counters[f"{nic.name}.dma_aborts"] = nic.dma_aborts
    for backend in pod.storage_backends.values():
        counters[f"{backend.ssd.name}.media_errors"] = backend.ssd.media_errors
    counters["switch.fault_dropped"] = pod.switch.fault_dropped
    counters["switch.fault_duplicated"] = pod.switch.fault_duplicated
    counters["allocator.failovers"] = pod.allocator.failovers_executed
    # Control plane: fencing, replication and lease-lifecycle counters.
    for backend in pod.backends.values():
        counters[f"{backend.name}.fence_rejects"] = backend.fence_rejects
        counters[f"{backend.name}.stale_accepted"] = backend.stale_accepted
    for backend in pod.storage_backends.values():
        counters[f"{backend.name}.fence_rejects"] = backend.fence_rejects
        counters[f"{backend.name}.stale_accepted"] = backend.stale_accepted
    for frontend in pod.frontends.values():
        counters[f"{frontend.name}.tx_fenced"] = frontend.tx_fenced
        counters[f"{frontend.name}.resyncs"] = frontend.resyncs
    for frontend in pod.storage_frontends.values():
        counters[f"{frontend.name}.fenced"] = frontend.fenced
    # Overload control: load shedding, retry budgets and breaker activity
    # (all zero unless enable_overload_control() armed the pod).
    for frontend in pod.storage_frontends.values():
        counters[f"{frontend.name}.shed"] = frontend.shed
        counters[f"{frontend.name}.retry_budget_denied"] = (
            frontend.retry_budget_denied)
        counters[f"{frontend.name}.breaker_trips"] = frontend.breaker_trips
    for frontend in pod.frontends.values():
        counters[f"{frontend.name}.tx_shed"] = frontend.tx_shed
    for backend in pod.backends.values():
        counters[f"{backend.name}.retry_budget_denied"] = (
            backend.retry_budget_denied)
    allocator = pod.allocator
    counters["allocator.pending_commands"] = allocator.pending_commands
    counters["allocator.duplicate_reports"] = allocator.duplicate_reports
    counters["allocator.failover_no_backup"] = allocator.failover_no_backup
    counters["allocator.lease_expirations"] = allocator.lease_expirations
    counters["notify.delivered"] = allocator.notify.delivered
    counters["notify.delayed"] = allocator.notify.delayed
    counters["notify.dropped"] = allocator.notify.dropped
    return counters


def main_chaos(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="deterministic fault-injection run with invariant checks",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="root seed (drives workloads AND fault times)")
    parser.add_argument("--plan", type=str, default=None,
                        help="fault plan JSON file or a built-in plan name "
                             f"({', '.join(sorted(BUILTIN_PLANS))}); "
                             "default: the built-in default-chaos plan")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="workload duration in sim seconds")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable result instead of text")
    args = parser.parse_args(argv)

    try:
        if args.plan in BUILTIN_PLANS:
            plan = FaultPlan.from_json(json.dumps(BUILTIN_PLANS[args.plan]))
        else:
            plan = FaultPlan.load(args.plan) if args.plan else None
    except (OSError, ConfigError) as exc:
        print(f"chaos: cannot load plan {args.plan!r}: {exc}", file=sys.stderr)
        return 2
    result = run_chaos(seed=args.seed, plan=plan, duration_s=args.duration,
                       verbose=not args.json)
    if args.json:
        verdict = result["verdict"]
        print(json.dumps({
            "seed": result["seed"], "plan": result["plan"],
            "ok": result["ok"],
            "events": [list(sig) for sig in result["events"]],
            "violations": [repr(v) for v in verdict.violations],
            "checks": verdict.checks,
            "echo": result["echo"], "blockio": result["blockio"],
            "recovery": result["recovery"],
        }, indent=1))
    return 0 if result["ok"] else 1


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main_chaos())
