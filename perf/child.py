"""One (workload, rep) in a fresh process; prints one JSON object.

Run by ``perf/run.py`` with ``PYTHONPATH`` pointing at ``src`` -- never by
hand.  A fresh process per rep is what makes ``setup_s`` and ``peak_rss_mb``
properties of one workload.

Modes: ``plain`` (the measured rep), ``profile`` (the same window under the
layer profiler), ``flow`` (the same window with ``pod.enable_flow_tracing()``)
and ``micro`` (the layer microbenchmarks, no workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import time


def monotonic() -> float:
    """CLOCK_MONOTONIC: one time base for the parent and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentiles(samples) -> dict:
    import numpy as np

    if not len(samples):
        return {"p50_us": None, "p99_us": None, "n": 0}
    return {"p50_us": float(np.percentile(samples, 50)),
            "p99_us": float(np.percentile(samples, 99)),
            "n": int(len(samples))}


def run_workload(args) -> dict:
    import repro

    import hostclock
    import trace as layer_trace
    import workloads

    first_spin = hostclock.spin()   # set-up is scaled by the samples around it
    workloads.track_simulators()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.host_seconds, flows=(args.mode == "flow"))
    workload.setup()
    pod = workload.pod
    profile = None
    if args.mode == "profile":
        profile = layer_trace.LayerProfile(os.path.dirname(repro.__file__))
    before = pod.metrics.snapshot() if pod is not None else None
    gc.collect()
    events0 = workload.events()
    setup_s = monotonic() - args.spawned_at

    # The measured window: the calibration loop is sampled before every
    # slice and stays outside both the slice timer and the profiler.
    spins, slice_wall_s, cpu_s = [], [], 0.0
    for index in range(workloads.SLICES):
        spins.append(hostclock.spin())
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if profile is None:
            workload.run_slice(index)
        else:
            with profile:
                workload.run_slice(index)
        slice_wall_s.append(time.perf_counter() - wall0)
        cpu_s += time.process_time() - cpu0

    events = workload.events() - events0
    after = pod.metrics.snapshot() if pod is not None else None
    workload.drain()
    obs = workload.observe()

    issued = obs["issued"]
    latency = obs.get("latency_summary") or percentiles(obs["latencies_us"])
    goodput = obs.get("goodput_per_s")
    if goodput is None:
        goodput = obs["done_in_window"] / workload.window_s
    wall_s = sum(slice_wall_s)
    out = {
        "workload": args.workload, "mode": args.mode, "seed": args.seed,
        "seeded": workload.seeded, "has_pod": pod is not None,
        "window_sim_s": workload.window_s,
        "host": {
            # at the reference box's speed (hostclock.py) ...
            "setup_s": hostclock.at_reference_speed(
                setup_s, [first_spin, spins[0]]),
            "window_s": hostclock.at_reference_speed(wall_s, spins),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # ... and as the clocks read, with the calibration samples
            "raw_setup_s": setup_s, "raw_window_s": wall_s,
            "raw_window_cpu_s": cpu_s, "raw_slice_s": slice_wall_s,
            "spin_s": spins, "first_spin_s": first_spin,
        },
        # Deterministic: bit-equal across reps of one seed.
        "exact": {
            "issued": issued, "scheduled": workload.scheduled,
            "ok": obs["ok"], "shed": obs["shed"], "events": events,
            "sim_lat_p50_us": latency["p50_us"],
            "sim_lat_p99_us": latency["p99_us"],
            "sim_lat_n": latency["n"],
            "sim_goodput_per_s": goodput,
            "facts": obs["facts"],
        },
    }
    if args.mode == "plain":
        if pod is not None:
            out["counters"] = layer_trace.registry_counters(
                after.delta_since(before).values, issued, workload.window_s,
                len(after))
        else:
            out["counters"] = layer_trace.cache_counters(
                workload.benches(), issued)
        out["counters"].update(obs.get("ledger", {}))
    if profile is not None:
        out["profile"] = profile.summary()
    if args.mode == "flow" and pod is not None:
        out["flow"] = layer_trace.flow_stage_metrics(
            pod.flows.records, workload.t0, workload.t1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "profile", "flow", "micro"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--host-seconds", type=float, default=6.0,
                        help="nominal host time of the measured window")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's CLOCK_MONOTONIC just before the spawn")
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = monotonic()
    if args.mode == "micro":
        import micro

        result = {"mode": "micro", "micro": micro.run_all()}
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
