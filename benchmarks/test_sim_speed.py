"""Benchmark: raw event-kernel throughput on the canonical fig10 echo cell.

Headline metric for the simulator itself (not a paper figure):
**wall-clock seconds per simulated second**, measured over the same seeded
echo run the replay suite pins byte-identical (256 B packets, 20 kpps
Poisson, seed 17); events per wall-clock second is recorded beside it but
gates nothing (it falls when a change removes events at equal wall time).
The run window is timed alone -- pod construction and report scraping are
excluded -- so the number tracks the dispatch loop and datapath hot path,
nothing else.

The committed ceiling in ``baseline_sim_speed.json`` is what CI enforces
(>20% regression fails the PR); the assertion here is a looser sanity
bound so local runs on slow machines don't flap.

For the record: the PR-6 kernel rebuild (tiered queue, event pooling,
slotted wakeups, fused channel/cache hot paths) measured a median 1.66x
events/sec over the PR-5 kernel on this run (interleaved best-of-3 pairs),
with byte-identical seeded output.
"""

import json
import time
from pathlib import Path

from repro.config import OasisConfig
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.workloads.echo import EchoClient

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_sim_speed.json"

#: Simulated seconds of echo traffic per rep; the client stops at 0.05 s
#: and the remaining 0.02 s drains in-flight frames.
SIM_SECONDS = 0.07


def _measure(reps: int = 3) -> dict:
    """Best-of-``reps`` wall clock for the canonical seeded echo window."""
    best_wall = float("inf")
    events = 0
    for _ in range(reps):
        pod, _, client_ep, _ = build_echo_pod(
            "oasis", remote=True, config=OasisConfig().with_(seed=17))
        client = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=256,
                            rate_pps=20_000.0, rng=pod.rng.get("echo-client"),
                            poisson=True, metrics=pod.metrics,
                            flows=pod.flows)
        before = pod.sim.processed_events
        t0 = time.perf_counter()
        client.start(0.05)
        pod.run(SIM_SECONDS)
        wall = time.perf_counter() - t0
        events = pod.sim.processed_events - before
        best_wall = min(best_wall, wall)
        pod.stop()
    return {
        "events": events,
        "wall_s": best_wall,
        "events_per_sec": events / best_wall,
        "wall_per_sim_sec": best_wall / SIM_SECONDS,
    }


def test_sim_event_throughput(record_result):
    measured = _measure()
    # The event count is the schedule version: same seed, same schedule,
    # same number of dispatched events -- on every machine.
    baseline = json.loads(BASELINE_PATH.read_text())
    assert measured["events"] == baseline["events"]

    record_result("sim_speed", {
        "events": measured["events"],
        "events_per_sec": measured["events_per_sec"],
        "wall_per_sim_sec": measured["wall_per_sim_sec"],
        "speedup_vs_pr5_kernel_median": baseline["speedup_vs_pr5_kernel"],
    })

    # Loose local sanity ceiling; the calibrated >20%-regression gate runs in
    # CI via tools/check_bench_regression.py against the committed ceiling.
    assert measured["wall_per_sim_sec"] < 4 * baseline["wall_per_sim_sec"]
