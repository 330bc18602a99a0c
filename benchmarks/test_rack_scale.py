"""Benchmark: rack-scale throughput under the sharded control plane.

Headline metrics for the PR-8 rack (not a paper figure): sustain the fig10
echo workload on **every** host of the ROADMAP's 32-host / 4-pool / ~100
device rack while 256 place/release pairs churn through the sharded,
batch-committed control plane, and measure

* ``wall_per_sim_sec`` -- wall-clock seconds per simulated second with the
  whole rack hot (the PR-6 sim-speed budget at 16x the host count);
* ``commit_p50_ms`` / ``commit_p99_ms`` -- decide-to-leader-applied latency
  of replicated control commands under group commit (sim time, so the
  number is machine-independent and gated exactly);
* ``converged`` -- every Raft replica of every pool shard matches its
  shard's canonical state signature at the end of the run.

The committed ceiling in ``baseline_rack_scale.json`` is what CI enforces via
``tools/check_bench_regression.py``; the assertions here are looser sanity
bounds so local runs on slow machines don't flap.
"""

import json
from pathlib import Path

from repro.experiments.rack import run_rack

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_rack_scale.json"


def test_rack_scale_throughput(record_result):
    result = run_rack()
    baseline = json.loads(BASELINE_PATH.read_text())

    record_result("rack_scale", result)

    # Topology: the ROADMAP's rack, not a scaled-down slice.
    assert result["hosts"] == baseline["hosts"]
    assert result["pools"] == baseline["pools"]
    assert result["devices"] >= baseline["devices_min"]

    # Control-plane health is binary: every shard's replicas converged and
    # nothing is stuck in the proposal queue.
    assert result["converged"]
    assert result["pending_after"] == 0
    assert result["commits"] > 0 and result["batches_proposed"] > 0
    # Group commit actually groups: fewer proposals than commands.
    assert result["batches_proposed"] < result["commits"]

    # Commit latency is simulated time -- machine-independent -- so the
    # ceiling is exact, not a tolerance band.
    assert result["commit_p99_ms"] <= baseline["commit_p99_ms_ceiling"]

    # Loose local sanity ceiling; the calibrated regression gate runs in CI
    # via tools/check_bench_regression.py against the committed ceiling.
    assert result["wall_per_sim_sec"] < 4 * baseline["wall_per_sim_sec"]
