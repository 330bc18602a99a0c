"""Benchmark: rack-scale throughput under the sharded control plane.

Headline metrics for the PR-8 rack (not a paper figure): sustain the fig10
echo workload on **every** host of the ROADMAP's 32-host / 4-pool / ~100
device rack while 256 place/release pairs churn through the sharded,
batch-committed control plane, and check

* ``commit_p50_ms`` / ``commit_p99_ms`` -- decide-to-leader-applied latency
  of replicated control commands under group commit (sim time, so the
  ceiling in :mod:`repro.experiments.rack` is exact on any machine);
* ``converged`` -- every Raft replica of every pool shard matches its
  shard's canonical state signature at the end of the run.

Host time at rack scale is measured by ``perf/``'s ``rack_echo`` workload.
"""

from repro.experiments.rack import COMMIT_P99_CEILING_MS, run_rack


def test_rack_scale_throughput():
    result = run_rack()

    # Topology: the ROADMAP's rack, not a scaled-down slice.
    assert result["hosts"] == 32
    assert result["pools"] == 4
    assert result["devices"] >= 96

    # Control-plane health is binary: every shard's replicas converged and
    # nothing is stuck in the proposal queue.
    assert result["converged"]
    assert result["pending_after"] == 0
    assert result["commits"] > 0 and result["batches_proposed"] > 0
    # Group commit actually groups: fewer proposals than commands.
    assert result["batches_proposed"] < result["commits"]

    assert result["commit_p99_ms"] <= COMMIT_P99_CEILING_MS
