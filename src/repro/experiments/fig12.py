"""Figure 12: production-trace replay -- two hosts sharing one NIC.

Paper result: replaying rack A hosts 1-2 inbound traces, multiplexing both
onto host 1's NIC leaves host 1's P99 round-trip latency unchanged and adds
~1 us to host 2's, while aggregated NIC utilization at P99.99 roughly
doubles (18 % -> 37 %).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..analysis.report import render_table
from ..workloads.replay import run_trace_replay
from ..workloads.traces import RACK_A_PARAMS, generate_trace
from .common import scale

__all__ = ["run", "main"]


def run(duration_s: Optional[float] = None, seed: int = 50) -> dict:
    import numpy as np
    duration = duration_s if duration_s is not None else 0.25 * scale()
    traces = [
        generate_trace(replace(RACK_A_PARAMS[i], duration_s=duration),
                       np.random.default_rng(seed + i))
        for i in range(2)
    ]
    baseline = run_trace_replay(traces, multiplexed=False)
    multiplexed = run_trace_replay(traces, multiplexed=True)
    return {"baseline": baseline, "multiplexed": multiplexed,
            "packets": [len(t.times) for t in traces]}


def main() -> dict:
    results = run()
    base, mux = results["baseline"], results["multiplexed"]
    rows = []
    for i in range(2):
        rows.append((
            f"host {i + 1}",
            base.per_host[i]["p50"], mux.per_host[i]["p50"],
            base.per_host[i]["p99"], mux.per_host[i]["p99"],
            mux.per_host[i]["p99"] - base.per_host[i]["p99"],
        ))
    print(render_table(
        ["", "base p50", "mux p50", "base p99", "mux p99", "d(p99)"],
        rows,
        title="Figure 12: trace replay RTT, us (paper: host 1 unchanged, "
              "host 2 +~1 us)",
        digits=1,
    ))
    print()
    print(render_table(
        ["setup", "aggregated P99.99 util %", "lost"],
        [("baseline (2 NICs)", base.nic_p9999_util * 100, base.lost),
         ("multiplexed (1 NIC)", mux.nic_p9999_util * 100, mux.lost)],
        title="Aggregated NIC utilization (paper: 18 % -> 37 %)",
        digits=1,
    ))
    return results


if __name__ == "__main__":
    main()
