"""Figure 3: inbound traffic of four busy-rack hosts, 10 us granularity.

Paper result: traffic is highly bursty -- host 1 peaks near 40 Gbps yet its
P99 utilization is under 3 % while P99.99 reaches ~39 %.
"""

from __future__ import annotations

from ..analysis.report import render_table
from ..workloads.traces import RACK_A_PARAMS, generate_trace

__all__ = ["run", "main"]


def run(seed: int = 1000) -> dict:
    import numpy as np
    traces = [
        generate_trace(params, np.random.default_rng(seed + i))
        for i, params in enumerate(RACK_A_PARAMS)
    ]
    hosts = []
    for i, trace in enumerate(traces):
        series = trace.utilization_series()
        hosts.append({
            "host": i + 1,
            "peak_gbps": float(series.max()) * trace.params.nic_gbps,
            "mean_util": trace.mean_utilization,
            "p99_util": trace.utilization_percentile(99),
            "p9999_util": trace.utilization_percentile(99.99),
            "packets": len(trace.times),
        })
    return {"hosts": hosts, "traces": traces}


def main() -> dict:
    results = run()
    rows = [
        (h["host"], h["packets"], h["peak_gbps"], h["mean_util"] * 100,
         h["p99_util"] * 100, h["p9999_util"] * 100)
        for h in results["hosts"]
    ]
    print(render_table(
        ["host", "packets", "peak Gbps", "mean %", "P99 %", "P99.99 %"],
        rows,
        title="Figure 3: rack A inbound traffic, 1 s at 10 us bins "
              "(paper host 1: peak ~40 Gbps, P99 < 3 %, P99.99 ~39 %)",
        digits=1,
    ))
    return results


if __name__ == "__main__":
    main()
