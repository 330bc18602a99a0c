"""Table 2: NIC bandwidth utilization at P99.99, two racks x four hosts.

Paper result (inbound): rack A 39/30/0/23 % per host with 10 % aggregated;
rack B 39/75/52/79 % with 20 % aggregated -- i.e. four hosts could share a
single NIC, raising pooled utilization from ~20 % to ~80 %.
"""

from __future__ import annotations

from ..analysis.report import render_table
from ..analysis.stats import utilization_percentile
from ..workloads.traces import RACK_A_PARAMS, RACK_B_PARAMS, PacketTrace, generate_trace

__all__ = ["run", "main"]

PAPER = {
    "A": ([39, 30, 0, 23], 10),
    "B": ([39, 75, 52, 79], 20),
}


def run(seed: int = 1000, crosscheck: bool = False, rack: bool = False,
        rack_hosts: int = 32, port_limit: int = 4) -> dict:
    """Table 2 study; ``rack=True`` adds a 32-host rack-scale aggregation.

    The rack study tiles the eight Table 2 host profiles across
    ``rack_hosts`` hosts (fresh seeds per host), then compares the NIC count
    covering the *whole-rack* P99.99 aggregate -- floored at
    ``ceil(hosts / port_limit)`` by the multi-headed device's head count --
    against pairing the same hosts two at a time (the 2-host pods earlier
    PRs simulated, one shared NIC minimum per pair).  ``beats_pairs`` is
    the acceptance flag: rack-wide pooling must need fewer NICs.
    """
    import numpy as np
    racks = {}
    for rack_name, params in (("A", RACK_A_PARAMS), ("B", RACK_B_PARAMS)):
        traces = [
            generate_trace(p, np.random.default_rng(seed + i))
            for i, p in enumerate(params)
        ]
        per_host = [t.utilization_percentile(99.99) for t in traces]
        agg = PacketTrace.aggregate(traces)
        # Aggregated column: combined traffic vs the combined NIC capacity.
        agg_util = utilization_percentile(
            agg.times, agg.sizes, params[0].duration_s,
            len(params) * params[0].line_bytes_per_sec, 99.99,
        )
        racks[rack_name] = {"per_host": per_host, "aggregated": agg_util}
        if crosscheck:
            # Stream each host's windowed utilization through the fleet
            # pipeline's fixed-memory P-square sketch and compare its p99
            # against the exact (store-everything) percentile Table 2 uses.
            from ..obs.fleet import P2Quantile

            # On these bursty mostly-idle series (60-98 % exact zeros) the
            # five-marker sketch can drift within the tail, so the contract
            # is neighbourhood membership: the estimate must land between
            # the exact p98 and p99.9.  (On continuous distributions it
            # tracks p99 to a few percent -- see tests/test_fleet.py.)
            sketch_p99 = []
            exact_p99 = []
            exact_band = []
            for t in traces:
                series = t.utilization_series()
                sketch = P2Quantile(0.99)
                for u in series:
                    sketch.observe(float(u))
                sketch_p99.append(sketch.value)
                exact_p99.append(float(np.percentile(series, 99.0)))
                exact_band.append((float(np.percentile(series, 98.0)),
                                   float(np.percentile(series, 99.9))))
            racks[rack_name]["crosscheck"] = {"sketch_p99": sketch_p99,
                                              "exact_p99": exact_p99,
                                              "exact_band": exact_band}
    if rack:
        params = list(RACK_A_PARAMS) + list(RACK_B_PARAMS)
        tiled = [params[i % len(params)] for i in range(rack_hosts)]
        traces = [generate_trace(p, np.random.default_rng(seed + 100 + i))
                  for i, p in enumerate(tiled)]
        duration = tiled[0].duration_s
        capacity = sum(p.line_bytes_per_sec for p in tiled)
        agg = PacketTrace.aggregate(traces)
        agg_util = utilization_percentile(
            agg.times, agg.sizes, duration, capacity, 99.99)
        # NICs covering the rack-wide P99.99 peak, in whole 100 Gbit
        # units, floored by the multi-headed port limit.
        unit = 100e9 / 8.0
        peak_bytes = agg_util * capacity
        rack_nics = max(1, int(np.ceil(peak_bytes / unit - 1e-9)),
                        int(np.ceil(rack_hosts / port_limit)))
        # Baseline: the same hosts pooled two at a time (each pair needs
        # at least one shared NIC sized for *its* P99.99 peak).
        pair_utils = []
        pair_nics = 0
        for i in range(0, rack_hosts, 2):
            pair = PacketTrace.aggregate(traces[i:i + 2])
            pair_cap = sum(p.line_bytes_per_sec for p in tiled[i:i + 2])
            u = utilization_percentile(
                pair.times, pair.sizes, duration, pair_cap, 99.99)
            pair_utils.append(u)
            pair_nics += max(1, int(np.ceil(u * pair_cap / unit - 1e-9)))
        racks["rack"] = {
            "hosts": rack_hosts,
            "port_limit": port_limit,
            "per_host": [t.utilization_percentile(99.99) for t in traces],
            "aggregated": agg_util,
            "nics_needed": rack_nics,
            "pair_mean_p9999": float(np.mean(pair_utils)),
            "pair_nics_needed": pair_nics,
            "saved_vs_pairs": 1.0 - rack_nics / pair_nics,
            "beats_pairs": rack_nics < pair_nics,
        }
    return racks


def main() -> dict:
    racks = run()
    rows = []
    for rack, data in racks.items():
        paper_hosts, paper_agg = PAPER[rack]
        rows.append(
            [f"Rack {rack} (measured)"]
            + [u * 100 for u in data["per_host"]]
            + [data["aggregated"] * 100]
        )
        rows.append([f"Rack {rack} (paper, in)"] + paper_hosts + [paper_agg])
    print(render_table(
        ["", "Host 1", "Host 2", "Host 3", "Host 4", "Aggregated"],
        rows,
        title="Table 2: NIC bandwidth utilization at P99.99 (%)",
        digits=0,
    ))
    return racks


if __name__ == "__main__":
    main()
