"""Figure 2: stranded NIC bandwidth / SSD capacity vs pod size.

Paper result: pooling across pods of 8 hosts cuts stranded NIC bandwidth
from 27 % to roughly the low teens and stranded SSD capacity from 33 % to
single digits, equivalent to provisioning ~16 % less NIC bandwidth and ~26 %
fewer SSDs per pod.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.report import render_table
from ..workloads.allocation import generate_allocation_trace
from ..workloads.stranding import (pooled_stranding, schedule_trace,
                                   stranded_fractions)

__all__ = ["run", "main"]

#: Whole-device units used throughout (one 100 Gbit NIC, one 4 TB SSD).
NIC_DEVICE_UNIT = 100.0
SSD_DEVICE_UNIT = 4.0


def run(
    n_instances: int = 6000,
    n_hosts: int = 64,
    pod_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    seed: int = 7,
    rack: bool = False,
    port_limit: Optional[int] = 4,
) -> dict:
    """Figure 2 pipeline; ``rack=True`` adds the 32-host rack-scale study.

    The rack study re-runs the pooling sweep with rack-sized pods (up to 32
    hosts sharing one pool shard) under the multi-headed device's
    ``port_limit`` -- a device attaches to at most that many hosts, so a
    32-host pod needs at least ``ceil(32 / port_limit)`` devices.  The
    headline is that rack-scale pooling still strands *less* than the
    2-host pods PRs 1-7 simulated (``beats_2host`` flags).
    """
    rng = np.random.default_rng(seed)
    trace = generate_allocation_trace(
        n_instances=n_instances, duration_s=20_000.0, mean_lifetime_s=3000.0,
        rng=rng,
    )
    placed = schedule_trace(trace, n_hosts)
    baseline = stranded_fractions(trace, n_hosts)
    nic = pooled_stranding(trace, n_hosts, pod_sizes, "nic_gbps",
                           NIC_DEVICE_UNIT,
                           rng=np.random.default_rng(seed + 1))
    ssd = pooled_stranding(trace, n_hosts, pod_sizes, "ssd_tb",
                           SSD_DEVICE_UNIT,
                           rng=np.random.default_rng(seed + 2))
    results = {
        "placed": placed,
        "total": n_instances,
        "baseline_stranded": baseline,
        "nic": nic,
        "ssd": ssd,
    }
    if rack:
        rack_sizes = tuple(s for s in (2, 8, 32) if s <= n_hosts)
        rack_nic = pooled_stranding(
            trace, n_hosts, rack_sizes, "nic_gbps", NIC_DEVICE_UNIT,
            rng=np.random.default_rng(seed + 4), port_limit=port_limit)
        rack_ssd = pooled_stranding(
            trace, n_hosts, rack_sizes, "ssd_tb", SSD_DEVICE_UNIT,
            rng=np.random.default_rng(seed + 5), port_limit=port_limit)
        results["rack"] = {
            "port_limit": port_limit,
            "pod_sizes": rack_sizes,
            "nic": rack_nic,
            "ssd": rack_ssd,
            "nic_beats_2host": (
                rack_nic[-1].stranded_fraction
                < rack_nic[0].stranded_fraction),
            "ssd_beats_2host": (
                rack_ssd[-1].stranded_fraction
                < rack_ssd[0].stranded_fraction),
        }
    return results


def main() -> dict:
    results = run()
    base = results["baseline_stranded"]
    print(render_table(
        ["resource", "stranded %"],
        [(k, v * 100) for k, v in base.items()],
        title="Baseline stranding (paper: cores 5 %, mem 9 %, NIC 27 %, SSD 33 %)",
        digits=1,
    ))
    rows = []
    for nic_row, ssd_row in zip(results["nic"], results["ssd"]):
        rows.append((
            nic_row.pod_size,
            nic_row.stranded_fraction * 100,
            nic_row.saved_fraction * 100,
            ssd_row.stranded_fraction * 100,
            ssd_row.saved_fraction * 100,
        ))
    print()
    print(render_table(
        ["pod size", "NIC stranded %", "NIC saved %", "SSD stranded %",
         "SSD saved %"],
        rows,
        title="Figure 2: stranding vs pod size "
              "(paper: NIC 27->~11 %, SSD 33->7 % at pod size 8)",
        digits=1,
    ))
    return results


if __name__ == "__main__":
    main()
